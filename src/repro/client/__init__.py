"""A from-scratch OPC UA binary client.

Implements the exact grab sequence the paper's zgrab2 module performs:
Hello/Acknowledge, GetEndpoints, OpenSecureChannel (presenting a
self-signed certificate on secure policies), CreateSession /
ActivateSession, and address-space access via Browse/Read.
"""

from repro.client.errors import (
    CONNECTION_FAILURE_CATEGORIES,
    ConnectionClosedError,
    ServiceFaultError,
    TransportRejectedError,
    UaClientError,
    categorize_error,
)
from repro.client.client import ClientIdentity, UaClient

__all__ = [
    "CONNECTION_FAILURE_CATEGORIES",
    "ClientIdentity",
    "ConnectionClosedError",
    "ServiceFaultError",
    "TransportRejectedError",
    "UaClient",
    "UaClientError",
    "categorize_error",
]
