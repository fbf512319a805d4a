"""Service dispatch: request structure type → engine handler.

Separating the routing table from the engine keeps the engine's
handlers individually testable and makes the supported service surface
explicit: exactly the seven services the scanner sends.
"""

from __future__ import annotations

from repro.uabin.types_attribute import ReadRequest
from repro.uabin.types_discovery import FindServersRequest, GetEndpointsRequest
from repro.uabin.types_session import (
    ActivateSessionRequest,
    CloseSessionRequest,
    CreateSessionRequest,
)
from repro.uabin.types_view import BrowseRequest

# Requests that may be served without an activated session.
SESSIONLESS_REQUESTS = (
    GetEndpointsRequest,
    FindServersRequest,
    CreateSessionRequest,
    ActivateSessionRequest,
    CloseSessionRequest,
)

HANDLER_NAMES = {
    GetEndpointsRequest: "handle_get_endpoints",
    FindServersRequest: "handle_find_servers",
    CreateSessionRequest: "handle_create_session",
    ActivateSessionRequest: "handle_activate_session",
    CloseSessionRequest: "handle_close_session",
    BrowseRequest: "handle_browse",
    ReadRequest: "handle_read",
}


def requires_session(request) -> bool:
    return not isinstance(request, SESSIONLESS_REQUESTS)


def handler_for(engine, request):
    """Resolve the engine method serving ``request`` (or None)."""
    name = HANDLER_NAMES.get(type(request))
    if name is None:
        return None
    return getattr(engine, name)
