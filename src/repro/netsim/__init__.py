"""A simulated IPv4 Internet.

Stands in for the public Internet the paper scanned: hosts registered
at integer IPv4 addresses inside autonomous-system CIDR blocks, TCP
connections as synchronous byte streams that cost no simulated time,
a zmap-style port sweep, and an opt-out blocklist honouring the
paper's ethics process (Appendix A).
"""

from repro.netsim.asn import AsRegistry, AutonomousSystem
from repro.netsim.blocklist import Blocklist
from repro.netsim.net import (
    ConnectionRefused,
    HostDown,
    SimNetwork,
    SimSocket,
)
from repro.netsim.tcpscan import PortScanResult, sweep_port

__all__ = [
    "AsRegistry",
    "AutonomousSystem",
    "Blocklist",
    "ConnectionRefused",
    "HostDown",
    "PortScanResult",
    "SimNetwork",
    "SimSocket",
    "sweep_port",
]
