"""Shared low-level utilities: binary I/O, deterministic RNG, IPv4 math.

These helpers underpin every other subsystem (the OPC UA codec, the
crypto stack, and the internet simulation) and deliberately avoid any
dependency beyond the standard library.
"""

from repro.util.binary import BinaryReader, BinaryWriter, NotEnoughData
from repro.util.ipaddr import (
    CidrBlock,
    format_address,
    format_endpoint_host,
    format_ipv4,
    format_ipv6,
    parse_ipv4,
    parse_ipv6,
)
from repro.util.rng import DeterministicRng
from repro.util.simtime import SimClock, UTC_EPOCH_2020, parse_utc, format_utc

__all__ = [
    "BinaryReader",
    "BinaryWriter",
    "NotEnoughData",
    "CidrBlock",
    "DeterministicRng",
    "SimClock",
    "UTC_EPOCH_2020",
    "format_address",
    "format_endpoint_host",
    "format_ipv4",
    "format_ipv6",
    "format_utc",
    "parse_ipv4",
    "parse_ipv6",
    "parse_utc",
]
