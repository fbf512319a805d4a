"""Minimal IPv4 arithmetic for the simulated address space.

Addresses are plain ``int`` (0 .. 2**32-1) everywhere inside the
simulator; the dotted-quad form exists only at presentation boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_IPV4 = 2**32 - 1


def parse_decimal(text: str) -> int:
    """``int(text)`` for a non-empty run of ASCII digits, else ValueError.

    ``int`` alone also takes a sign, surrounding whitespace, ``_``
    separators and non-ASCII digits (``"٤"``), none of which belongs in
    an address, port or prefix length read from a file or a peer.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal number: {text!r}")
    return int(text)


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad notation into an integer address."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address: {text!r}")
    value = 0
    for part in parts:
        try:
            octet = parse_decimal(part)
        except ValueError:
            raise ValueError(f"invalid IPv4 address: {text!r}") from None
        if octet > 255 or (len(part) > 1 and part[0] == "0"):
            raise ValueError(f"invalid IPv4 address: {text!r}")
        value = (value << 8) | octet
    return value


def format_ipv4(value: int) -> str:
    """Render an integer address in dotted-quad notation."""
    if not 0 <= value <= MAX_IPV4:
        raise ValueError(f"IPv4 address out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


MAX_IPV6 = 2**128 - 1


def parse_ipv6(text: str) -> int:
    """Parse an IPv6 address (with ``::`` compression) to an integer."""
    if text.count("::") > 1:
        raise ValueError(f"invalid IPv6 address: {text!r}")
    if "::" in text:
        head, _, tail = text.partition("::")
        head_groups = head.split(":") if head else []
        tail_groups = tail.split(":") if tail else []
        missing = 8 - len(head_groups) - len(tail_groups)
        if missing < 1:
            raise ValueError(f"invalid IPv6 address: {text!r}")
        groups = head_groups + ["0"] * missing + tail_groups
    else:
        groups = text.split(":")
    if len(groups) != 8:
        raise ValueError(f"invalid IPv6 address: {text!r}")
    value = 0
    for group in groups:
        if not group or len(group) > 4:
            raise ValueError(f"invalid IPv6 address: {text!r}")
        try:
            part = int(group, 16)
        except ValueError:
            raise ValueError(f"invalid IPv6 address: {text!r}") from None
        value = (value << 16) | part
    return value


def format_ipv6(value: int) -> str:
    """Format an integer as IPv6 with best ``::`` compression."""
    if not 0 <= value <= MAX_IPV6:
        raise ValueError(f"IPv6 address out of range: {value}")
    groups = [(value >> (16 * (7 - i))) & 0xFFFF for i in range(8)]
    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for index, group in enumerate(groups):
        if group == 0:
            if run_start < 0:
                run_start, run_len = index, 0
            run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0
    if best_len >= 2:
        head = ":".join(f"{g:x}" for g in groups[:best_start])
        tail = ":".join(f"{g:x}" for g in groups[best_start + best_len :])
        return f"{head}::{tail}"
    return ":".join(f"{g:x}" for g in groups)


def format_address(value: int) -> str:
    """Render either address family (IPv4 below 2**32, IPv6 above)."""
    if 0 <= value <= MAX_IPV4:
        return format_ipv4(value)
    return format_ipv6(value)


def format_endpoint_host(value: int) -> str:
    """Address form usable inside a URL (IPv6 gets brackets)."""
    if 0 <= value <= MAX_IPV4:
        return format_ipv4(value)
    return f"[{format_ipv6(value)}]"


@dataclass(frozen=True)
class CidrBlock:
    """A CIDR prefix, e.g. ``CidrBlock.parse("10.2.0.0/16")``."""

    network: int
    prefix_len: int

    def __post_init__(self):
        if not 0 <= self.prefix_len <= 32:
            raise ValueError(f"invalid prefix length: {self.prefix_len}")
        if self.network & ~self.mask:
            raise ValueError("network address has host bits set")

    @classmethod
    def parse(cls, text: str) -> "CidrBlock":
        addr, sep, plen = text.partition("/")
        if not sep:
            raise ValueError(f"missing prefix length in {text!r}")
        try:
            prefix_len = parse_decimal(plen)
        except ValueError:
            raise ValueError(f"invalid prefix length in {text!r}") from None
        return cls(parse_ipv4(addr), prefix_len)

    @property
    def mask(self) -> int:
        if self.prefix_len == 0:
            return 0
        return (MAX_IPV4 << (32 - self.prefix_len)) & MAX_IPV4

    @property
    def size(self) -> int:
        return 1 << (32 - self.prefix_len)

    @property
    def first(self) -> int:
        return self.network

    @property
    def last(self) -> int:
        return self.network + self.size - 1

    def __contains__(self, address: int) -> bool:
        return self.first <= address <= self.last

    def __str__(self) -> str:
        return f"{format_ipv4(self.network)}/{self.prefix_len}"

    def address_at(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} outside {self}")
        return self.network + index
