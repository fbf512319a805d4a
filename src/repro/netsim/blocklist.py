"""Scan opt-out blocklist.

The paper excluded 5.79 M addresses (0.13 % of the IPv4 space) on
operator request; the simulator provides the same mechanism so the
campaign honours exclusions and the ethics tests can verify it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable

from repro.util.ipaddr import CidrBlock

#: What the first-level table says about one /16 prefix of the IPv4
#: space: no exclusion touches it, one merged range covers all of it,
#: or an exclusion starts or ends inside it.
_CLEAR, _BLOCKED, _SPLIT = 0, 1, 2


def _covered(starts: list[int], ends: list[int], address: int) -> bool:
    """Whether a merged interval table covers ``address``."""
    index = bisect_right(starts, address) - 1
    return index >= 0 and address <= ends[index]


class Blocklist:
    """A set of excluded CIDR blocks and raw address ranges.

    Raw ranges cover the IPv6 case, where exclusions arrive as
    first/last address pairs rather than IPv4 CIDR notation.

    Membership is checked once per probed address, so the blocks and
    ranges are lazily compiled into a sorted, merged interval table
    and, beside it, a 65,536-entry first level over the top 16 bits
    of an IPv4 address.  Most addresses are answered by that one
    lookup; only an address in a split /16, or past the IPv4 space,
    bisects the interval table.  The compiled state is published in
    one assignment, so a query on another thread sees all of it or
    none of it; mutation invalidates it.
    """

    def __init__(self, blocks: list[CidrBlock] | None = None):
        self._blocks: list[CidrBlock] = list(blocks or [])
        self._ranges: list[tuple[int, int]] = []
        self._compiled: tuple[bytes, list[int], list[int]] | None = None

    def add(self, block: CidrBlock | str) -> None:
        if isinstance(block, str):
            block = CidrBlock.parse(block)
        self._blocks.append(block)
        self._compiled = None

    def add_raw_range(self, first: int, last: int) -> None:
        if last < first:
            raise ValueError("range end before start")
        if first < 0:
            raise ValueError("range starts below address 0")
        self._ranges.append((first, last))
        self._compiled = None

    def _compile(self) -> tuple[bytes, list[int], list[int]]:
        intervals = sorted(
            self._ranges
            + [(block.first, block.last) for block in self._blocks]
        )
        merged: list[tuple[int, int]] = []
        for first, last in intervals:
            if merged and first <= merged[-1][1] + 1:
                if last > merged[-1][1]:
                    merged[-1] = (merged[-1][0], last)
            else:
                merged.append((first, last))
        # Merged ranges are disjoint and never adjacent, so a /16 that
        # no single range covers whole is split, whatever touches it.
        prefixes = bytearray(1 << 16)
        for first, last in merged:
            if first >> 32:
                break  # past the IPv4 space, where every query bisects
            end = min(last, 0xFFFFFFFF)
            low, high = first >> 16, end >> 16
            prefixes[low : high + 1] = bytes([_BLOCKED]) * (high - low + 1)
            if first & 0xFFFF:
                prefixes[low] = _SPLIT
            if ~end & 0xFFFF:
                prefixes[high] = _SPLIT
        return (
            bytes(prefixes),
            [first for first, _ in merged],
            [last for _, last in merged],
        )

    def _tables(self) -> tuple[bytes, list[int], list[int]]:
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = self._compile()
        return compiled

    def allowed(self, addresses: Iterable[int]) -> list[int]:
        """The members of ``addresses`` no exclusion covers, in input
        order."""
        prefixes, starts, ends = self._tables()
        return [
            address
            for address in addresses
            if (state := _SPLIT if address >> 32 else prefixes[address >> 16])
            == _CLEAR
            or (state == _SPLIT and not _covered(starts, ends, address))
        ]

    def __contains__(self, address: int) -> bool:
        prefixes, starts, ends = self._tables()
        state = _SPLIT if address >> 32 else prefixes[address >> 16]
        return state == _BLOCKED or (
            state == _SPLIT and _covered(starts, ends, address)
        )

    def __len__(self) -> int:
        return len(self._blocks) + len(self._ranges)

    @property
    def excluded_address_count(self) -> int:
        return sum(block.size for block in self._blocks) + sum(
            last - first + 1 for first, last in self._ranges
        )
