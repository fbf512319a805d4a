"""The opt-out blocklist's compiled lookup.

``Blocklist`` answers from a first-level table over the top 16 bits
of an IPv4 address and falls back to a bisect of its merged interval
table for split /16s and for addresses past the IPv4 space.  The
properties pin it against the definition (an address is excluded iff
some block or range covers it) exactly where the two levels meet: at
and around every range end and every /16 boundary near one, for CIDR
blocks and for raw ranges below, above and across 2**32.  The race
test pins the one-assignment publish of the compiled state.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.netsim.blocklist as blocklist_module
from repro.netsim.blocklist import Blocklist
from repro.util.ipaddr import CidrBlock, parse_ipv4

IPV4_SPACE = 1 << 32


@st.composite
def cidr_blocks(draw):
    prefix_len = draw(st.integers(0, 32))
    address = draw(st.integers(0, IPV4_SPACE - 1))
    mask = (IPV4_SPACE - 1) ^ ((1 << (32 - prefix_len)) - 1)
    return CidrBlock(address & mask, prefix_len)


@st.composite
def raw_ranges(draw):
    first = draw(
        st.one_of(
            st.integers(0, IPV4_SPACE - 1),
            st.integers(IPV4_SPACE - 2**17, IPV4_SPACE + 2**17),
            st.integers(IPV4_SPACE, 2**128 - 1),
        )
    )
    width = draw(
        st.one_of(st.integers(0, 2**17), st.integers(0, 2**33))
    )
    return first, first + width


def _probe_points(intervals, extra):
    """Every range end and /16 boundary near one, each +-1, plus the
    edges of the IPv4 space and ``extra``."""
    points = {0, 1, IPV4_SPACE - 1, IPV4_SPACE, IPV4_SPACE + 1, *extra}
    for first, last in intervals:
        for end in (first, last):
            for edge in (end, end >> 16 << 16, ((end >> 16) + 1) << 16):
                points.update((edge - 1, edge, edge + 1))
    return sorted(point for point in points if point >= 0)


def _reference_allowed(intervals, addresses):
    return [
        address
        for address in addresses
        if not any(first <= address <= last for first, last in intervals)
    ]


class TestLookup:
    def test_allowed_keeps_input_order_and_duplicates(self):
        blocklist = Blocklist()
        blocklist.add("10.5.0.0/16")
        inside, outside = parse_ipv4("10.5.1.1"), parse_ipv4("10.6.1.1")
        assert blocklist.allowed(
            [outside, inside, 7, outside, inside]
        ) == [outside, 7, outside]

    def test_empty_blocklist_allows_everything(self):
        addresses = [0, 5, IPV4_SPACE - 1, IPV4_SPACE, 2**100]
        assert Blocklist().allowed(addresses) == addresses
        assert not any(address in Blocklist() for address in addresses)

    def test_mutation_recompiles(self):
        blocklist = Blocklist()
        address = parse_ipv4("192.0.2.7")
        assert address not in blocklist
        blocklist.add("192.0.2.0/24")
        assert address in blocklist
        blocklist.add_raw_range(IPV4_SPACE + 3, IPV4_SPACE + 9)
        assert blocklist.allowed([address, IPV4_SPACE + 5]) == []

    def test_negative_range_start_rejected(self):
        with pytest.raises(ValueError, match="below address 0"):
            Blocklist().add_raw_range(-5, 5)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        blocks=st.lists(cidr_blocks(), max_size=6),
        ranges=st.lists(raw_ranges(), max_size=6),
        extra=st.lists(st.integers(0, 2**34), max_size=20),
    )
    def test_matches_definition_at_every_boundary(
        self, blocks, ranges, extra
    ):
        blocklist = Blocklist()
        for block in blocks:
            blocklist.add(block)
        for first, last in ranges:
            blocklist.add_raw_range(first, last)
        intervals = [(b.first, b.last) for b in blocks] + ranges
        points = _probe_points(intervals, extra)
        expected = _reference_allowed(intervals, points)
        assert blocklist.allowed(points) == expected
        allowed = set(expected)
        for point in points:
            assert (point in blocklist) == (point not in allowed)


class TestCompileRace:
    """A query on one thread while another thread is compiling.

    The compiling thread is parked, deterministically, before each
    line it runs in the blocklist module in turn; at each stop the
    test thread queries the same fresh blocklist.  A query must see
    the whole compiled state or none of it (and then compile its own),
    never a half-published table.
    """

    QUERIES = {
        parse_ipv4("192.0.2.7"): True,
        parse_ipv4("198.51.100.255"): True,
        parse_ipv4("198.51.101.0"): False,
        parse_ipv4("203.0.113.1"): False,
        IPV4_SPACE + 15: True,
        IPV4_SPACE + 21: False,
    }

    @staticmethod
    def _fresh() -> Blocklist:
        blocklist = Blocklist()
        blocklist.add("192.0.2.0/24")
        blocklist.add("198.51.100.0/24")
        blocklist.add_raw_range(IPV4_SPACE + 10, IPV4_SPACE + 20)
        return blocklist

    def _query(self, blocklist, kind: str) -> dict:
        if kind == "contains":
            return {address: address in blocklist for address in self.QUERIES}
        kept = set(blocklist.allowed(list(self.QUERIES)))
        return {address: address not in kept for address in self.QUERIES}

    def _race_at(self, kind: str, stop: int) -> bool:
        """Park the compiling thread before its ``stop``-th line and
        query meanwhile; ``False`` once the compile ran out of lines
        before ``stop``."""
        blocklist = self._fresh()
        source = blocklist_module.__file__
        stopped, resume = threading.Event(), threading.Event()
        lines = 0
        parked = False
        outcome: dict = {}

        def local(frame, event, arg):
            nonlocal lines, parked
            if event == "line":
                lines += 1
                if lines == stop:
                    parked = True
                    stopped.set()
                    resume.wait(timeout=30)
            return local

        def scoped(frame, event, arg):
            return local if frame.f_code.co_filename == source else None

        def compile_on_thread():
            sys.settrace(scoped)
            try:
                outcome["answers"] = self._query(blocklist, kind)
            except BaseException as exc:  # reported on the test thread
                outcome["error"] = exc
            finally:
                sys.settrace(None)
                stopped.set()

        thread = threading.Thread(target=compile_on_thread, daemon=True)
        thread.start()
        assert stopped.wait(timeout=30), "compiling thread never stopped"
        try:
            if parked:
                assert self._query(blocklist, kind) == self.QUERIES, (
                    f"query during the compile, stopped at line {stop}"
                )
        finally:
            resume.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        if "error" in outcome:
            raise outcome["error"]
        assert outcome["answers"] == self.QUERIES
        return parked

    @pytest.mark.parametrize("kind", ["contains", "allowed"])
    def test_query_never_sees_a_half_published_table(self, kind):
        stop = 1
        while self._race_at(kind, stop):
            stop += 1
            assert stop < 5_000, "compile never finished"
        assert stop > 10, "the trace hook parked the compile nowhere"
