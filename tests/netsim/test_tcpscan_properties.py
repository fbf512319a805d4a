"""Property-style tests for the candidate stream and its batching.

The batched SYN sweep hands ``candidate_batches`` output to parallel
executor workers, so everything downstream rests on five properties:

* the stream is a pure function of ``(seed, port)``: the registered
  hosts in registration order, then the ``sweep-{port}`` substream's
  draws below 2**32 in draw order, deduplicated in first-occurrence
  order — equal, element for element, to the library reference built
  from ``randrange(2**32)``;
* ports draw from isolated substreams;
* batches partition the stream (disjoint, nothing dropped);
* deduplication holds even when ``extra_candidates`` draws collide
  with registered hosts or with each other;
* batch size changes only the cut points, never the visit order.

Plus the accounting regression: ``candidate_batches`` deliberately
does not consult the blocklist (zmap's target generation is
blocklist-agnostic; exclusion happens at probe time), so batched and
unbatched probing must report identical probed/excluded/open totals.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.blocklist import Blocklist
from repro.netsim.net import SimHost, SimNetwork
from repro.netsim.tcpscan import (
    candidate_batches,
    candidate_stream,
    sweep_port,
)
from repro.scanner.campaign import ScanCampaign, ScannerIdentity
from repro.scanner.executor import ProbeBatchTask
from repro.util.rng import DeterministicRng

PORT = 4840

ADDRESSES = [10 * n + 7 for n in range(1, 90)]


class _SilentService:
    """A listener that answers every write with silence (not OPC UA)."""

    closed = False

    def receive(self, data: bytes) -> bytes:
        return b""


def _network(addresses, listening=None):
    network = SimNetwork()
    for address in addresses:
        host = SimHost(address=address)
        if listening is None or address in listening:
            host.listen(PORT, _SilentService)
        network.add_host(host)
    return network


def _rng() -> DeterministicRng:
    return DeterministicRng(20200830, "tcpscan-properties")


def _flatten(network, port, rng, **kwargs):
    return [
        address
        for batch in candidate_batches(network, port, rng, **kwargs)
        for address in batch
    ]


class TestPermutationPurity:
    def test_same_seed_and_port_same_order(self):
        network = _network(ADDRESSES)
        first = _flatten(network, PORT, _rng(), extra_candidates=25)
        second = _flatten(network, PORT, _rng(), extra_candidates=25)
        assert first == second

    def test_different_port_different_substream(self):
        """Ports are isolated through their draws: with none, every
        port gives the hosts in registration order; with some, the
        hosts lead unchanged and the draw suffixes differ."""
        registered = ADDRESSES[1::2] + ADDRESSES[::2]
        network = _network(registered)
        for port in (PORT, 4841):
            assert _flatten(network, port, _rng()) == registered
        first = _flatten(network, PORT, _rng(), extra_candidates=25)
        second = _flatten(network, 4841, _rng(), extra_candidates=25)
        hosts = len(registered)
        assert first[:hosts] == second[:hosts] == registered
        assert len(first) == len(second) == hosts + 25
        assert first[hosts:] != second[hosts:]

    def test_batch_size_changes_granularity_not_order(self):
        network = _network(ADDRESSES)
        reference = _flatten(
            network, PORT, _rng(), extra_candidates=25, batch_size=256
        )
        for batch_size in (1, 3, 16, 64):
            assert (
                _flatten(
                    network,
                    PORT,
                    _rng(),
                    extra_candidates=25,
                    batch_size=batch_size,
                )
                == reference
            )

    def test_batches_respect_requested_size(self):
        network = _network(ADDRESSES)
        batches = list(
            candidate_batches(network, PORT, _rng(), batch_size=16)
        )
        assert all(len(batch) == 16 for batch in batches[:-1])
        assert 0 < len(batches[-1]) <= 16


def _reference_stream(network, port, rng, extra_candidates):
    """The stream as the library's own draw builds it."""
    draws = rng.substream(f"sweep-{port}")
    hosts = [host.address for host in network.hosts()]
    return list(
        dict.fromkeys(
            hosts + [draws.randrange(2**32) for _ in range(extra_candidates)]
        )
    )


class TestReferenceStream:
    """``candidate_stream`` draws exactly what ``randrange(2**32)`` on
    the ``sweep-{port}`` substream draws, in draw order."""

    @pytest.mark.parametrize("extra", [0, 1, 4000])
    def test_equals_reference(self, extra):
        network = _network(ADDRESSES[::-1])
        assert candidate_stream(
            network, PORT, _rng(), extra_candidates=extra
        ) == _reference_stream(network, PORT, _rng(), extra)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**64),
        port=st.integers(1, 65535),
        extra=st.integers(0, 3000),
        hosts=st.lists(st.integers(0, 2**32 - 1), max_size=40, unique=True),
    )
    def test_equals_reference_for_any_seed_port_and_count(
        self, seed, port, extra, hosts
    ):
        network = _network(hosts)
        rng = DeterministicRng(seed, "tcpscan-reference")
        assert candidate_stream(
            network, port, rng, extra_candidates=extra
        ) == _reference_stream(
            network, port, DeterministicRng(seed, "tcpscan-reference"), extra
        )

    def test_equals_reference_when_draws_collide(self):
        # Register hosts at drawn addresses (first, middle, last), and
        # draw enough that the stream must drop them from the suffix.
        probe_rng = _rng().substream(f"sweep-{PORT}")
        draws = [probe_rng.randrange(2**32) for _ in range(3000)]
        network = _network([draws[2999], 42, draws[0], draws[1500]])
        stream = candidate_stream(
            network, PORT, _rng(), extra_candidates=3000
        )
        assert stream == _reference_stream(network, PORT, _rng(), 3000)
        assert stream[:4] == [draws[2999], 42, draws[0], draws[1500]]
        assert len(stream) == len(set(stream)) == len({42, *draws})


class TestPartitioning:
    def test_batches_are_disjoint_and_complete(self):
        network = _network(ADDRESSES)
        batches = list(
            candidate_batches(
                network, PORT, _rng(), extra_candidates=40, batch_size=8
            )
        )
        flat = [address for batch in batches for address in batch]
        assert len(flat) == len(set(flat)), "duplicate across batches"
        assert set(ADDRESSES) <= set(flat), "registered host dropped"

    def test_dedup_with_colliding_extra_candidates(self):
        # The extra-candidate draws are deterministic, so we can
        # pre-compute them and register hosts at exactly those
        # addresses — forcing the collision the dedup guards against.
        probe_rng = _rng().substream(f"sweep-{PORT}")
        draws = [probe_rng.randrange(2**32) for _ in range(10)]
        network = _network([draws[0], draws[3], 42])
        flat = _flatten(network, PORT, _rng(), extra_candidates=10)
        assert len(flat) == len(set(flat))
        # Colliding addresses appear exactly once, and nothing is
        # lost: the stream is hosts ∪ extras, deduplicated.
        assert set(flat) == {42, *draws}


class TestBlocklistAccounting:
    """Excluded counts must not depend on how the stream is probed."""

    @pytest.fixture()
    def scenario(self):
        listening = set(ADDRESSES[::3])
        network = _network(ADDRESSES, listening=listening)
        blocklist = Blocklist()
        # Block a slice covering listening and silent hosts alike.
        blocklist.add_raw_range(ADDRESSES[10], ADDRESSES[30])
        return network, blocklist

    def test_batched_matches_unbatched_accounting(self, scenario):
        network, blocklist = scenario
        unbatched = sweep_port(
            network,
            PORT,
            _rng(),
            blocklist=blocklist,
            extra_candidates=60,
        )

        # Re-probe the identical candidate stream batch-by-batch, the
        # way executor workers do, and require identical totals.
        # (candidate_batches derives its own f"sweep-{port}" substream
        # from the rng it is given, so passing a fresh _rng() walks
        # the exact stream sweep_port consumed.)
        campaign = ScanCampaign(
            network,
            ScannerIdentity(client_identity=None),
            _rng(),
            blocklist=blocklist,
        )
        probed = excluded = opens = 0
        for index, batch in enumerate(
            candidate_batches(
                network, PORT, _rng(), extra_candidates=60, batch_size=8
            )
        ):
            outcome = campaign._probe_batch(
                ProbeBatchTask(index, PORT, tuple(batch))
            )
            probed += outcome.probed
            excluded += outcome.excluded
            opens += len(outcome.open_addresses)

        assert probed == unbatched.probed
        assert excluded == unbatched.excluded
        assert opens == unbatched.open_count
        assert excluded > 0, "scenario must actually exercise exclusion"

    def test_full_campaign_accounting_matches_sweep_port(self, scenario):
        """End-to-end: snapshot counters equal the standalone sweep's,
        for the serial and a pooled backend alike."""
        from repro.scanner.executor import build_executor

        network, blocklist = scenario
        unbatched = sweep_port(
            network,
            PORT,
            _rng().substream("sweep-2020-08-30"),
            blocklist=blocklist,
            extra_candidates=60,
        )
        for backend, workers in (("serial", 1), ("thread", 4)):
            campaign = ScanCampaign(
                network,
                ScannerIdentity(client_identity=None),
                _rng(),
                blocklist=blocklist,
                executor=build_executor(backend, workers),
            )
            snapshot = campaign.run_sweep(
                label="2020-08-30",
                extra_candidates=60,
                traverse=False,
                batch_size=8,
            )
            assert snapshot.probed == unbatched.probed
            assert snapshot.excluded == unbatched.excluded
            assert snapshot.port_open == unbatched.open_count
