"""zmap-style TCP port sweep of the simulated IPv4 space.

Like zmap, the sweep honours the opt-out blocklist and reports only
which addresses have the port open — the protocol grab is a separate
stage, exactly as in the paper's zmap → zgrab2 pipeline.  Unlike
zmap, it does not permute its targets: zmap does so that no network
sees a burst of probes, but the simulated lane has no latency or
rate model, and only the candidate *set* reaches a snapshot, never
its order.  The sweep visits the registered hosts, then its random
draws, in the order they were made.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.netsim.blocklist import Blocklist
from repro.netsim.net import SimNetwork
from repro.util.rng import DeterministicRng

#: Candidates are handed to the prober in fixed-size batches — the
#: shape zmap's send thread uses, and what lets a pipelined campaign
#: start grabbing while later batches are still being probed.
DEFAULT_BATCH_SIZE = 256


@dataclass
class PortScanResult:
    """Outcome of one sweep."""

    port: int
    probed: int = 0
    excluded: int = 0
    open_addresses: list[int] = field(default_factory=list)

    @property
    def open_count(self) -> int:
        return len(self.open_addresses)


def candidate_stream(
    network: SimNetwork,
    port: int,
    rng: DeterministicRng,
    extra_candidates: int = 0,
) -> list[int]:
    """The deduplicated probe-candidate stream for one sweep.

    A pure function of the sweep RNG: the registered hosts in
    registration order, then ``extra_candidates`` uniform draws below
    2**32 from the ``sweep-{port}`` substream in draw order,
    deduplicated in first-occurrence order.  There is no shuffle:
    nothing the simulation records depends on the order (see the
    module docstring), and shuffling a million candidates costs more
    than drawing them.  Every consumer — serial batching, the
    pooled executors, :class:`~repro.scanner.shard.ShardSpec` slicing
    — sees the identical stream, which is what makes index-mod
    sharding mergeable: position ``i`` belongs to shard ``i % N``
    regardless of who enumerates it.

    The blocklist is deliberately **not** consulted here: like zmap's
    target generation, candidate generation is blocklist-agnostic, and
    exclusion happens at probe time (``probe_candidates``, or the
    campaign's per-batch workers).  Extra candidates drawn from the
    full 2**32 space may therefore land on excluded addresses — they
    count as ``excluded``, never ``probed``, and the totals are
    identical whether the stream is probed serially or batch-parallel
    (pinned by ``tests/netsim/test_tcpscan_properties.py``).
    """
    candidates = [host.address for host in network.hosts()]
    getrandbits = rng.substream(f"sweep-{port}").getrandbits
    for _ in range(extra_candidates):
        # CPython's uniform draw below 2**32, inlined: 33 random bits,
        # redrawn while bit 32 is set — the same draws at about half
        # the cost of the library call.
        draw = getrandbits(33)
        while draw >> 32:
            draw = getrandbits(33)
        candidates.append(draw)
    # dict.fromkeys dedups in first-occurrence order — the same stream
    # a per-address seen-set loop produces.
    return list(dict.fromkeys(candidates))


def candidate_batches(
    network: SimNetwork,
    port: int,
    rng: DeterministicRng,
    extra_candidates: int = 0,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> Iterator[list[int]]:
    """Yield :func:`candidate_stream` in fixed-size batches.

    Batching changes only the granularity at which the prober consumes
    the stream, never its order or membership.
    """
    unique = candidate_stream(
        network, port, rng, extra_candidates=extra_candidates
    )
    for start in range(0, len(unique), batch_size):
        yield unique[start : start + batch_size]


def probe_candidates(
    network: SimNetwork,
    port: int,
    rng: DeterministicRng,
    blocklist: Blocklist | None = None,
    extra_candidates: int = 0,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> Iterator[tuple[int, str]]:
    """Probe the candidate stream, yielding ``(address, status)``.

    ``status`` is ``"excluded"`` (blocklisted, never probed),
    ``"open"``, or ``"closed"``.  This is the single source of truth
    for sweep accounting: :func:`sweep_port` aggregates it into a
    :class:`PortScanResult`, and the campaign engine feeds the
    ``"open"`` addresses straight into its grab pipeline as they
    appear.
    """
    blocklist = blocklist or Blocklist()
    for batch in candidate_batches(
        network, port, rng, extra_candidates=extra_candidates,
        batch_size=batch_size,
    ):
        for address in batch:
            if address in blocklist:
                yield address, "excluded"
            elif network.syn(address, port):
                yield address, "open"
            else:
                yield address, "closed"


def sweep_port(
    network: SimNetwork,
    port: int,
    rng: DeterministicRng,
    blocklist: Blocklist | None = None,
    extra_candidates: int = 0,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> PortScanResult:
    """Probe every simulated host (plus noise candidates) on ``port``.

    The real zmap probes all 2**32 addresses; the simulation's address
    space is sparse, so the sweep enumerates all registered hosts plus
    ``extra_candidates`` random unpopulated addresses (which exercise
    the "nothing there" path like the real sweep's overwhelming
    majority of probes).
    """
    result = PortScanResult(port=port)
    for address, status in probe_candidates(
        network, port, rng, blocklist=blocklist,
        extra_candidates=extra_candidates, batch_size=batch_size,
    ):
        if status == "excluded":
            result.excluded += 1
            continue
        result.probed += 1
        if status == "open":
            result.open_addresses.append(address)
    result.open_addresses.sort()
    return result
