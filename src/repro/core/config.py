"""Study configuration."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StudyConfig:
    """Knobs of a full study run.

    ``noise_hosts`` adds non-OPC UA services on TCP/4840 to each sweep
    (the paper found OPC UA on only 0.5 ‰ of hosts with the port open;
    simulating millions of such hosts is pointless, so a token number
    keeps the code path exercised — documented in DESIGN.md).
    ``traverse_all_sweeps`` enables the address-space traversal on
    every sweep instead of only the last (Figure 7 uses the latest
    measurement, so the default keeps weekly sweeps fast).

    ``executor``/``workers`` select the scan backend (see
    :mod:`repro.scanner.executor`): ``serial`` (the default),
    ``thread``, or ``process``.  Snapshots are bit-identical across
    backends; only wall-clock time changes.

    ``probe_batch_size`` sets how many candidate addresses each SYN
    probe batch (one executor task) covers; ``None`` uses
    :data:`repro.netsim.tcpscan.DEFAULT_BATCH_SIZE`.  Granularity
    only — never affects snapshot bytes.

    ``discovery_scale`` shrinks the weekly discovery-server fleet
    proportionally (1.0 = the paper's counts).  Reduced-population
    studies — the golden-digest tests scan a handful of spec rows —
    use it so the fleet does not dwarf the servers under test.

    The config is frozen; derive variants with :func:`dataclasses.replace`::

        >>> from dataclasses import replace
        >>> config = StudyConfig()
        >>> config.seed, config.executor
        (20200830, 'serial')
        >>> replace(config, executor="process", workers=4).workers
        4
        >>> config.workers  # the original is untouched
        1
    """

    seed: int = 20200830
    noise_hosts: int = 40
    traverse_all_sweeps: bool = False
    follow_references_from_sweep: int = 3  # 2020-05-04, as in the paper
    extra_sweep_candidates: int = 500  # random empty addresses probed
    executor: str = "serial"
    workers: int = 1
    probe_batch_size: int | None = None
    discovery_scale: float = 1.0
