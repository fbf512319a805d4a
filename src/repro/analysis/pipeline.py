"""Parallel analysis pipeline: registry, fan-out, merged report.

Every analysis the reproduction performs (§5 and Appendix B of the
paper) is registered here as a *pure task* over ``(snapshots, spec,
seed)`` — no network, no ground truth, no shared mutable state.  That
purity is what lets the tasks fan out through the same
:class:`~repro.scanner.executor.ScanExecutor` backends the scan engine
uses (serial / thread / fork-process): a fork worker computing the
certificate-reuse groups cannot perturb the longitudinal statistics
computed next to it, so every backend produces the same
:class:`AnalysisReport` — pinned, like the scan layer, by a canonical
JSON digest.

The registry is also the de-duplication point for the experiment
layer: :meth:`~repro.core.study.StudyResult.analysis` memoizes each
task's output per study, so ``fig2`` and ``sec55`` share one
longitudinal pass instead of re-deriving it, and ``repro analyze``
can regenerate everything from a stored study without scanning.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.access import analyze_access_control
from repro.analysis.anomalies import analyze_anomalies
from repro.analysis.breakdown import analyze_deficit_breakdown
from repro.analysis.certs import analyze_certificate_conformance
from repro.analysis.deficits import analyze_deficits
from repro.analysis.ipv6 import analyze_dual_stack_sample
from repro.analysis.longitudinal import analyze_longitudinal
from repro.analysis.modes import analyze_security_modes
from repro.analysis.negotiation import analyze_negotiated_security
from repro.analysis.policies import analyze_security_policies
from repro.analysis.reuse import analyze_certificate_reuse
from repro.analysis.rights import analyze_access_rights
from repro.deployments.spec import PopulationSpec
from repro.scanner.executor import build_executor
from repro.scanner.records import MeasurementSnapshot


@dataclass
class AnalysisContext:
    """Everything a registered analysis may read.  Nothing else."""

    snapshots: list[MeasurementSnapshot]
    spec: PopulationSpec | None
    seed: int
    _final_servers: list | None = field(default=None, repr=False)

    @property
    def final_snapshot(self) -> MeasurementSnapshot:
        return self.snapshots[-1]

    @property
    def final_servers(self) -> list:
        if self._final_servers is None:
            self._final_servers = self.final_snapshot.servers()
        return self._final_servers


AnalysisFn = Callable[[AnalysisContext], object]

#: name → task, in canonical report order.  Insertion order here *is*
#: the merge order of the report, independent of completion order.
ANALYSES: dict[str, AnalysisFn] = {
    "modes": lambda ctx: analyze_security_modes(ctx.final_servers),
    "policies": lambda ctx: analyze_security_policies(ctx.final_servers),
    "negotiated": lambda ctx: analyze_negotiated_security(ctx.final_servers),
    "certs": lambda ctx: analyze_certificate_conformance(ctx.final_servers),
    "reuse": lambda ctx: analyze_certificate_reuse(ctx.final_servers),
    "access": lambda ctx: analyze_access_control(ctx.final_servers),
    "rights": lambda ctx: analyze_access_rights(ctx.final_servers),
    "deficits": lambda ctx: analyze_deficits(ctx.final_servers),
    "breakdown": lambda ctx: analyze_deficit_breakdown(ctx.final_servers),
    "longitudinal": lambda ctx: analyze_longitudinal(ctx.snapshots),
    "ipv6": lambda ctx: analyze_dual_stack_sample(
        ctx.final_servers, ctx.seed
    ),
    "anomalies": lambda ctx: analyze_anomalies(ctx.snapshots, ctx.spec),
}

ANALYSIS_NAMES: tuple[str, ...] = tuple(ANALYSES)


@dataclass(frozen=True)
class AnalysisTask:
    """One registry entry as a :class:`ScanExecutor` work item."""

    name: str

    stage = 1

    @property
    def key(self) -> tuple[str, str]:
        return ("analysis", self.name)


def jsonify(value):
    """Canonical plain-JSON form of any analysis result object.

    * dataclasses → ``{field: …}`` in field order;
    * dicts → string keys (tuples joined with ``+``), sorted;
    * sets → sorted lists; tuples → lists; enums → their values.

    This is the serialization the cross-backend digest pins, so it
    must stay total over everything the registry can return.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonify(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if not f.name.startswith("_")
        }
    if isinstance(value, enum.Enum):
        return jsonify(value.value)
    if isinstance(value, dict):
        items = [(_key_str(k), jsonify(v)) for k, v in value.items()]
        return dict(sorted(items))
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonify(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"analysis result of type {type(value).__name__} is not "
        "canonically serializable; extend pipeline.jsonify"
    )


def _key_str(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, tuple):
        return "+".join(_key_str(k) for k in key)
    if isinstance(key, enum.Enum):
        return str(key.value)
    return str(key)


@dataclass
class AnalysisReport:
    """The merged output of one pipeline run, canonically ordered.

    Results merge in registry order regardless of which worker
    finished first, and :meth:`digest` hashes the canonical JSON — the
    cross-backend equivalence pin.  The digest is a pure function of
    the contents::

        >>> empty = AnalysisReport(seed=1, sweeps=0)
        >>> empty.names()
        ()
        >>> empty.digest() == AnalysisReport(seed=1, sweeps=0).digest()
        True
        >>> empty.digest() == AnalysisReport(seed=2, sweeps=0).digest()
        False
    """

    seed: int
    sweeps: int
    results: dict[str, object] = field(default_factory=dict)

    def __getitem__(self, name: str):
        return self.results[name]

    def names(self) -> tuple[str, ...]:
        return tuple(self.results)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "sweeps": self.sweeps,
            "analyses": {
                name: jsonify(result)
                for name, result in self.results.items()
            },
        }

    def digest(self) -> str:
        """SHA-256 over the canonical JSON — the backend-equivalence
        pin: serial, thread, and process pipelines must all match."""
        return self.json_digest(self.to_json_dict())

    @staticmethod
    def json_digest(report_json: dict) -> str:
        """:meth:`digest` of the report whose :meth:`to_json_dict` is
        ``report_json`` — for callers that already built it."""
        from repro.core.golden import canonical_json

        material = canonical_json(report_json)
        return hashlib.sha256(material.encode("utf-8")).hexdigest()


def run_analyses(
    snapshots: list[MeasurementSnapshot],
    spec: PopulationSpec | None = None,
    *,
    seed: int,
    executor: str = "serial",
    workers: int = 1,
    names: tuple[str, ...] | None = None,
) -> AnalysisReport:
    """Run the registered analyses, fanned out over an executor backend.

    ``names`` selects a subset (default: the full registry).  Results
    are merged in registry order regardless of which worker finished
    first, so the report — and its digest — is backend-independent.
    """
    selected = ANALYSIS_NAMES if names is None else tuple(names)
    unknown = [name for name in selected if name not in ANALYSES]
    if unknown:
        raise KeyError(
            f"unknown analyses {unknown}; known: {list(ANALYSIS_NAMES)}"
        )
    context = AnalysisContext(snapshots=snapshots, spec=spec, seed=seed)
    pool = build_executor(executor, workers)
    tasks = [AnalysisTask(name) for name in selected]

    def grab(task: AnalysisTask):
        return ANALYSES[task.name](context)

    completed = dict(
        (task.name, result)
        for task, result in pool.run(tasks, grab, lambda task, result: ())
    )
    report = AnalysisReport(seed=seed, sweeps=len(snapshots))
    for name in selected:
        report.results[name] = completed[name]
    return report
