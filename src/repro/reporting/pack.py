"""DOI-ready study packs: sealed, self-verifying result bundles.

``repro pack KEY --out bundle/`` exports everything a reader of the
paper reproduction needs to check — or re-derive — one stored study,
without access to the store that produced it:

* ``study.json`` — the run-registry row: config, spec summary, sweep
  digests, shard-merge provenance;
* ``analysis.json`` — the full canonical
  :class:`~repro.analysis.pipeline.AnalysisReport` JSON plus its
  cross-backend digest;
* ``summary.txt`` and ``tables/<experiment>.txt`` — the rendered
  headline report and every regenerable paper artifact (figures and
  tables as the experiment registry prints them);
* ``environment.json`` — interpreter/platform snapshot (provenance
  only; results are platform-independent by construction);
* ``reproduce.sh`` — a script that re-runs the study from scratch and
  asserts the stored content digest;
* ``MANIFEST.json`` — a SHA-256 entry for every artifact, sealed with
  a digest over its own canonical JSON (the same idiom as the shard
  merge manifest, :func:`repro.scanner.shard.build_merge_manifest`).

:func:`verify_pack` re-checks the seal and every artifact hash, so
tampering with any byte of a published bundle — or with the manifest
itself — is detected:

    >>> import tempfile
    >>> from pathlib import Path
    >>> from repro.core.config import StudyConfig
    >>> from repro.dataset.catalog import StudyCatalog
    >>> from repro.dataset.store import StudyStore
    >>> from repro.deployments.spec import PopulationSpec
    >>> from repro.scanner.records import HostRecord, MeasurementSnapshot
    >>> store = StudyStore(tempfile.mkdtemp())
    >>> sweep = MeasurementSnapshot(date="2020-07-06", records=[
    ...     HostRecord(ip=1, port=4840, asn=None, timestamp="2020-07-06",
    ...                tcp_open=True, is_opcua=True)])
    >>> key = store.save(StudyConfig(seed=1), PopulationSpec(), [sweep])
    >>> out = Path(tempfile.mkdtemp()) / "bundle"
    >>> pack = write_pack(StudyCatalog(store), key, out)
    >>> sorted(p.name for p in out.iterdir())[:3]
    ['MANIFEST.json', 'analysis.json', 'environment.json']
    >>> verify_pack(out)["study_key"] == key
    True
    >>> _ = (out / "analysis.json").write_text("{}")
    >>> try:
    ...     verify_pack(out)
    ... except PackIntegrityError as exc:
    ...     print(str(exc).split(":")[0])
    pack artifact analysis.json
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path

from repro.core.golden import canonical_json

#: Version of the pack layout; bump when artifact names or manifest
#: shape change so old bundles fail loudly instead of misreading.
PACK_SCHEMA = 1

MANIFEST_FILE = "MANIFEST.json"


class PackIntegrityError(RuntimeError):
    """A pack exists but its seal or an artifact hash does not verify."""


def _seal(manifest: dict) -> dict:
    """Seal a manifest with a digest over its own canonical JSON."""
    manifest = dict(manifest)
    manifest.pop("manifest_digest", None)
    manifest["manifest_digest"] = hashlib.sha256(
        canonical_json(manifest).encode("utf-8")
    ).hexdigest()
    return manifest


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment_snapshot() -> dict:
    """Interpreter and platform provenance for the bundle.

    Recorded for the record, not for the result: every digest in the
    bundle is a pure function of the study inputs, so a different
    machine reproducing the study must land on the same digests.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
    }


def _reproduce_script(key: str, seed: int, digest: str) -> str:
    return f"""#!/bin/sh
# Reproduce study {key}
# from scratch and assert its content digest.  Requires the repro
# package on PYTHONPATH; writes into a fresh temporary store unless
# REPRO_STUDY_STORE is set.
set -eu
STORE="${{REPRO_STUDY_STORE:-$(mktemp -d)}}"
python -m repro.cli study --seed {seed} --store "$STORE"
python - "$STORE" <<'CHECK'
import sys
from repro.dataset.catalog import StudyCatalog

catalog = StudyCatalog.open(sys.argv[1])
info = catalog.describe("{key}")
assert info.digest == "{digest}", (
    "digest mismatch: " + info.digest)
print("reproduced OK:", info.digest)
CHECK
"""


def write_pack(
    catalog,
    key: str,
    out_dir: str | Path,
    *,
    executor: str = "serial",
    workers: int = 1,
) -> dict:
    """Export one stored study as a sealed bundle; returns the manifest.

    ``executor``/``workers`` select the
    :class:`~repro.scanner.executor.ScanExecutor` backend the analysis
    registry fans out through — the resulting ``analysis.json`` bytes
    are backend-independent (that equivalence is what its recorded
    digest pins).
    """
    from repro.core.experiments import EXPERIMENTS, run_experiment
    from repro.reporting.summary import render_analysis_report

    info = catalog.describe(key)
    result = catalog.result_for(key)
    report = result.run_analyses(executor=executor, workers=workers)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "tables").mkdir(exist_ok=True)

    artifacts: dict[str, dict] = {}

    def write(name: str, text: str) -> None:
        data = text.encode("utf-8")
        (out / name).write_bytes(data)
        artifacts[name] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }

    from repro.analysis.pipeline import AnalysisReport, jsonify

    write(
        "study.json",
        canonical_json(
            {
                "schema": PACK_SCHEMA,
                "run": jsonify(info),
            }
        )
        + "\n",
    )
    report_json = report.to_json_dict()
    analysis_digest = AnalysisReport.json_digest(report_json)
    write(
        "analysis.json",
        canonical_json({"report": report_json, "digest": analysis_digest})
        + "\n",
    )
    write("summary.txt", render_analysis_report(report) + "\n")
    skipped = []
    for experiment_id in EXPERIMENTS:
        try:
            rendered = run_experiment(experiment_id, result).render()
        except Exception as exc:  # noqa: BLE001 — a reduced-population
            # study cannot regenerate spec-dependent experiments; the
            # bundle records the gap instead of failing the export.
            skipped.append(experiment_id)
            rendered = f"(not regenerable for this study: {exc})"
        write(f"tables/{experiment_id}.txt", rendered + "\n")
    write(
        "environment.json",
        canonical_json(environment_snapshot()) + "\n",
    )
    write(
        "reproduce.sh",
        _reproduce_script(key, info.seed, info.digest),
    )
    (out / "reproduce.sh").chmod(0o755)

    manifest = _seal(
        {
            "kind": "repro-study-pack",
            "schema": PACK_SCHEMA,
            "study_key": key,
            "study_digest": info.digest,
            "analysis_digest": analysis_digest,
            "skipped_experiments": skipped,
            "artifacts": dict(sorted(artifacts.items())),
        }
    )
    (out / MANIFEST_FILE).write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def verify_pack(bundle_dir: str | Path) -> dict:
    """Re-verify a pack's seal and every artifact hash.

    Returns the verified manifest.  Raises
    :class:`PackIntegrityError` when the manifest was edited (seal
    mismatch), an artifact is missing, or any artifact's bytes drifted
    from the recorded SHA-256.
    """
    bundle = Path(bundle_dir)
    path = bundle / MANIFEST_FILE
    if not path.exists():
        raise PackIntegrityError(f"no {MANIFEST_FILE} under {bundle}")
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise PackIntegrityError(
            f"{MANIFEST_FILE} is not valid JSON ({exc})"
        ) from None
    recorded_seal = manifest.get("manifest_digest")
    if _seal(manifest).get("manifest_digest") != recorded_seal:
        raise PackIntegrityError(
            "manifest seal mismatch — MANIFEST.json was modified after "
            "sealing"
        )
    for name, entry in manifest.get("artifacts", {}).items():
        artifact = bundle / name
        if not artifact.exists():
            raise PackIntegrityError(f"pack artifact {name} is missing")
        if _sha256_file(artifact) != entry.get("sha256"):
            raise PackIntegrityError(
                f"pack artifact {name}: sha256 mismatch — the bundle "
                "was modified after sealing"
            )
    return manifest
