"""Regenerate the committed golden digests (serial reference runs).

Usage::

    PYTHONPATH=src python tests/golden/regenerate.py

Writes ``tiny_study.digest.json`` (the None-only population),
``negotiated.digest.json`` (the secure-endpoint population whose
records carry the ``negotiated_*`` session fields),
``anomalies.digest.json`` (the hostile device-zoo population), and
``analysis.digest.json`` (the :class:`AnalysisReport` of each of the
three studies, plus the :class:`StudyDiff` between the tiny study at
seeds 20200830 and 7).

Only run this after an *intentional* determinism change (new record
field, RNG re-keying, population change) and commit the refreshed
digests together with the change that explains it.  A diff here
without an explanation is exactly the regression the golden tests
exist to catch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
DIGEST_PATH = Path(__file__).resolve().parent / "tiny_study.digest.json"
NEGOTIATED_PATH = Path(__file__).resolve().parent / "negotiated.digest.json"
ANOMALIES_PATH = Path(__file__).resolve().parent / "anomalies.digest.json"
ANALYSIS_PATH = Path(__file__).resolve().parent / "analysis.digest.json"

#: The second seed of the pinned diff (the first is the golden seed).
DIFF_SEED = 7

for entry in (str(REPO_ROOT / "src"),):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import os  # noqa: E402

os.environ.setdefault("REPRO_KEYCACHE", str(REPO_ROOT / ".keycache"))

from repro.analysis.diff import diff_summaries, summarize_stream  # noqa: E402
from repro.analysis.pipeline import run_analyses  # noqa: E402
from repro.core.golden import (  # noqa: E402
    TINY_BATCH_SIZE,
    TINY_SECURE_ROW_IDS,
    TINY_SPEC_ROWS,
    run_tiny_hostile_study,
    run_tiny_secure_study,
    run_tiny_study,
    study_digest,
    study_digests,
    tiny_hostile_spec,
    tiny_secure_spec,
    tiny_spec,
)


def report_digest(result, spec) -> str:
    """Digest of the full analysis registry over one study."""
    return run_analyses(
        result.snapshots, spec, seed=result.config.seed
    ).digest()


def diff_digest(earlier, later) -> str:
    """Digest of the diff between two studies, labelled a and b."""
    return diff_summaries(
        summarize_stream(earlier.snapshots, label="a"),
        summarize_stream(later.snapshots, label="b"),
    ).digest()


def main() -> int:
    result = run_tiny_study()
    payload = {
        "_comment": (
            "Golden digests of the tiny-spec serial study. Regenerate "
            "with: PYTHONPATH=src python tests/golden/regenerate.py"
        ),
        "seed": result.config.seed,
        "spec_rows": TINY_SPEC_ROWS,
        "servers": tiny_spec().total_servers,
        "probe_batch_size": TINY_BATCH_SIZE,
        "digest": study_digest(result),
        "per_sweep": study_digests(result),
    }
    DIGEST_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {DIGEST_PATH}")
    print(f"study digest: {payload['digest']}")

    secure = run_tiny_secure_study()
    secure_payload = {
        "_comment": (
            "Golden digests of the negotiated-security serial study "
            "(secure-endpoint rows only). Regenerate with: "
            "PYTHONPATH=src python tests/golden/regenerate.py"
        ),
        "seed": secure.config.seed,
        "spec_rows": list(TINY_SECURE_ROW_IDS),
        "servers": tiny_secure_spec().total_servers,
        "probe_batch_size": TINY_BATCH_SIZE,
        "digest": study_digest(secure),
        "per_sweep": study_digests(secure),
    }
    NEGOTIATED_PATH.write_text(json.dumps(secure_payload, indent=2) + "\n")
    print(f"wrote {NEGOTIATED_PATH}")
    print(f"negotiated study digest: {secure_payload['digest']}")

    hostile = run_tiny_hostile_study()
    hostile_payload = {
        "_comment": (
            "Golden digests of the hostile device-zoo serial study "
            "(one spec row per personality plus controls). Regenerate "
            "with: PYTHONPATH=src python tests/golden/regenerate.py"
        ),
        "seed": hostile.config.seed,
        "spec_rows": [row.row_id for row in tiny_hostile_spec().rows],
        "servers": tiny_hostile_spec().total_servers,
        "probe_batch_size": TINY_BATCH_SIZE,
        "digest": study_digest(hostile),
        "per_sweep": study_digests(hostile),
    }
    ANOMALIES_PATH.write_text(json.dumps(hostile_payload, indent=2) + "\n")
    print(f"wrote {ANOMALIES_PATH}")
    print(f"hostile study digest: {hostile_payload['digest']}")

    analysis_payload = {
        "_comment": (
            "Digests of run_analyses(snapshots, spec, seed=seed) over "
            "each golden study, and of diff_summaries between the tiny "
            "study at seeds 20200830 and 7 (labels a and b). "
            "Regenerate with: "
            "PYTHONPATH=src python tests/golden/regenerate.py"
        ),
        "reports": {
            "tiny": report_digest(result, tiny_spec()),
            "negotiated": report_digest(secure, tiny_secure_spec()),
            "hostile": report_digest(hostile, tiny_hostile_spec()),
        },
        "diff": {
            "seeds": [result.config.seed, DIFF_SEED],
            "digest": diff_digest(result, run_tiny_study(seed=DIFF_SEED)),
        },
    }
    ANALYSIS_PATH.write_text(json.dumps(analysis_payload, indent=2) + "\n")
    print(f"wrote {ANALYSIS_PATH}")
    print(f"tiny-study diff digest: {analysis_payload['diff']['digest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
