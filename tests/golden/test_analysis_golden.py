"""Analysis golden digests: what the registry says about each study.

The scan digests pin what a golden study *holds*; these pin what the
analyses *report* about it.  ``test_pipeline.py`` only compares
executor backends with each other, so an analysis change that moved a
result would pass there; here the :class:`AnalysisReport` of each of
the three golden studies, and the :class:`StudyDiff` between the tiny
study at two seeds, must match ``analysis.digest.json``.

If a mismatch is *intentional*, regenerate via
``PYTHONPATH=src python tests/golden/regenerate.py`` and justify the
refreshed digests in the same change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.diff import diff_summaries, summarize_stream
from repro.analysis.pipeline import run_analyses
from repro.core.golden import (
    run_tiny_study,
    tiny_hostile_spec,
    tiny_secure_spec,
    tiny_spec,
)

pytestmark = pytest.mark.golden

ANALYSIS_PATH = Path(__file__).resolve().parent / "analysis.digest.json"


@pytest.fixture(scope="module")
def analysis_digests() -> dict:
    return json.loads(ANALYSIS_PATH.read_text())


@pytest.mark.parametrize(
    "name, fixture, spec",
    [
        ("tiny", "serial_tiny_result", tiny_spec),
        ("negotiated", "golden_secure_result", tiny_secure_spec),
        ("hostile", "golden_hostile_result", tiny_hostile_spec),
    ],
)
def test_report_matches_committed_digest(
    request, analysis_digests, name, fixture, spec
):
    result = request.getfixturevalue(fixture)
    report = run_analyses(result.snapshots, spec(), seed=result.config.seed)
    assert report.digest() == analysis_digests["reports"][name]


def test_tiny_study_diff_matches_committed_digest(
    serial_tiny_result, analysis_digests
):
    first, second = analysis_digests["diff"]["seeds"]
    assert first == serial_tiny_result.config.seed
    later = run_tiny_study(seed=second)
    diff = diff_summaries(
        summarize_stream(serial_tiny_result.snapshots, label="a"),
        summarize_stream(later.snapshots, label="b"),
    )
    assert diff.digest() == analysis_digests["diff"]["digest"]
