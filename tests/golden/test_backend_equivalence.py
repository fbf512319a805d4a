"""Cross-backend equivalence matrix: serial == thread == process.

Every executor backend must reproduce the committed golden digests
bit-for-bit on the tiny-spec study.  This replaces the full-study
benchmark as the PR-gating guarantee — the benchmark still runs on
main, but a backend divergence now fails in the fast tier.

Worker counts are deliberately larger than the batch count is wide:
with ``TINY_BATCH_SIZE`` (16) candidates per stage-0 task the tiny
sweep spans ~10 probe batches, so pools genuinely interleave probing
and grabbing rather than degenerating into serial execution.
"""

from __future__ import annotations

import pytest

from repro.core.golden import run_tiny_study, study_digest, study_digests

pytestmark = pytest.mark.golden

BACKENDS = [
    pytest.param("thread", 4, id="thread"),
    pytest.param("process", 4, id="process"),
]


@pytest.mark.parametrize("backend,workers", BACKENDS)
def test_backend_matches_serial_reference(
    backend, workers, serial_tiny_result, committed_digests
):
    result = run_tiny_study(backend, workers)
    per_sweep = study_digests(result)
    assert per_sweep == study_digests(serial_tiny_result), (
        f"{backend} backend diverged from the serial reference"
    )
    # ... and from the committed goldens, so a bug that breaks serial
    # and a parallel backend identically still cannot slip through.
    assert per_sweep == committed_digests["per_sweep"]
    assert study_digest(result) == committed_digests["digest"]
