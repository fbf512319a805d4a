"""The committed capture corpus replays to its pinned digest.

This is the replay lane's ``tests/golden``: a real loopback scan —
an OPC UA engine, a junk banner service, a refused port — was
recorded once, and every CI run re-drives the full protocol stack
from that recording.  A digest mismatch means the stack now produces
different records from identical traffic; a :class:`ReplayMismatch`
means it now *sends* different bytes.  Both are regressions (or
intentional changes that must regenerate the fixture — see
``regenerate.py``).
"""

from __future__ import annotations

import pytest

from repro.core.golden import snapshot_digest
from repro.scanner.executor import build_executor

from tests.replay.fixture import LABEL, replay_campaign

pytestmark = pytest.mark.golden


def test_corpus_matches_committed_content_digest(
    committed_corpus, committed_replay_digests
):
    assert (
        committed_corpus.digest()
        == committed_replay_digests["corpus_digest"]
    )
    assert (
        len(committed_corpus.targets)
        == committed_replay_digests["targets"]
    )


def test_serial_replay_matches_committed_digest(
    committed_corpus, committed_replay_digests, rsa_1024
):
    snapshot = replay_campaign(committed_corpus, rsa_1024).run()
    assert snapshot.date == LABEL
    assert snapshot_digest(snapshot) == committed_replay_digests["digest"]


def test_replay_covers_all_three_outcomes(committed_corpus, rsa_1024):
    """The fixture spans success, junk, and refusal — keep it that way."""
    snapshot = replay_campaign(committed_corpus, rsa_1024).run()
    assert len(snapshot.records) == 3
    outcomes = {
        (record.tcp_open, record.is_opcua)
        for record in snapshot.records
    }
    assert outcomes == {(True, True), (True, False), (False, False)}
    accessible = [
        record
        for record in snapshot.records
        if record.anonymous_accessible()
    ]
    assert len(accessible) == 1
    assert accessible[0].nodes is not None  # traversal was replayed


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_parallel_replay_is_byte_identical(
    committed_corpus, committed_replay_digests, rsa_1024, backend
):
    """Replay fans out like any campaign; backends must not matter."""
    executor = build_executor(backend, 4)
    snapshot = replay_campaign(
        committed_corpus, rsa_1024, executor=executor
    ).run()
    assert snapshot_digest(snapshot) == committed_replay_digests["digest"]
