"""The hostile capture corpus replays to its pinned digest.

Device-zoo personalities over the real-socket lane: a junk HTTP
banner, a mid-handshake drop around a live engine, and an engine
serving an expired certificate were recorded once over loopback
(``regenerate_hostile.py``); every CI run re-drives the full client
stack from that recording.  This proves the hostile wrappers behave
identically over real TCP and capture/replay — not just on the
simulated network the golden studies pin.
"""

from __future__ import annotations

import pytest

from repro.core.golden import snapshot_digest
from repro.scanner.executor import build_executor
from repro.util.simtime import parse_utc

from tests.replay.fixture import LABEL
from tests.replay.hostile_fixture import (
    HOSTILE_PERSONALITIES,
    replay_hostile_campaign,
)

pytestmark = pytest.mark.golden


def test_corpus_matches_committed_content_digest(
    committed_hostile_corpus, committed_hostile_digests
):
    assert (
        committed_hostile_corpus.digest()
        == committed_hostile_digests["corpus_digest"]
    )
    assert (
        len(committed_hostile_corpus.targets)
        == committed_hostile_digests["targets"]
    )
    assert committed_hostile_digests["personalities"] == list(
        HOSTILE_PERSONALITIES
    )


def test_serial_replay_matches_committed_digest(
    committed_hostile_corpus, committed_hostile_digests, rsa_1024
):
    snapshot = replay_hostile_campaign(
        committed_hostile_corpus, rsa_1024
    ).run()
    assert snapshot.date == LABEL
    assert (
        snapshot_digest(snapshot) == committed_hostile_digests["digest"]
    )


def test_replay_covers_all_three_pathologies(
    committed_hostile_corpus, rsa_1024
):
    """Junk banner, mid-handshake drop, expired cert — keep all three."""
    snapshot = replay_hostile_campaign(
        committed_hostile_corpus, rsa_1024
    ).run()
    assert len(snapshot.records) == 3
    by_outcome = {
        (record.tcp_open, record.is_opcua): record
        for record in snapshot.records
    }
    # The junk banner and the drop both answered without completing
    # the handshake; the expired-cert engine scanned fully.
    assert set(by_outcome) == {(True, False), (True, True)}

    junk_or_drop = [r for r in snapshot.records if not r.is_opcua]
    assert len(junk_or_drop) == 2
    categories = {r.error_category for r in junk_or_drop}
    # The banner is a protocol outcome (no connection category); the
    # drop is a vanished peer.
    assert categories == {None, "closed"}

    legacy = by_outcome[(True, True)]
    assert legacy.certificate is not None
    expiry = parse_utc(legacy.certificate.not_after)
    assert expiry < parse_utc(LABEL)  # expired at scan time
    assert legacy.session is not None and legacy.session.success


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_parallel_replay_is_byte_identical(
    committed_hostile_corpus, committed_hostile_digests, rsa_1024, backend
):
    executor = build_executor(backend, 4)
    snapshot = replay_hostile_campaign(
        committed_hostile_corpus, rsa_1024, executor=executor
    ).run()
    assert (
        snapshot_digest(snapshot) == committed_hostile_digests["digest"]
    )
