"""The committed corpora still match what the live lane records.

The digest tests replay the committed corpora; they cannot see a live
transport that has since started recording something else.  Here both
fixture scans are re-recorded over real loopback sockets and their
records compared with the committed corpora's replayed records, minus
what differs between two recordings by construction: the fields
``tests/scanner/test_live_scan.py`` treats as volatile, and the
ephemeral port a refused connect names in its error.  A failure means
a transport change altered what the live lane records, and the corpora
are stale.
"""

from __future__ import annotations

import json
import re

import pytest

from tests.replay.fixture import record_fixture_corpus, replay_campaign
from tests.replay.hostile_fixture import (
    record_hostile_corpus,
    replay_hostile_campaign,
)
from tests.scanner.test_live_scan import _VOLATILE

_LOOPBACK_PORT = re.compile(r"(?<=127\.0\.0\.1:)\d+")


def _comparable(snapshot) -> list[str]:
    """Records without their volatile fields, in an order that does
    not depend on which ephemeral ports the targets got."""
    records = []
    for record in snapshot.records:
        data = record.to_json_dict()
        for key in _VOLATILE:
            data.pop(key, None)
        if data.get("error"):
            data["error"] = _LOOPBACK_PORT.sub("PORT", data["error"])
        records.append(json.dumps(data, sort_keys=True))
    return sorted(records)


@pytest.mark.parametrize(
    "record, replay, committed",
    [
        (record_fixture_corpus, replay_campaign, "committed_corpus"),
        (
            record_hostile_corpus,
            replay_hostile_campaign,
            "committed_hostile_corpus",
        ),
    ],
    ids=["fixture", "hostile"],
)
def test_live_lane_records_what_the_committed_corpus_holds(
    record, replay, committed, rsa_1024, request
):
    _, live_snapshot = record(rsa_1024)
    corpus = request.getfixturevalue(committed)
    committed_snapshot = replay(corpus, rsa_1024).run()
    assert _comparable(live_snapshot) == _comparable(committed_snapshot)
