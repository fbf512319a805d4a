"""End-to-end CLI coverage for the read-side verbs: runs, diff, pack.

These drive ``repro.cli.main`` exactly as the shipped entry point does,
against a real on-disk store, so they pin the full user journey the
redesign sells: list stored runs, diff two of them, export a sealed
bundle, and re-verify it.
"""

from __future__ import annotations

import gzip
import json
import shutil

import pytest

from repro.cli import main
from repro.core.config import StudyConfig
from repro.dataset.store import StudyStore
from repro.deployments.spec import PopulationSpec
from tests.dataset.test_catalog import study


@pytest.fixture(scope="module")
def populated_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("clistore") / "store"
    store = StudyStore(root)
    key_a = store.save(
        StudyConfig(seed=1), PopulationSpec(), study(["2020-07-06"], range(1, 10))
    )
    key_b = store.save(
        StudyConfig(seed=2), PopulationSpec(), study(["2020-08-30"], range(5, 15))
    )
    return root, key_a, key_b


class TestRuns:
    def test_runs_lists_both_studies(self, populated_store, capsys):
        root, key_a, key_b = populated_store
        assert main(["runs", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert key_a in out and key_b in out
        assert "Stored studies (2)" in out
        assert "registry digest:" in out

    def test_runs_key_describes_one_study(self, populated_store, capsys):
        root, key_a, _ = populated_store
        assert main(["runs", "--store", str(root), "--key", key_a]) == 0
        out = capsys.readouterr().out
        assert f"key:      {key_a}" in out
        assert "seed:     1" in out
        assert "sweeps:   1 (2020-07-06)" in out

    def test_runs_unknown_key_exits_with_hint(self, populated_store):
        root, *_ = populated_store
        with pytest.raises(SystemExit, match="no stored study"):
            main(["runs", "--store", str(root), "--key", "f" * 64])

    def test_runs_without_store_exits_with_hint(self, monkeypatch):
        monkeypatch.delenv("REPRO_STUDY_STORE", raising=False)
        with pytest.raises(
            SystemExit, match="pass --store DIR or set REPRO_STUDY_STORE"
        ):
            main(["runs"])


class TestDiff:
    def test_diff_renders_churn_and_digest(self, populated_store, capsys):
        root, key_a, key_b = populated_store
        assert main(["diff", key_a, key_b, "--store", str(root)]) == 0
        out = capsys.readouterr().out
        # range(1, 10) -> range(5, 15): 4 vanish, 5 appear, 5 persist.
        assert "appeared 5, disappeared 4" in out
        assert "diff digest:" in out

    def test_diff_json_payload_is_canonical(
        self, populated_store, capsys, tmp_path
    ):
        root, key_a, key_b = populated_store
        path = tmp_path / "diff.json"
        assert (
            main(["diff", key_a, key_b, "--store", str(root),
                  "--json", str(path)]) == 0
        )
        out = capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["label_a"] == key_a
        assert payload["label_b"] == key_b
        assert len(payload["appeared"]) == 5
        assert payload["digest"] in out

    def test_diff_unknown_key_exits_before_fanout(self, populated_store):
        root, key_a, _ = populated_store
        with pytest.raises(SystemExit, match="no stored study"):
            main(["diff", key_a, "0" * 64, "--store", str(root)])


class TestPackRoundTrip:
    def test_pack_then_verify(self, populated_store, capsys, tmp_path):
        root, key_a, _ = populated_store
        out_dir = tmp_path / "bundle"
        assert (
            main(["pack", key_a, "--out", str(out_dir),
                  "--store", str(root)]) == 0
        )
        out = capsys.readouterr().out
        assert "packed" in out
        assert "manifest digest:" in out

        assert main(["pack", key_a, "--out", str(out_dir), "--verify"]) == 0
        verified = capsys.readouterr().out
        assert f"pack OK: study {key_a[:12]}" in verified
        assert "artifacts verified" in verified

    def test_verify_tampered_bundle_exits_nonzero(
        self, populated_store, capsys, tmp_path
    ):
        root, key_a, _ = populated_store
        out_dir = tmp_path / "bundle"
        main(["pack", key_a, "--out", str(out_dir), "--store", str(root)])
        capsys.readouterr()
        (out_dir / "summary.txt").write_text("tampered")
        with pytest.raises(SystemExit, match="sha256 mismatch"):
            main(["pack", key_a, "--out", str(out_dir), "--verify"])

    def test_pack_unknown_key_writes_nothing(
        self, populated_store, tmp_path
    ):
        root, *_ = populated_store
        out_dir = tmp_path / "bundle"
        with pytest.raises(SystemExit, match="no stored study"):
            main(["pack", "9" * 64, "--out", str(out_dir),
                  "--store", str(root)])
        assert not out_dir.exists()


@pytest.fixture()
def corrupt_store(populated_store, tmp_path):
    """A private copy of the populated store whose second study's
    first record line is ``{}``: complete, valid JSON, wrong shape."""
    root, key_a, key_b = populated_store
    copy = tmp_path / "store"
    shutil.copytree(root, copy)
    path = copy / key_b / "snapshots.jsonl.gz"
    lines = gzip.decompress(path.read_bytes()).decode().splitlines()
    lines[1] = "{}"
    path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode()))
    return copy, key_a, key_b


class TestCorruptEntries:
    """A store entry that fails validation ends every read-side verb
    with one ``repro: error:`` line, as an unknown key does."""

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_diff_exits_with_error(self, corrupt_store, executor):
        root, key_a, key_b = corrupt_store
        with pytest.raises(
            SystemExit, match=rf"^repro: error: store entry {key_b}: "
        ):
            main(["diff", key_a, key_b, "--store", str(root),
                  "--executor", executor])

    def test_pack_exits_with_error(self, corrupt_store, tmp_path):
        root, _, key_b = corrupt_store
        with pytest.raises(
            SystemExit, match=rf"^repro: error: store entry {key_b}: "
        ):
            main(["pack", key_b, "--out", str(tmp_path / "bundle"),
                  "--store", str(root)])

    @pytest.mark.parametrize("with_key", [False, True])
    def test_runs_exits_on_non_object_meta(self, corrupt_store, with_key):
        root, _, key_b = corrupt_store
        (root / key_b / "meta.json").write_text("[]")
        argv = ["runs", "--store", str(root)]
        if with_key:
            argv += ["--key", key_b]
        with pytest.raises(
            SystemExit, match=r"^repro: error: .*not an object"
        ):
            main(argv)

    def test_analyze_exits_with_error(self, tmp_path):
        from repro.deployments.spec import build_default_spec

        store = StudyStore(tmp_path / "store")
        key = store.save(
            StudyConfig(seed=1),
            build_default_spec(),
            study(["2020-08-30"], range(1, 5)),
        )
        (store.entry_dir(key) / "meta.json").write_text('"x"')
        with pytest.raises(
            SystemExit, match=rf"^repro: error: store entry {key}: "
        ):
            main(["analyze", "--seed", "1", "--store", str(store.root)])

    @pytest.mark.parametrize("content", ["{trunc", "[]"])
    @pytest.mark.parametrize("with_key", [False, True])
    def test_runs_exits_on_corrupt_merge_manifest(
        self, store_copy, content, with_key
    ):
        """A truncated or non-object ``merge.json`` beside an entry is
        an integrity error, not a JSONDecodeError or AttributeError."""
        root, key_a, _ = store_copy
        (root / key_a / "merge.json").write_text(content)
        argv = ["runs", "--store", str(root)]
        if with_key:
            argv += ["--key", key_a]
        with pytest.raises(
            SystemExit,
            match=rf"^repro: error: store entry {key_a}: merge\.json ",
        ):
            main(argv)

    @pytest.mark.parametrize(
        "verb", ["runs", "runs-key", "diff", "pack"]
    )
    @pytest.mark.parametrize(
        "field, value",
        [
            ("config", []),
            ("per_sweep", ["2020-07-06"]),
            ("per_sweep", 5),
            ("digest", 5),
        ],
        ids=["config-array", "per_sweep-array", "per_sweep-number",
             "digest-number"],
    )
    def test_wrong_type_meta_field_exits_with_error(
        self, store_copy, tmp_path, verb, field, value
    ):
        root, key_a, key_b = store_copy
        meta_path = root / key_a / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta[field] = value
        meta_path.write_text(json.dumps(meta))
        argv = {
            "runs": ["runs"],
            "runs-key": ["runs", "--key", key_a],
            "diff": ["diff", key_a, key_b],
            "pack": ["pack", key_a, "--out", str(tmp_path / "bundle")],
        }[verb]
        with pytest.raises(
            SystemExit,
            match=rf"^repro: error: store entry {key_a}: meta\.json "
            rf"field '{field}' is not ",
        ):
            main([*argv, "--store", str(root)])


@pytest.fixture()
def store_copy(populated_store, tmp_path):
    """A private, intact copy of the populated store."""
    root, key_a, key_b = populated_store
    copy = tmp_path / "store"
    shutil.copytree(root, copy)
    return copy, key_a, key_b
