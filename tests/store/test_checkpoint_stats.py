"""Checkpointed statistics: golden bytes, compat, and corruption guards.

The stats-carrying checkpoint layout adds exactly one file
(``statistics.json``) and two manifest keys (``stats_mode``,
``stats_sha256``); everything else — including the bytes of a stats-off
checkpoint — is what the stats-free golden fixture pins.  Both layouts
have a format-1 fixture (a load fixture, written before format 2) and a
format-2 one.  These tests cover both directions of compatibility plus
every new corruption mode the loader guards against.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.inference.kernel import accumulate_partition
from repro.inference.statistics import StatsBundle
from repro.store.checkpoint import (
    DIGEST_FILE,
    DISTINCT_FILE,
    MANIFEST_FILE,
    SCHEMA_FILE,
    STATS_FILE,
    CheckpointCorruptError,
    load_checkpoint,
    load_manifest,
    merge_checkpoints,
    save_checkpoint,
)

GOLDEN_ROOT = Path(__file__).resolve().parent.parent / "golden"
#: Format-1 load fixtures.
GOLDEN_PLAIN = GOLDEN_ROOT / "checkpoint"
GOLDEN_STATS = GOLDEN_ROOT / "checkpoint_stats"
#: What a save writes today (format 2).
GOLDEN_PLAIN_2 = GOLDEN_ROOT / "checkpoint_format2"
GOLDEN_STATS_2 = GOLDEN_ROOT / "checkpoint_stats_format2"

RECORDS = [
    {"a": 1, "b": "x"},
    {"a": 2.5, "b": "y", "c": [1, 2]},
    {"a": None},
]


def stats_summary(records=RECORDS, mode="sketches"):
    return accumulate_partition(records, stats_mode=mode)


class TestGoldenStatsCheckpoint:
    """Byte-level pin of the stats-carrying layout.

    Same regeneration protocol as the plain golden checkpoint: an
    intentional format change means bumping ``FORMAT_VERSION`` or
    ``STATS_BYTES_VERSION`` and re-running
    ``PYTHONPATH=src python tests/store/regen_golden.py``.
    """

    def test_fixed_corpus_matches_golden_bytes(self, tmp_path):
        from tests.conftest import make_corpus

        summary = accumulate_partition(make_corpus(64, seed=7),
                                       stats_mode="sketches")
        save_checkpoint(tmp_path / "g", summary)
        for name in (MANIFEST_FILE, SCHEMA_FILE, DIGEST_FILE, STATS_FILE):
            assert (tmp_path / "g" / name).read_bytes() == (
                GOLDEN_STATS_2 / name
            ).read_bytes(), f"{name} drifted from the golden stats checkpoint"

    def test_golden_stats_checkpoint_loads(self):
        for golden in (GOLDEN_STATS, GOLDEN_STATS_2):
            loaded = load_checkpoint(golden)
            assert loaded.record_count == 64
            bundle = loaded.summary.stats
            assert bundle is not None
            assert bundle.mode == "sketches"
            assert bundle.record_count == 64

    def test_schema_bytes_identical_to_stats_free_golden(self):
        # Statistics are additive: schema and distinct-set files carry
        # the same bytes whether stats were collected or not.
        for stats_dir, plain_dir, distinct_file in (
            (GOLDEN_STATS, GOLDEN_PLAIN, DISTINCT_FILE),
            (GOLDEN_STATS_2, GOLDEN_PLAIN_2, DIGEST_FILE),
        ):
            for name in (SCHEMA_FILE, distinct_file):
                assert (stats_dir / name).read_bytes() == (
                    plain_dir / name
                ).read_bytes()

    def test_manifest_digest_matches_stats_file(self):
        manifest = load_manifest(GOLDEN_STATS)
        assert manifest.stats_mode == "sketches"
        payload = (GOLDEN_STATS / STATS_FILE).read_bytes()
        assert manifest.stats_sha256 == hashlib.sha256(payload).hexdigest()


class TestBackwardCompat:
    def test_pre_stats_golden_still_loads_with_stats_none(self):
        loaded = load_checkpoint(GOLDEN_PLAIN)
        assert loaded.summary.stats is None
        assert loaded.manifest.stats_mode is None
        assert loaded.manifest.stats_sha256 is None

    def test_pre_stats_manifest_has_no_stats_keys(self):
        data = json.loads((GOLDEN_PLAIN / MANIFEST_FILE).read_text())
        assert "stats_mode" not in data
        assert "stats_sha256" not in data

    def test_stats_off_save_is_byte_identical_to_pre_stats(self, tmp_path):
        # A stats-off save carries no stats keys and no stats file: its
        # manifest is byte-identical to the stats-free golden one.
        from tests.conftest import make_corpus

        save_checkpoint(tmp_path / "g", accumulate_partition(make_corpus(64, seed=7)))
        assert (tmp_path / "g" / MANIFEST_FILE).read_bytes() == (
            GOLDEN_PLAIN_2 / MANIFEST_FILE
        ).read_bytes()
        data = json.loads((tmp_path / "g" / MANIFEST_FILE).read_text())
        assert "stats_mode" not in data
        assert not (tmp_path / "g" / STATS_FILE).exists()

    def test_loading_then_resaving_preserves_stats_bytes(self, tmp_path):
        loaded = load_checkpoint(GOLDEN_STATS)
        save_checkpoint(tmp_path / "again", loaded.summary)
        assert (tmp_path / "again" / STATS_FILE).read_bytes() == (
            GOLDEN_STATS / STATS_FILE
        ).read_bytes()


class TestStatsCorruptionGuards:
    @pytest.fixture()
    def saved(self, tmp_path):
        directory = tmp_path / "ckpt"
        save_checkpoint(directory, stats_summary())
        return directory

    def test_missing_stats_file_rejected(self, saved):
        (saved / STATS_FILE).unlink()
        with pytest.raises(CheckpointCorruptError, match="statistics"):
            load_checkpoint(saved)

    def test_digest_mismatch_rejected(self, saved):
        payload = (saved / STATS_FILE).read_bytes()
        (saved / STATS_FILE).write_bytes(payload.replace(b"1", b"2", 1))
        with pytest.raises(CheckpointCorruptError, match="digest|sha|statistics"):
            load_checkpoint(saved)

    def test_unparseable_stats_file_rejected(self, saved):
        garbage = b"not statistics\n"
        (saved / STATS_FILE).write_bytes(garbage)
        manifest = json.loads((saved / MANIFEST_FILE).read_text())
        manifest["stats_sha256"] = hashlib.sha256(garbage).hexdigest()
        (saved / MANIFEST_FILE).write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        )
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(saved)

    def test_unpaired_manifest_keys_rejected(self, saved):
        manifest = json.loads((saved / MANIFEST_FILE).read_text())
        del manifest["stats_sha256"]
        (saved / MANIFEST_FILE).write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        )
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(saved)


class TestStatsMergeAlgebra:
    def test_merging_stats_checkpoints_merges_bundles(self, tmp_path):
        a = [{"n": i} for i in range(10)]
        b = [{"n": i} for i in range(10, 30)]
        save_checkpoint(tmp_path / "a", stats_summary(a))
        save_checkpoint(tmp_path / "b", stats_summary(b))
        merged = merge_checkpoints([tmp_path / "a", tmp_path / "b"],
                                   out=tmp_path / "out")
        assert merged.summary.stats is not None
        assert merged.summary.stats == stats_summary(a + b).stats
        reloaded = load_checkpoint(tmp_path / "out")
        assert reloaded.summary.stats == merged.summary.stats

    def test_merge_with_stats_free_checkpoint_scrubs(self, tmp_path):
        save_checkpoint(tmp_path / "a", stats_summary())
        save_checkpoint(tmp_path / "b", accumulate_partition([{"z": 1}]))
        merged = merge_checkpoints([tmp_path / "a", tmp_path / "b"],
                                   out=tmp_path / "out")
        # The bundle no longer covers every merged record, so it is
        # dropped rather than persisted with silent undercoverage.
        assert merged.summary.stats is None
        assert not (tmp_path / "out" / STATS_FILE).exists()
        assert load_manifest(tmp_path / "out").stats_mode is None

    def test_partial_coverage_never_saved(self, tmp_path):
        summary = stats_summary()
        wrong = replace(summary, stats=replace_record_count(summary.stats, 1))
        save_checkpoint(tmp_path / "c", wrong)
        assert not (tmp_path / "c" / STATS_FILE).exists()
        assert load_checkpoint(tmp_path / "c").summary.stats is None


def replace_record_count(bundle: StatsBundle, count: int) -> StatsBundle:
    out = bundle.copy()
    out.record_count = count
    return out
