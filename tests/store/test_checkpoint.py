"""Unit tests for the on-disk checkpoint format (repro.store.checkpoint).

Covers the durable-format contract: round-trips, validation of every
corruption mode the loader guards against, byte-determinism (pinned by a
golden fixture in ``tests/golden/checkpoint_format2``), the
empty-dataset (ε) checkpoint, and the merge algebra over checkpoints.
Format 1 compatibility is covered in ``test_cross_version.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.printer import print_type
from repro.core.types import EMPTY, NUM, STR, make_union
from repro.engine.context import Context
from repro.inference.kernel import (
    PartitionSummary,
    accumulate_partition,
)
from repro.inference.pipeline import infer_ndjson_file
from repro.jsonio.ndjson import write_ndjson
from repro.store.checkpoint import (
    DIGEST_FILE,
    FORMAT_VERSION,
    MANIFEST_FILE,
    SCHEMA_FILE,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointNotFoundError,
    build_manifest,
    checkpoint_exists,
    fingerprint_source,
    load_checkpoint,
    load_manifest,
    merge_checkpoints,
    save_checkpoint,
)

RECORDS = [
    {"a": 1, "b": "x"},
    {"a": 2.5, "b": "y", "c": [1, 2]},
    {"a": None},
]


@pytest.fixture()
def summary():
    return accumulate_partition(RECORDS)


@pytest.fixture()
def saved(tmp_path, summary):
    directory = tmp_path / "ckpt"
    save_checkpoint(directory, summary)
    return directory


def rewrite_digests(directory, digest_bytes: bytes) -> None:
    """Replace the digest file and re-sign it in the manifest, so the
    check under test is the one that fires."""
    (directory / DIGEST_FILE).write_bytes(digest_bytes)
    data = json.loads((directory / MANIFEST_FILE).read_text())
    data["distinct_sha256"] = hashlib.sha256(digest_bytes).hexdigest()
    (directory / MANIFEST_FILE).write_text(json.dumps(data))


class TestRoundTrip:
    def test_schema_and_counts_survive(self, saved, summary):
        loaded = load_checkpoint(saved)
        assert loaded.summary.schema == summary.schema
        assert loaded.summary.record_count == summary.record_count
        assert loaded.summary.distinct_digests == summary.digest_set()
        assert loaded.summary.distinct_type_count == 3

    def test_checkpoint_exists(self, saved, tmp_path):
        assert checkpoint_exists(saved)
        assert not checkpoint_exists(tmp_path / "nowhere")

    def test_path_recorded(self, saved):
        assert load_checkpoint(saved).path == str(saved)

    def test_overwrite_replaces_cleanly(self, saved):
        newer = accumulate_partition([{"z": True}])
        save_checkpoint(saved, newer)
        assert load_checkpoint(saved).summary.schema == newer.schema


class TestEmptyCheckpoint:
    """Regression: a zero-record checkpoint must round-trip ε exactly."""

    def test_epsilon_round_trip(self, tmp_path):
        empty = accumulate_partition([])
        save_checkpoint(tmp_path / "e", empty)
        loaded = load_checkpoint(tmp_path / "e")
        assert loaded.summary.schema == EMPTY
        assert loaded.summary.record_count == 0
        assert loaded.summary.distinct_type_count == 0

    def test_epsilon_is_merge_neutral(self, tmp_path, summary):
        save_checkpoint(tmp_path / "e", accumulate_partition([]))
        save_checkpoint(tmp_path / "s", summary)
        merged = merge_checkpoints([tmp_path / "s", tmp_path / "e"])
        assert merged.schema == summary.schema
        assert merged.record_count == summary.record_count

    def test_epsilon_distinct_file_is_empty(self, tmp_path):
        save_checkpoint(tmp_path / "e", accumulate_partition([]))
        assert (tmp_path / "e" / DIGEST_FILE).read_bytes() == b""


class TestValidation:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(CheckpointNotFoundError):
            load_checkpoint(tmp_path / "missing")

    def test_directory_without_manifest(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(CheckpointNotFoundError):
            load_checkpoint(tmp_path / "d")

    def test_missing_schema_file(self, saved):
        # The manifest makes the directory a checkpoint: a data file
        # missing beside it is damage, not a missing checkpoint.
        (saved / SCHEMA_FILE).unlink()
        with pytest.raises(CheckpointCorruptError, match=SCHEMA_FILE):
            load_checkpoint(saved)

    def test_missing_digest_file(self, saved):
        (saved / DIGEST_FILE).unlink()
        with pytest.raises(CheckpointCorruptError, match=DIGEST_FILE):
            load_checkpoint(saved)

    def test_manifest_not_json(self, saved):
        (saved / MANIFEST_FILE).write_text("not json at all")
        with pytest.raises(CheckpointFormatError):
            load_manifest(saved)

    def test_manifest_not_an_object(self, saved):
        (saved / MANIFEST_FILE).write_text("[1, 2, 3]")
        with pytest.raises(CheckpointFormatError):
            load_manifest(saved)

    def test_manifest_missing_field(self, saved):
        data = json.loads((saved / MANIFEST_FILE).read_text())
        del data["record_count"]
        (saved / MANIFEST_FILE).write_text(json.dumps(data))
        with pytest.raises(CheckpointFormatError):
            load_manifest(saved)

    def test_future_format_version_rejected(self, saved):
        data = json.loads((saved / MANIFEST_FILE).read_text())
        data["format_version"] = FORMAT_VERSION + 1
        (saved / MANIFEST_FILE).write_text(json.dumps(data))
        with pytest.raises(CheckpointFormatError, match="format version"):
            load_checkpoint(saved)

    def test_tampered_schema_digest_mismatch(self, saved):
        (saved / SCHEMA_FILE).write_text("{a: Num}\n")
        with pytest.raises(CheckpointFormatError, match="digest"):
            load_checkpoint(saved)

    def test_unparseable_schema(self, saved):
        # Keep the digest consistent so the *parse* failure is what fires.
        bogus = b"{a: Nim}\n"
        (saved / SCHEMA_FILE).write_bytes(bogus)
        data = json.loads((saved / MANIFEST_FILE).read_text())
        import hashlib

        data["schema_sha256"] = hashlib.sha256(bogus).hexdigest()
        (saved / MANIFEST_FILE).write_text(json.dumps(data))
        with pytest.raises(CheckpointFormatError, match="unparseable"):
            load_checkpoint(saved)

    def test_distinct_count_mismatch(self, saved):
        rewrite_digests(saved, (saved / DIGEST_FILE).read_bytes()[:-32])
        with pytest.raises(CheckpointFormatError, match="count mismatch"):
            load_checkpoint(saved)

    def test_tampered_digest_file(self, saved):
        raw = bytearray((saved / DIGEST_FILE).read_bytes())
        raw[0] ^= 1
        (saved / DIGEST_FILE).write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError, match="distinct-digest"):
            load_checkpoint(saved)

    def test_partial_digest_rejected(self, saved):
        rewrite_digests(saved, (saved / DIGEST_FILE).read_bytes()[:-1])
        with pytest.raises(CheckpointCorruptError, match="whole number"):
            load_checkpoint(saved)

    @pytest.mark.parametrize("damage", ["unsorted", "duplicate"])
    def test_digests_must_strictly_increase(self, saved, damage):
        raw = (saved / DIGEST_FILE).read_bytes()
        first, second = raw[:32], raw[32:64]
        changed = second + first if damage == "unsorted" else first + first
        rewrite_digests(saved, changed + raw[64:])
        with pytest.raises(CheckpointCorruptError, match="increasing"):
            load_checkpoint(saved)

    def test_format2_manifest_needs_distinct_digest(self, saved):
        data = json.loads((saved / MANIFEST_FILE).read_text())
        del data["distinct_sha256"]
        (saved / MANIFEST_FILE).write_text(json.dumps(data))
        with pytest.raises(CheckpointCorruptError, match="distinct_sha256"):
            load_checkpoint(saved)

    def test_malformed_source_entry(self, saved):
        data = json.loads((saved / MANIFEST_FILE).read_text())
        data["sources"] = [{"path": "x"}]  # size and sha256 missing
        (saved / MANIFEST_FILE).write_text(json.dumps(data))
        with pytest.raises(CheckpointFormatError, match="fingerprint"):
            load_manifest(saved)

    def test_merge_rejects_empty_input_list(self):
        with pytest.raises(CheckpointError):
            merge_checkpoints([])


class TestDeterminism:
    def test_two_saves_are_byte_identical(self, tmp_path, summary):
        save_checkpoint(tmp_path / "a", summary)
        save_checkpoint(tmp_path / "b", summary)
        for name in (MANIFEST_FILE, SCHEMA_FILE, DIGEST_FILE):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_distinct_order_does_not_matter(self, tmp_path, summary):
        shuffled = PartitionSummary(
            schema=summary.schema,
            record_count=summary.record_count,
            distinct_types=tuple(reversed(summary.distinct_types)),
        )
        save_checkpoint(tmp_path / "a", summary)
        save_checkpoint(tmp_path / "b", shuffled)
        assert (tmp_path / "a" / DIGEST_FILE).read_bytes() == (
            tmp_path / "b" / DIGEST_FILE
        ).read_bytes()

    def test_distinct_file_is_sorted(self, saved):
        raw = (saved / DIGEST_FILE).read_bytes()
        digests = [raw[i:i + 32] for i in range(0, len(raw), 32)]
        assert digests == sorted(digests)
        assert len(digests) == len(set(digests)) == 3

    def test_manifest_is_canonical_json(self, saved):
        raw = (saved / MANIFEST_FILE).read_text()
        data = json.loads(raw)
        assert raw == json.dumps(data, sort_keys=True, indent=2) + "\n"

    def test_no_stray_temp_files(self, saved):
        assert sorted(p.name for p in saved.iterdir()) == sorted(
            [MANIFEST_FILE, SCHEMA_FILE, DIGEST_FILE]
        )


class TestGoldenCheckpoint:
    """Byte-level pin of the on-disk format.

    A fixed corpus must always checkpoint to these exact bytes, on any
    backend and any run.  If an intentional format change lands, bump
    ``FORMAT_VERSION`` and regenerate with::

        PYTHONPATH=src python tests/store/regen_golden.py
    """

    GOLDEN = (
        Path(__file__).resolve().parent.parent / "golden"
        / "checkpoint_format2"
    )

    def test_fixed_corpus_matches_golden_bytes(self, tmp_path):
        from tests.conftest import make_corpus

        summary = accumulate_partition(make_corpus(64, seed=7))
        save_checkpoint(tmp_path / "g", summary)
        for name in (MANIFEST_FILE, SCHEMA_FILE, DIGEST_FILE):
            assert (tmp_path / "g" / name).read_bytes() == (
                self.GOLDEN / name
            ).read_bytes(), f"{name} drifted from the golden checkpoint"

    def test_golden_checkpoint_loads(self):
        loaded = load_checkpoint(self.GOLDEN)
        assert loaded.record_count == 64
        assert loaded.manifest.format_version == FORMAT_VERSION == 2
        assert loaded.summary.distinct_type_count == 19


class TestSources:
    def test_fingerprint_recorded_and_stable(self, tmp_path, summary):
        src = tmp_path / "data.ndjson"
        src.write_text('{"a": 1}\n')
        f1 = fingerprint_source(src)
        f2 = fingerprint_source(src)
        assert f1 == f2
        assert f1.size == src.stat().st_size
        save_checkpoint(tmp_path / "c", summary, sources=[src])
        manifest = load_manifest(tmp_path / "c")
        assert [s.path for s in manifest.sources] == [str(src)]

    def test_fingerprint_changes_when_source_changes(self, tmp_path):
        src = tmp_path / "data.ndjson"
        src.write_text('{"a": 1}\n')
        before = fingerprint_source(src)
        src.write_text('{"a": 2}\n')
        assert fingerprint_source(src) != before

    def test_sources_deduped_and_sorted(self, tmp_path, summary):
        b = tmp_path / "b.ndjson"
        a = tmp_path / "a.ndjson"
        for p in (a, b):
            p.write_text("{}\n")
        manifest = build_manifest(summary, sources=[b, a, b])
        assert [s.path for s in manifest.sources] == [str(a), str(b)]

    def test_skipped_count_override(self, tmp_path, summary):
        save_checkpoint(tmp_path / "c", summary, skipped_count=9)
        assert load_manifest(tmp_path / "c").skipped_count == 9


class TestMergeCheckpoints:
    def _save_shards(self, tmp_path):
        shard_records = [
            [{"a": 1}, {"a": 2}],
            [{"a": "x", "b": True}],
            [{"a": 3.5, "c": [1]}],
        ]
        paths = []
        for i, records in enumerate(shard_records):
            p = tmp_path / f"shard{i}"
            save_checkpoint(p, accumulate_partition(records))
            paths.append(p)
        flat = [r for shard in shard_records for r in shard]
        return paths, accumulate_partition(flat)

    def test_merge_equals_single_pass(self, tmp_path):
        paths, whole = self._save_shards(tmp_path)
        merged = merge_checkpoints(paths)
        assert merged.schema == whole.schema
        assert merged.record_count == whole.record_count
        assert merged.summary.distinct_digests == whole.digest_set()

    def test_merge_order_invariant(self, tmp_path):
        paths, _ = self._save_shards(tmp_path)
        a = merge_checkpoints(paths)
        b = merge_checkpoints(paths[::-1])
        assert a.schema == b.schema
        assert a.record_count == b.record_count

    def test_merge_writes_output_checkpoint(self, tmp_path):
        paths, whole = self._save_shards(tmp_path)
        out = tmp_path / "union"
        merged = merge_checkpoints(paths, out=out)
        assert merged.path == str(out)
        assert load_checkpoint(out).summary.schema == whole.schema

    def test_merge_accepts_in_memory_checkpoints(self, tmp_path):
        paths, whole = self._save_shards(tmp_path)
        loaded = [load_checkpoint(p) for p in paths]
        merged = merge_checkpoints(loaded)
        assert merged.schema == whole.schema
        assert merged.path is None

    def test_single_input_is_identity(self, tmp_path, summary):
        save_checkpoint(tmp_path / "c", summary)
        merged = merge_checkpoints([tmp_path / "c"])
        assert merged.schema == summary.schema
        assert merged.record_count == summary.record_count

    def test_merge_unions_sources_and_sums_skips(self, tmp_path, summary):
        src = tmp_path / "s.ndjson"
        src.write_text("{}\n")
        save_checkpoint(tmp_path / "a", summary, sources=[src],
                        skipped_count=2)
        save_checkpoint(tmp_path / "b", summary, skipped_count=3)
        merged = merge_checkpoints([tmp_path / "a", tmp_path / "b"])
        assert merged.manifest.skipped_count == 5
        assert [s.path for s in merged.manifest.sources] == [str(src)]


class TestCheckpointCounters:
    """``SchedulerStats`` counts the checkpoint loads and saves of the
    runs on its context: what ``infer --update`` feeds them."""

    def test_update_run_counts_loads_and_saves(self, tmp_path):
        data = tmp_path / "batch.ndjson"
        write_ndjson(data, ({"k": i, "v": str(i)} for i in range(1500)))
        ckpt = tmp_path / "ckpt"
        with Context(parallelism=2) as ctx:
            stats = ctx.scheduler.stats

            def counters():
                return (stats.checkpoints_loaded,
                        stats.checkpoint_records_merged,
                        stats.checkpoints_saved)

            infer_ndjson_file(data, context=ctx, checkpoint_to=ckpt)
            assert counters() == (0, 0, 1)
            run = infer_ndjson_file(data, context=ctx, update_from=ckpt,
                                    checkpoint_to=ckpt)
            assert counters() == (1, 1500, 2)
        assert run.checkpoint_record_count == 1500
        assert run.record_count == 3000


class TestSchemaWithEscapedKeys:
    """Keys with quotes/newlines must survive the line-oriented format."""

    def test_control_character_keys_round_trip(self, tmp_path):
        records = [{"a\nb": 1, 'quo"te': "x", "tab\there": None}]
        summary = accumulate_partition(records)
        save_checkpoint(tmp_path / "c", summary)
        loaded = load_checkpoint(tmp_path / "c")
        assert loaded.summary.schema == summary.schema
        assert loaded.summary.distinct_digests == summary.digest_set()

    def test_printed_schema_has_no_raw_newline(self):
        summary = accumulate_partition([{"a\nb": 1}])
        printed = print_type(summary.schema)
        assert "\n" not in printed
        assert "\\n" in printed

    @pytest.mark.parametrize("char", map(chr, [0x2028, 0x2029, 0x85]))
    def test_keys_splitlines_would_break_round_trip(self, tmp_path, char):
        # The printer leaves these raw; str.splitlines() breaks at them.
        records = [{f"a{char}b": 1}, {"c": {char: "x"}}]
        summary = accumulate_partition(records)
        save_checkpoint(tmp_path / "c", summary)
        loaded = load_checkpoint(tmp_path / "c")
        assert loaded.summary.schema == summary.schema
        assert loaded.summary.distinct_digests == summary.digest_set()
