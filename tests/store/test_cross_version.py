"""What builds before checkpoint format 2 and wire v4 wrote still loads,
merges, decodes and resumes here.

``tests/golden/checkpoint`` and ``tests/golden/checkpoint_stats`` are
format-1 checkpoints (distinct set as printed types in
``distinct.types``) of ``make_corpus(64, seed=7)``, without and with
``stats_mode="sketches"``.  ``tests/golden/compat`` holds what the last
build with wire v3 wrote over its ``corpus.ndjson`` (240 records and two
malformed lines, at lines 50 and 171), from inside that directory:

* ``corpus_basic.v3.frame`` — :func:`encode_summary` of
  :func:`accumulate_ndjson_partition` over every numbered line, with
  ``source="corpus.ndjson"``, ``permissive=True`` and
  ``stats_mode="basic"``;
* ``pinned_types.v3.frame`` — a summary whose distinct types are the
  fixed types ``test_wire_format.TestDigestPins`` pins;
* ``run.journal`` — the journal of :data:`JOURNAL_RUN`, killed with
  ``REPRO_CRASH_POINT=journal.append.post:2`` after two of its four
  task appends;
* ``batched.journal`` — written by the last build with batched dispatch
  (wire v4): the same run on a two-thread context with ``batch_size=2``
  (an option since removed), so two tasks of two splits each, killed
  with ``REPRO_CRASH_POINT=journal.append.post:1``;
* ``stats.journal`` — written by the last build with two parse lanes
  (wire v4): :data:`JOURNAL_RUN` with ``stats_mode="basic"`` and
  ``collect_timings=True``, killed with
  ``REPRO_CRASH_POINT=journal.append.post:2``.  Its header signs the
  lane label ``"strict"``, and its frames' phase timings carry the
  ``lane`` field that build had;
* ``stream.journal`` — written by the last build that read a regular
  file without a context as one stream of lines: a sequential
  ``infer_ndjson_file("corpus.ndjson", permissive=True,
  journal_path="stream.journal")``, killed with
  ``REPRO_CRASH_POINT=journal.commit.pre`` after its one ``"stream"``
  task.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.printer import print_type
from repro.engine.context import Context
from repro.inference.kernel import (
    accumulate_ndjson_partition,
    accumulate_partition,
    decode_summary,
)
from repro.inference.pipeline import infer_ndjson_file
from repro.jsonio.ndjson import iter_numbered_lines
from repro.store.checkpoint import (
    DIGEST_FILE,
    DISTINCT_FILE,
    MANIFEST_FILE,
    SCHEMA_FILE,
    STATS_FILE,
    fsck_checkpoint,
    load_checkpoint,
    merge_checkpoints,
    save_checkpoint,
)
from repro.store.journal import JournalMismatchError, read_journal
from tests.conftest import make_corpus, write_corpus

GOLDEN = Path(__file__).resolve().parents[1] / "golden"
FORMAT1 = {"off": GOLDEN / "checkpoint", "sketches": GOLDEN / "checkpoint_stats"}
COMPAT = GOLDEN / "compat"

#: The journaled run ``run.journal`` recorded (source path relative to
#: the directory it ran in).
JOURNAL_RUN = dict(num_partitions=4, min_split_bytes=1024, permissive=True)


def fixture_corpus():
    return make_corpus(64, seed=7)


def batch_corpus():
    return make_corpus(30, seed=8)


class TestFormat1Checkpoints:
    @pytest.mark.parametrize("stats_mode", ["off", "sketches"])
    def test_fixture_loads_and_fscks_ok(self, stats_mode):
        fixture = FORMAT1[stats_mode]
        assert (fixture / DISTINCT_FILE).is_file()
        loaded = load_checkpoint(fixture)
        expected = accumulate_partition(fixture_corpus(),
                                        stats_mode=stats_mode)
        assert loaded.manifest.format_version == 1
        assert loaded.summary.schema == expected.schema
        assert loaded.record_count == 64
        assert loaded.summary.distinct_digests == expected.digest_set()
        assert loaded.summary.distinct_type_count == 19
        assert loaded.summary.stats == expected.stats
        report = fsck_checkpoint(fixture)
        assert report["status"] == "ok"
        assert report["format_version"] == 1

    def test_duplicate_format1_line_is_corrupt(self, tmp_path):
        # Two lines printing the same type leave fewer unique digests
        # than the manifest counts.
        target = tmp_path / "ckpt"
        shutil.copytree(FORMAT1["off"], target)
        lines = (target / DISTINCT_FILE).read_text().splitlines()
        lines[-1] = lines[0]
        (target / DISTINCT_FILE).write_text("\n".join(lines) + "\n")
        report = fsck_checkpoint(target)
        assert report["status"] == "corrupt"
        assert "count mismatch" in report["detail"]

    @pytest.mark.parametrize("stats_mode", ["off", "sketches"])
    def test_update_equals_full_run_and_resaves_as_format2(
        self, tmp_path, stats_mode
    ):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(FORMAT1[stats_mode], ckpt)
        batch = tmp_path / "batch.ndjson"
        write_corpus(batch, batch_corpus())
        whole = tmp_path / "whole.ndjson"
        write_corpus(whole, fixture_corpus() + batch_corpus())

        updated = infer_ndjson_file(batch, update_from=ckpt,
                                    checkpoint_to=ckpt,
                                    stats_mode=stats_mode)
        full = infer_ndjson_file(whole, checkpoint_to=tmp_path / "full",
                                 stats_mode=stats_mode)
        assert print_type(updated.schema) == print_type(full.schema)
        assert updated.record_count == full.record_count == 94
        assert updated.distinct_type_count == full.distinct_type_count
        assert updated.checkpoint_record_count == 64

        manifest = json.loads((ckpt / MANIFEST_FILE).read_text())
        assert manifest["format_version"] == 2
        assert not (ckpt / DISTINCT_FILE).exists()
        names = [SCHEMA_FILE, DIGEST_FILE]
        if stats_mode != "off":
            names.append(STATS_FILE)
        for name in names:
            assert (ckpt / name).read_bytes() == (
                tmp_path / "full" / name
            ).read_bytes(), name

    def test_merge_of_mixed_formats_equals_single_pass(self, tmp_path):
        save_checkpoint(tmp_path / "batch",
                        accumulate_partition(batch_corpus()))
        whole = accumulate_partition(fixture_corpus() + batch_corpus())
        merged = merge_checkpoints([FORMAT1["off"], tmp_path / "batch"],
                                   out=tmp_path / "merged")
        assert merged.schema == whole.schema
        assert merged.record_count == whole.record_count
        assert merged.manifest.format_version == 2
        reloaded = load_checkpoint(tmp_path / "merged")
        assert reloaded.summary.distinct_digests == whole.digest_set()

    def test_cli_takes_both_formats(self, tmp_path, capsys):
        save_checkpoint(tmp_path / "batch",
                        accumulate_partition(batch_corpus()))
        out = tmp_path / "merged"
        assert main(["merge", str(FORMAT1["off"]), str(tmp_path / "batch"),
                     "-o", str(out)]) == 0
        merged = capsys.readouterr()
        whole = accumulate_partition(fixture_corpus() + batch_corpus())
        assert merged.out.strip() == print_type(whole.schema)
        assert f"{whole.distinct_type_count:,} distinct types" in merged.err
        assert main(["fsck", str(FORMAT1["off"]), str(out)]) == 0
        assert capsys.readouterr().out.count(" ok ") == 2
        assert main(["statistics", str(FORMAT1["sketches"])]) == 0
        assert capsys.readouterr().out


class TestWireV3Frames:
    def test_v3_frame_decodes_to_the_same_summary(self, monkeypatch):
        monkeypatch.chdir(COMPAT)
        expected = accumulate_ndjson_partition(
            list(iter_numbered_lines("corpus.ndjson")),
            source="corpus.ndjson", permissive=True, stats_mode="basic",
        )
        decoded = decode_summary(
            (COMPAT / "corpus_basic.v3.frame").read_bytes()
        )
        assert decoded == replace(
            expected, distinct_types=(),
            distinct_digests=expected.digest_set(),
        )
        assert decoded.record_count == 240
        assert [b.line_number for b in decoded.skipped] == [50, 171]
        assert decoded.stats.to_bytes() == expected.stats.to_bytes()


class TestParentJournal:
    @pytest.mark.parametrize("backend", [None, "thread"])
    def test_resumes_to_the_uninterrupted_output(
        self, tmp_path, monkeypatch, backend
    ):
        for name in ("corpus.ndjson", "run.journal"):
            shutil.copy(COMPAT / name, tmp_path / name)
        monkeypatch.chdir(tmp_path)
        before = read_journal("run.journal")
        assert sorted(before.completed) == [0, 1]
        assert not before.committed

        def run(**kwargs):
            if backend is None:
                return infer_ndjson_file("corpus.ndjson", **JOURNAL_RUN,
                                         **kwargs)
            with Context(parallelism=2, backend=backend) as ctx:
                return infer_ndjson_file("corpus.ndjson", context=ctx,
                                         **JOURNAL_RUN, **kwargs)

        resumed = run(journal_path="run.journal", resume=True)
        plain = run()
        assert print_type(resumed.schema) == print_type(plain.schema)
        assert (resumed.record_count, resumed.distinct_type_count) == (
            plain.record_count, plain.distinct_type_count,
        ) == (240, 24)
        assert resumed.bad_records == plain.bad_records
        assert [b.line_number for b in resumed.bad_records] == [50, 171]
        after = read_journal("run.journal")
        assert sorted(after.completed) == [0, 1, 2, 3]
        assert after.committed

    @pytest.mark.parametrize("backend", [None, "thread"])
    def test_stats_journal_resumes_to_the_uninterrupted_output(
        self, tmp_path, monkeypatch, backend
    ):
        for name in ("corpus.ndjson", "stats.journal"):
            shutil.copy(COMPAT / name, tmp_path / name)
        monkeypatch.chdir(tmp_path)
        before = read_journal("stats.journal")
        assert before.header["parse_lane"] == "strict"
        assert before.header["stats"] == "basic"
        assert sorted(before.completed) == [0, 1]
        for payload in before.completed.values():
            frame = decode_summary(payload)
            assert frame.timings.lane == "strict"
            assert frame.timings.records == frame.record_count

        def run(**kwargs):
            kwargs.update(JOURNAL_RUN, stats_mode="basic")
            if backend is None:
                return infer_ndjson_file("corpus.ndjson", **kwargs)
            with Context(parallelism=2, backend=backend) as ctx:
                return infer_ndjson_file("corpus.ndjson", context=ctx,
                                         **kwargs)

        resumed = run(journal_path="stats.journal", resume=True)
        plain = run()
        assert print_type(resumed.schema) == print_type(plain.schema)
        assert (resumed.record_count, resumed.distinct_type_count) == (
            plain.record_count, plain.distinct_type_count,
        ) == (240, 24)
        assert resumed.bad_records == plain.bad_records
        assert resumed.stats.to_bytes() == plain.stats.to_bytes()
        after = read_journal("stats.journal")
        assert sorted(after.completed) == [0, 1, 2, 3]
        assert after.committed

    def test_batched_journal_is_refused(self, tmp_path, monkeypatch,
                                        capsys):
        """Every task is one split now, so a journal whose tasks held
        two plans fewer tasks than the run resuming it."""
        for name in ("corpus.ndjson", "batched.journal"):
            shutil.copy(COMPAT / name, tmp_path / name)
        monkeypatch.chdir(tmp_path)
        refusal = "planned 2 tasks, but the current run planned 4"
        with Context(parallelism=2, backend="thread") as ctx:
            with pytest.raises(JournalMismatchError, match=refusal) as info:
                infer_ndjson_file("corpus.ndjson", context=ctx,
                                  **JOURNAL_RUN, resume=True,
                                  journal_path="batched.journal")
        assert "--batch-size" not in str(info.value)
        assert main(["infer", "corpus.ndjson", "--workers", "2",
                     "--min-split-mb",
                     str(1024 / (1 << 20)), "--permissive",
                     "--journal", "batched.journal", "--resume"]) == 1
        assert refusal in capsys.readouterr().err

    def test_stream_journal_is_refused(self, tmp_path, monkeypatch,
                                       capsys):
        """A sequential run reads its file as one byte split now, so the
        one-task stream plan of a journal from before cannot resume; no
        flag plans it, so the message names the plan, not the flags."""
        for name in ("corpus.ndjson", "stream.journal"):
            shutil.copy(COMPAT / name, tmp_path / name)
        monkeypatch.chdir(tmp_path)
        before = read_journal("stream.journal")
        assert before.header["tasks"] == [["stream"]]
        assert sorted(before.completed) == [0]
        refusal = "one-task stream plan of a sequential run"
        with pytest.raises(JournalMismatchError, match=refusal) as info:
            infer_ndjson_file("corpus.ndjson", permissive=True, resume=True,
                              journal_path="stream.journal")
        assert "original flags" not in str(info.value)
        assert main(["infer", "corpus.ndjson", "--permissive",
                     "--journal", "stream.journal", "--resume"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert refusal in captured.err
