"""What builds before checkpoint format 2 wrote still loads and merges
here, and what earlier builds' journals get instead of a resume.

``tests/golden/checkpoint`` and ``tests/golden/checkpoint_stats`` are
format-1 checkpoints (distinct set as printed types in
``distinct.types``) of ``make_corpus(64, seed=7)``, without and with
``stats_mode="sketches"``.  ``tests/golden/compat`` holds journals in
journal format 1 (task frames filed by their index in a task plan the
header recorded), written over its ``corpus.ndjson`` (240 records and
two malformed lines, at lines 50 and 171) from inside that directory.
This build reads journal format 2 only, so a resume refuses each of
them as another format's:

* ``run.journal`` — written by the last build with wire v3: the
  journal of ``num_partitions=4, min_split_bytes=1024,
  permissive=True``, killed with
  ``REPRO_CRASH_POINT=journal.append.post:2`` after two of its four
  task appends;
* ``batched.journal`` — written by the last build with batched dispatch
  (wire v4): the same run on a two-thread context with ``batch_size=2``
  (an option since removed), so two tasks of two splits each, killed
  with ``REPRO_CRASH_POINT=journal.append.post:1``;
* ``stats.journal`` — written by the last build with two parse lanes
  (wire v4): the ``run.journal`` run with ``stats_mode="basic"`` and
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
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.printer import print_type
from repro.inference.kernel import accumulate_partition
from repro.inference.pipeline import infer_ndjson_file
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
from repro.store.journal import fsck_journal
from tests.conftest import make_corpus, write_corpus

GOLDEN = Path(__file__).resolve().parents[1] / "golden"
FORMAT1 = {"off": GOLDEN / "checkpoint", "sketches": GOLDEN / "checkpoint_stats"}
COMPAT = GOLDEN / "compat"


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


class TestFormat1Journals:
    @pytest.mark.parametrize("name", ["run", "stats", "batched", "stream"])
    def test_resume_is_refused_as_another_format(
        self, tmp_path, monkeypatch, capsys, name
    ):
        """The journal is intact, so it is refused as another format's
        (not as corrupt) before any work, and left as it was."""
        journal = f"{name}.journal"
        for file in ("corpus.ndjson", journal):
            shutil.copy(COMPAT / file, tmp_path / file)
        monkeypatch.chdir(tmp_path)
        before = (tmp_path / journal).read_bytes()
        assert main(["infer", "corpus.ndjson", "--permissive",
                     "--journal", journal, "--resume"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: run journal {journal!r} is in journal format 1, and "
            f"this build reads only format 2; delete the journal and "
            f"rerun\n"
        )
        assert (tmp_path / journal).read_bytes() == before
        report = fsck_journal(journal)
        assert report["status"] == "version-mismatch"
        assert main(["fsck", journal]) == 1
        assert "version-mismatch" in capsys.readouterr().out
