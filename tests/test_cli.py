"""End-to-end tests for the command-line interface (repro.cli)."""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.diff import diff_schemas
from repro.analysis.paths import iter_schema_paths, resolve_path
from repro.analysis.stats import SUCCINCTNESS_HEADERS, succinctness_row
from repro.analysis.tables import render_table
from repro.cli import EXIT_RESUMABLE, main
from repro.core.printer import print_type
from repro.datasets import write_dataset
from repro.inference.pipeline import infer_schema
from repro.jsonio.parser import loads
from repro.jsonio.ndjson import read_ndjson, write_ndjson
from tests.conftest import make_corpus

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture()
def sample_file(tmp_path):
    path = tmp_path / "sample.ndjson"
    write_ndjson(path, [
        {"a": 1, "b": {"c": "x"}},
        {"a": "y", "b": {"c": "z", "d": True}},
    ])
    return str(path)


class TestInfer:
    def test_prints_schema(self, sample_file, capsys):
        assert main(["infer", sample_file]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "{a: (Num + Str), b: {c: Str, d: Bool?}}"

    def test_pretty(self, sample_file, capsys):
        assert main(["infer", sample_file, "--pretty"]) == 0
        out = capsys.readouterr().out
        assert "\n" in out.strip()

    def test_json_schema_output(self, sample_file, capsys):
        assert main(["infer", sample_file, "--json-schema"]) == 0
        doc = loads(capsys.readouterr().out.strip())
        assert doc["type"] == "object"
        assert sorted(doc["required"]) == ["a", "b"]

    def test_skip_invalid(self, tmp_path, capsys):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"a": 1}\nnot json\n')
        assert main(["infer", str(path), "--skip-invalid"]) == 0
        assert capsys.readouterr().out.strip() == "{a: Num}"

    def test_parallel_matches_sequential(self, sample_file, capsys):
        assert main(["infer", sample_file]) == 0
        sequential = capsys.readouterr().out
        assert main(["infer", sample_file, "--parallel", "3"]) == 0
        assert capsys.readouterr().out == sequential

    def test_parse_lanes_agree(self, sample_file, capsys):
        # Statistics once forced another parse lane; every mode prints
        # the same schema.
        outputs = set()
        for stats in ("off", "basic", "sketches"):
            assert main(["infer", sample_file, "--stats", stats]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1

    def test_unknown_parse_lane_rejected(self, sample_file):
        # The flag is gone in every spelling.
        for lane in ("warp", "strict"):
            with pytest.raises(SystemExit):
                main(["infer", sample_file, "--parse-lane", lane])

    def test_timings_report_on_stderr(self, sample_file, capsys):
        assert main(["infer", sample_file, "--timings"]) == 0
        err = capsys.readouterr().err
        assert "(parse " in err
        assert "· type" in err
        assert "fuse" in err
        assert "records/s" in err
        assert "reduce" in err

    def test_timings_report_strict_lane(self, sample_file, capsys):
        # A statistics run reports the same stages as any other, and
        # its statistics as one more.
        assert main(["infer", sample_file, "--timings",
                     "--stats", "basic"]) == 0
        err = capsys.readouterr().err
        assert "lane" not in err
        assert "· type" in err
        assert "· stats " in err
        assert main(["infer", sample_file, "--timings"]) == 0
        assert "stats" not in capsys.readouterr().err


@pytest.fixture()
def dirty_file(tmp_path):
    path = tmp_path / "dirty.ndjson"
    path.write_text('{"a": 1}\nnot json\n{"a": 2}\n{"a": 3,\n{"a": 4}\n')
    return str(path)


class TestInferPermissive:
    def test_strict_mode_fails_on_first_bad_line(self, dirty_file, capsys):
        assert main(["infer", dirty_file]) == 1
        assert f"({dirty_file}, line 2, column 1)" in capsys.readouterr().err

    def test_permissive_reports_skip_summary(self, dirty_file, capsys):
        assert main(["infer", dirty_file, "--permissive"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "{a: Num}"
        assert "2 records skipped (40.0%)" in captured.err

    def test_bad_records_sidecar(self, dirty_file, tmp_path, capsys):
        sidecar = tmp_path / "quarantine.ndjson"
        assert main(["infer", dirty_file, "--permissive",
                     "--bad-records", str(sidecar)]) == 0
        capsys.readouterr()
        rows = [loads(line) for line in sidecar.read_text().splitlines()]
        assert [r["line"] for r in rows] == [2, 4]
        assert rows[0]["text"] == "not json"

    def test_max_error_rate_aborts_with_exit_1(self, dirty_file, capsys):
        assert main(["infer", dirty_file, "--permissive",
                     "--max-error-rate", "0.1"]) == 1
        captured = capsys.readouterr()
        assert "above the max_error_rate threshold" in captured.err

    def test_max_error_rate_tolerant_threshold_passes(self, dirty_file,
                                                      capsys):
        assert main(["infer", dirty_file, "--permissive",
                     "--max-error-rate", "0.5"]) == 0
        assert capsys.readouterr().out.strip() == "{a: Num}"

    def test_permissive_parallel_matches_inline(self, dirty_file, capsys):
        assert main(["infer", dirty_file, "--permissive"]) == 0
        inline = capsys.readouterr()
        assert main(["infer", dirty_file, "--permissive",
                     "--parallel", "2", "--max-retries", "2"]) == 0
        parallel = capsys.readouterr()
        assert parallel.out == inline.out
        assert "2 records skipped" in parallel.err


class TestStats:
    def test_stats_table(self, sample_file, capsys):
        assert main(["stats", sample_file]) == 0
        out = capsys.readouterr().out
        assert "# types" in out
        assert "records: 2" in out
        assert "map phase" in out

    @pytest.mark.parametrize("bad_line", [False, True])
    def test_row_is_the_row_over_the_values(self, tmp_path, capsys,
                                            bad_line):
        values = make_corpus(40, seed=6)
        lines = [json.dumps(value) for value in values]
        args = ["stats", str(tmp_path / "corpus.ndjson")]
        if bad_line:
            lines.insert(17, '{"id": 17,')
            args.append("--skip-invalid")
        Path(args[1]).write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(args) == 0
        out = capsys.readouterr().out
        row = succinctness_row(values, label=args[1])
        assert out.startswith(
            render_table(SUCCINCTNESS_HEADERS, [row.cells()]) + "\n"
            f"records: {len(values)}\n"
        )

    def test_bad_line_is_an_error_without_skip_invalid(self, tmp_path,
                                                       capsys):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"a": 1}\n{"a": 2,\n{"a": 3}\n', encoding="utf-8")
        assert main(["stats", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "line 2" in captured.err


class TestGenerate:
    def test_generate_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "g.ndjson"
        assert main(["generate", "github", "5", str(out_path)]) == 0
        assert "wrote 5" in capsys.readouterr().out
        assert out_path.exists()

    def test_generated_file_inferrable(self, tmp_path, capsys):
        out_path = tmp_path / "t.ndjson"
        main(["generate", "twitter", "10", str(out_path)])
        capsys.readouterr()
        assert main(["infer", str(out_path)]) == 0
        assert capsys.readouterr().out.strip()

    def test_seed_changes_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        main(["generate", "nytimes", "3", str(a), "--seed", "1"])
        main(["generate", "nytimes", "3", str(b), "--seed", "2"])
        assert a.read_text() != b.read_text()


class TestPaths:
    def test_lists_paths_with_optionality(self, sample_file, capsys):
        assert main(["paths", sample_file]) == 0
        out = capsys.readouterr().out
        assert "mandatory  $.a" in out
        assert "optional   $.b.d" in out


class TestCheckPath:
    def test_mandatory_path(self, sample_file, capsys):
        assert main(["check-path", sample_file, "b.c"]) == 0
        out = capsys.readouterr().out
        assert "in every record" in out
        assert "Str" in out

    def test_optional_path(self, sample_file, capsys):
        assert main(["check-path", sample_file, "b.d"]) == 0
        assert "optional" in capsys.readouterr().out

    def test_absent_path_exits_nonzero(self, sample_file, capsys):
        assert main(["check-path", sample_file, "zzz"]) == 1
        assert "not present" in capsys.readouterr().out


class TestDiff:
    def test_identical_files(self, sample_file, capsys):
        assert main(["diff", sample_file, sample_file]) == 0
        assert "identical" in capsys.readouterr().out

    def test_reports_changes(self, tmp_path, capsys):
        old = tmp_path / "old.ndjson"
        new = tmp_path / "new.ndjson"
        write_ndjson(old, [{"a": 1, "b": "x"}])
        write_ndjson(new, [{"a": "s", "c": True}])
        assert main(["diff", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "[type-changed] $.a" in out
        assert "[removed] $.b" in out
        assert "[added] $.c" in out


class TestSchemaCommandsSkipInvalid:
    """``paths``, ``check-path`` and ``diff`` infer through the decode
    lane: with ``--skip-invalid`` they print what the pure fold over the
    lines ``read_ndjson`` accepts gives, and without it the malformed
    line is an error naming its line."""

    @pytest.fixture()
    def files(self, tmp_path):
        lines = [json.dumps(v) for v in make_corpus(60, seed=8)]
        lines.insert(12, '{"id": 12,')
        dirty = tmp_path / "dirty.ndjson"
        dirty.write_text("\n".join(lines) + "\n", encoding="utf-8")
        clean = tmp_path / "clean.ndjson"
        write_ndjson(clean, [{"id": "x", "kind": "a", "added": True}])
        return str(dirty), str(clean)

    @staticmethod
    def oracle(path):
        return infer_schema(read_ndjson(path, skip_invalid=True))

    def expected(self, command, dirty, clean):
        schema = self.oracle(dirty)
        if command == "paths":
            return "".join(
                f"{'mandatory' if guaranteed else 'optional '}  {path}\n"
                for path, guaranteed in sorted(iter_schema_paths(schema))
            )
        if command == "check-path":
            info = resolve_path(schema, "payload.tags[*]")
            assert info.exists and not info.guaranteed
            return f"payload.tags[*]: optional, type {print_type(info.type)}\n"
        changes = diff_schemas(schema, self.oracle(clean))
        assert changes
        return "".join(f"{change}\n" for change in changes)

    @staticmethod
    def argv(command, dirty, clean):
        return {
            "paths": ["paths", dirty],
            "check-path": ["check-path", dirty, "payload.tags[*]"],
            "diff": ["diff", dirty, clean],
        }[command]

    @pytest.mark.parametrize("command", ["paths", "check-path", "diff"])
    def test_skip_invalid_matches_the_pure_fold(self, command, files,
                                                capsys):
        argv = self.argv(command, *files) + ["--skip-invalid"]
        assert main(argv) == 0
        assert capsys.readouterr().out == self.expected(command, *files)

    @pytest.mark.parametrize("command", ["paths", "check-path", "diff"])
    def test_malformed_line_is_an_error(self, command, files, capsys):
        assert main(self.argv(command, *files)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert f"({files[0]}, line 13, column" in captured.err


class TestProject:
    def test_prunes_records(self, sample_file, capsys):
        assert main(["project", sample_file, "b.c"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert loads(lines[0]) == {"b": {"c": "x"}}
        assert loads(lines[1]) == {"b": {"c": "z"}}

    def test_unknown_path_fails(self, sample_file, capsys):
        assert main(["project", sample_file, "nope"]) == 1
        assert "nope" in capsys.readouterr().err


class TestValidate:
    def test_conforming_file(self, sample_file, capsys):
        schema = "{a: Num + Str, b: {c: Str, d: Bool?}}"
        assert main(["validate", sample_file, "--schema", schema]) == 0
        assert "all 2 records conform" in capsys.readouterr().out

    def test_violations_reported_with_paths(self, sample_file, capsys):
        assert main(["validate", sample_file, "--schema", "{a: Num}"]) == 1
        out = capsys.readouterr().out
        assert "record 1" in out
        assert "$.b" in out
        assert "2/2 records violate" in out

    def test_schema_file_variant(self, sample_file, tmp_path, capsys):
        schema_path = tmp_path / "schema.txt"
        schema_path.write_text("{a: Num + Str, b: {c: Str, d: Bool?}}")
        code = main(["validate", sample_file, "--schema-file", str(schema_path)])
        assert code == 0

    def test_max_reports_limits_output(self, tmp_path, capsys):
        path = tmp_path / "many.ndjson"
        write_ndjson(path, [{"x": i} for i in range(10)])
        assert main(["validate", str(path), "--schema", "{y: Num}",
                     "--max-reports", "2"]) == 1
        out = capsys.readouterr().out
        assert out.count("record ") == 2
        assert "10/10 records violate" in out

    def test_schema_required(self, sample_file):
        with pytest.raises(SystemExit):
            main(["validate", sample_file])


class TestReport:
    def test_markdown_report(self, sample_file, capsys):
        assert main(["report", sample_file, "--name", "demo"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Schema audit: demo")
        assert "## Fused schema" in out
        assert "## Paths" in out

    def test_default_name_is_filename(self, sample_file, capsys):
        assert main(["report", sample_file]) == 0
        assert sample_file in capsys.readouterr().out.split("\n")[0]


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_arguments_rejected(self):
        with pytest.raises(SystemExit):
            main(["infer"])

    @pytest.mark.parametrize("flag, argv", [
        ("--workers", ["infer", "{file}", "--workers", "-1"]),
        ("--min-split-mb",
         ["infer", "{file}", "--workers", "2", "--min-split-mb", "0"]),
        ("--min-split-mb", ["infer", "{file}", "--min-split-mb", "0"]),
        ("--max-retries",
         ["infer", "{file}", "--workers", "2", "--max-retries", "-1"]),
        ("--task-timeout",
         ["infer", "{file}", "--workers", "2", "--task-timeout", "0"]),
        ("--task-timeout", ["infer", "{file}", "--task-timeout", "inf"]),
        ("--max-error-rate", ["infer", "{file}", "--max-error-rate", "1.5"]),
        ("--max-error-rate", ["infer", "{file}", "--max-error-rate", "-0.1"]),
        ("--max-paths", ["statistics", "{file}", "--max-paths", "-1"]),
    ])
    def test_out_of_range_numbers_are_usage_errors(
        self, flag, argv, sample_file, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main([arg.format(file=sample_file) for arg in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "Traceback" not in err


class TestCheckpointCli:
    def test_infer_writes_checkpoint(self, sample_file, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(["infer", sample_file, "--checkpoint", str(ckpt)]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == (
            "{a: (Num + Str), b: {c: Str, d: Bool?}}"
        )
        assert "checkpoint: 2 records" in captured.err
        assert (ckpt / "MANIFEST.json").is_file()

    def test_update_chain_equals_full_inference(self, tmp_path, capsys):
        first = tmp_path / "first.ndjson"
        second = tmp_path / "second.ndjson"
        both = tmp_path / "both.ndjson"
        write_ndjson(first, [{"a": 1}, {"a": 2}])
        write_ndjson(second, [{"a": "x", "b": None}])
        write_ndjson(both, [{"a": 1}, {"a": 2}, {"a": "x", "b": None}])
        ckpt = tmp_path / "ckpt"
        assert main(["infer", str(first), "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["infer", str(second), "--checkpoint", str(ckpt),
                     "--update"]) == 0
        updated = capsys.readouterr()
        assert main(["infer", str(both)]) == 0
        full = capsys.readouterr()
        assert updated.out == full.out
        assert "2 reused from the previous checkpoint" in updated.err

    def test_update_cold_starts_without_existing_checkpoint(
        self, sample_file, tmp_path, capsys
    ):
        ckpt = tmp_path / "fresh"
        assert main(["infer", sample_file, "--checkpoint", str(ckpt),
                     "--update"]) == 0
        captured = capsys.readouterr()
        assert "reused" not in captured.err
        assert (ckpt / "MANIFEST.json").is_file()

    def test_update_without_checkpoint_dir_is_an_error(
        self, sample_file, capsys
    ):
        assert main(["infer", sample_file, "--update"]) == 2
        assert "--update requires --checkpoint" in capsys.readouterr().err


class TestMerge:
    def _checkpoint(self, tmp_path, name, records):
        source = tmp_path / f"{name}.ndjson"
        write_ndjson(source, records)
        ckpt = tmp_path / name
        assert main(["infer", str(source), "--checkpoint", str(ckpt)]) == 0
        return ckpt

    def test_merge_two_checkpoints(self, tmp_path, capsys):
        a = self._checkpoint(tmp_path, "a", [{"x": 1}])
        b = self._checkpoint(tmp_path, "b", [{"x": "s", "y": True}])
        capsys.readouterr()
        out_dir = tmp_path / "union"
        assert main(["merge", str(a), str(b), "-o", str(out_dir)]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "{x: (Num + Str), y: Bool?}"
        assert "merged 2 checkpoints (2 records" in captured.err
        assert (out_dir / "MANIFEST.json").is_file()

    def test_merge_missing_checkpoint_fails(self, tmp_path, capsys):
        a = self._checkpoint(tmp_path, "a", [{"x": 1}])
        capsys.readouterr()
        assert main(["merge", str(a), str(tmp_path / "nope"),
                     "-o", str(tmp_path / "out")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_merge_pretty(self, tmp_path, capsys):
        a = self._checkpoint(tmp_path, "a", [{"x": 1, "y": {"z": "s"}}])
        capsys.readouterr()
        assert main(["merge", str(a), "-o", str(tmp_path / "out"),
                     "--pretty"]) == 0
        assert "\n" in capsys.readouterr().out.strip()


class TestJournalCli:
    def test_journaled_run_commits(self, sample_file, tmp_path, capsys):
        journal = tmp_path / "run.journal"
        assert main(["infer", sample_file, "--journal", str(journal)]) == 0
        schema = capsys.readouterr().out
        from repro.store.journal import read_journal

        assert read_journal(journal).committed
        # The journal must not change the inferred schema.
        assert main(["infer", sample_file]) == 0
        assert capsys.readouterr().out == schema

    def test_existing_journal_requires_resume(
        self, sample_file, tmp_path, capsys
    ):
        journal = tmp_path / "run.journal"
        assert main(["infer", sample_file, "--journal", str(journal)]) == 0
        capsys.readouterr()
        assert main(["infer", sample_file, "--journal", str(journal)]) == 1
        assert "--resume" in capsys.readouterr().err

    def test_resume_completes_committed_run(
        self, sample_file, tmp_path, capsys
    ):
        journal = tmp_path / "run.journal"
        assert main(["infer", sample_file, "--journal", str(journal)]) == 0
        first = capsys.readouterr().out
        assert main(["infer", sample_file, "--journal", str(journal),
                     "--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_resume_requires_journal(self, sample_file, capsys):
        assert main(["infer", sample_file, "--resume"]) == 2
        assert "--journal" in capsys.readouterr().err

    #: How a resume differs from the journaled run
    #: ``infer --workers 2 --min-split-mb 0.001`` over 400 records (4
    #: splits): the flags it sets (``None`` for a switch), or a file
    #: that grew meanwhile.
    CHANGES = {
        "workers": {"--workers": "1"},
        "min-split-mb": {"--min-split-mb": "0.004"},
        "permissive": {"--permissive": None},
        "stats": {"--stats": "basic"},
        "appended": {},
    }

    @pytest.mark.parametrize("change", CHANGES)
    def test_resume_that_differs_recomputes(self, tmp_path, capsys,
                                            change):
        """The journal files each summary under its split's bytes and
        the run's flags: a resume with other flags or over a changed
        file maps the splits whose key changed, journals them too, and
        prints what a fresh run of its own invocation prints."""
        from repro.store.journal import read_journal

        data = tmp_path / "data.ndjson"
        write_ndjson(data, [{"k": i, "v": str(i)} for i in range(400)])
        journal = tmp_path / "run.journal"

        def invocation(flags):
            return ["infer", str(data)] + [
                arg for flag, value in flags.items()
                for arg in (flag, value) if arg is not None
            ]

        first = {"--workers": "2", "--min-split-mb": "0.001"}
        assert main(invocation(first) + ["--journal", str(journal)]) == 0
        assert len(read_journal(journal).completed) == 4
        if change == "appended":
            with open(data, "a", encoding="utf-8") as handle:
                handle.write('{"k": "late", "w": null}\n')
        argv = invocation({**first, **self.CHANGES[change]})
        capsys.readouterr()
        assert main(argv + ["--journal", str(journal), "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert main(argv) == 0
        assert resumed == capsys.readouterr().out
        state = read_journal(journal)
        assert state.committed
        assert len(state.completed) > 4


class TestFsckCli:
    def test_ok_checkpoint_and_journal(self, sample_file, tmp_path, capsys):
        journal = tmp_path / "run.journal"
        ckpt = tmp_path / "ckpt"
        assert main(["infer", sample_file, "--journal", str(journal),
                     "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["fsck", str(ckpt), str(journal)]) == 0
        out = capsys.readouterr().out
        assert "checkpoint" in out and "journal" in out
        assert out.count(" ok ") >= 2 or out.count("ok") >= 2

    def test_json_reports(self, sample_file, tmp_path, capsys):
        import json as _json

        journal = tmp_path / "run.journal"
        assert main(["infer", sample_file, "--journal", str(journal)]) == 0
        capsys.readouterr()
        assert main(["fsck", str(journal), "--json"]) == 0
        report = _json.loads(capsys.readouterr().out)
        assert report["status"] == "ok"
        assert report["committed"] is True

    def test_missing_path_exits_nonzero(self, tmp_path, capsys):
        assert main(["fsck", str(tmp_path / "nothing")]) == 1
        assert "not-found" in capsys.readouterr().out

    def test_corrupt_journal_reported(self, sample_file, tmp_path, capsys):
        journal = tmp_path / "run.journal"
        assert main(["infer", sample_file, "--journal", str(journal)]) == 0
        data = bytearray(journal.read_bytes())
        data[len(data) // 3] ^= 0xFF
        journal.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["fsck", str(journal)]) == 1
        assert "corrupt" in capsys.readouterr().out

    def test_summary_cache_directory(self, sample_file, tmp_path, capsys):
        cache = tmp_path / "sumcache"
        assert main(
            ["infer", sample_file, "--summary-cache", str(cache)]
        ) == 0
        capsys.readouterr()
        assert main(["fsck", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "summary-cache" in out and "ok" in out

    def test_summary_cache_json_and_corruption(
        self, sample_file, tmp_path, capsys
    ):
        import json as _json

        cache = tmp_path / "sumcache"
        assert main(
            ["infer", sample_file, "--summary-cache", str(cache)]
        ) == 0
        capsys.readouterr()
        assert main(["fsck", str(cache), "--json"]) == 0
        report = _json.loads(capsys.readouterr().out)
        assert report["kind"] == "summary-cache"
        assert report["status"] == "ok"
        assert report["entries"] >= 1

        entry = next((cache / "objects").glob("*/*.sum"))
        entry.write_bytes(entry.read_bytes()[:10])
        assert main(["fsck", str(cache)]) == 1
        assert "corrupt" in capsys.readouterr().out


class TestStoreErrors:
    """A damaged, foreign-version or locked store ends the command with
    ``error: ...`` naming the directory and exit 1, not a traceback."""

    GOLDEN_FORMAT1 = Path(__file__).resolve().parent / "golden" / "checkpoint"

    def _checkpoint(self, tmp_path, sample_file, format1=False):
        import shutil

        ckpt = tmp_path / "ckpt"
        if format1:
            shutil.copytree(self.GOLDEN_FORMAT1, ckpt)
        else:
            assert main(["infer", sample_file, "--checkpoint",
                         str(ckpt)]) == 0
        return ckpt

    def _setup(self, case, tmp_path, sample_file):
        """Build the damaged store for ``case``; returns the command and
        the directory its error must name."""
        import json
        import os

        update = ["infer", sample_file, "--update", "--checkpoint"]
        if case == "refuse-to-replace":
            target = tmp_path / "precious"
            target.mkdir()
            (target / "notes.txt").write_text("not a checkpoint")
            return ["infer", sample_file, "--checkpoint", str(target)], target
        ckpt = self._checkpoint(tmp_path, sample_file,
                                format1=case.endswith("format1"))
        if case == "future-format":
            manifest = json.loads((ckpt / "MANIFEST.json").read_text())
            manifest["format_version"] = 9
            (ckpt / "MANIFEST.json").write_text(json.dumps(manifest))
        elif case == "corrupt-digests":
            raw = bytearray((ckpt / "distinct.digests").read_bytes())
            raw[0] ^= 0xFF
            (ckpt / "distinct.digests").write_bytes(bytes(raw))
        elif case == "corrupt-distinct-format1":
            (ckpt / "distinct.types").write_text("{a: Nim}\n")
        elif case == "missing-digests":
            (ckpt / "distinct.digests").unlink()
        elif case == "missing-distinct-format1":
            (ckpt / "distinct.types").unlink()
        elif case in ("locked-update", "locked-merge"):
            with open(str(ckpt) + ".lock", "w") as handle:
                handle.write(f"{os.getpid()} localhost\n")
            if case == "locked-merge":
                other = tmp_path / "other"
                assert main(["infer", sample_file, "--checkpoint",
                             str(other)]) == 0
                return ["merge", str(ckpt), str(other),
                        "-o", str(tmp_path / "merged")], ckpt
        return update + [str(ckpt)], ckpt

    @pytest.mark.parametrize("case", [
        "future-format", "corrupt-digests", "corrupt-distinct-format1",
        "missing-digests", "missing-distinct-format1", "refuse-to-replace",
        "locked-update", "locked-merge",
    ])
    def test_store_error_is_reported(self, case, sample_file, tmp_path,
                                     capsys):
        argv, directory = self._setup(case, tmp_path, sample_file)
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(directory) in err
        assert "Traceback" not in err


class TestInputErrors:
    """One error seam in ``main``: a malformed line, a missing file or a
    bad schema ends every sub-command with ``error: ...`` naming the path
    (and the line, for a syntax error) and exit 1, not a traceback."""

    COMMANDS = {
        "infer": ["infer", "{file}"],
        "infer-process": ["infer", "{file}", "--parallel", "2"],
        "stats": ["stats", "{file}"],
        "statistics": ["statistics", "{file}"],
        "paths": ["paths", "{file}"],
        "check-path": ["check-path", "{file}", "a"],
        "diff": ["diff", "{file}", "{file}"],
        "project": ["project", "{file}", "a"],
        "validate": ["validate", "{file}", "--schema", "{{a: Num}}"],
        "report": ["report", "{file}"],
    }

    def _error(self, argv, capsys) -> str:
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_malformed_line(self, command, tmp_path, capsys):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"a": 1}\nbad\n{"a": 2}\n')
        argv = [arg.format(file=path) for arg in self.COMMANDS[command]]
        err = self._error(argv, capsys)
        assert f"({path}, line 2, column 1)" in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_file(self, command, tmp_path, capsys):
        path = tmp_path / "missing.ndjson"
        argv = [arg.format(file=path) for arg in self.COMMANDS[command]]
        assert str(path) in self._error(argv, capsys)

    def test_schema_syntax(self, sample_file, capsys):
        err = self._error(["validate", sample_file, "--schema", "{a:"],
                          capsys)
        assert "position 3" in err

    def test_missing_schema_file(self, sample_file, tmp_path, capsys):
        path = tmp_path / "missing.schema"
        err = self._error(
            ["validate", sample_file, "--schema-file", str(path)], capsys
        )
        assert str(path) in err

    def test_unwritable_output(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.ndjson"
        err = self._error(["generate", "twitter", "10", str(out)], capsys)
        assert str(out) in err


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        out = capsys.readouterr().out.strip()
        assert out == f"json-schema-infer {repro.__version__}"

    def test_version_single_sourced_from_pyproject(self):
        import re
        from pathlib import Path

        import repro

        pyproject = Path(repro.__file__).parents[2] / "pyproject.toml"
        match = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
        )
        assert match is not None
        assert repro.__version__ == match.group(1)


class TestStatisticsCommand:
    def test_infer_stats_does_not_change_schema(self, sample_file, capsys):
        assert main(["infer", sample_file]) == 0
        plain = capsys.readouterr().out
        for mode in ("basic", "sketches"):
            assert main(["infer", sample_file, "--stats", mode]) == 0
            assert capsys.readouterr().out == plain

    def test_statistics_from_file(self, sample_file, capsys):
        assert main(["statistics", sample_file]) == 0
        out = capsys.readouterr().out
        assert "# Statistics:" in out
        assert "mode sketches" in out
        assert "$.a" in out
        assert "distinct" in out

    def test_statistics_basic_mode(self, sample_file, capsys):
        assert main(["statistics", sample_file, "--stats", "basic"]) == 0
        assert "mode basic" in capsys.readouterr().out

    def test_statistics_from_checkpoint(self, sample_file, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(["infer", sample_file, "--stats", "sketches",
                     "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["statistics", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "mode sketches" in out
        assert "$.b.c" in out

    def test_statistics_rejects_stats_free_checkpoint(
            self, sample_file, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(["infer", sample_file, "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["statistics", str(ckpt)]) == 1
        assert "carries no statistics" in capsys.readouterr().err

    def test_update_preserves_statistics(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        first = tmp_path / "one.ndjson"
        write_ndjson(first, [{"n": 1}, {"n": 2}])
        second = tmp_path / "two.ndjson"
        write_ndjson(second, [{"n": 3, "s": "x"}])
        assert main(["infer", str(first), "--stats", "basic",
                     "--checkpoint", str(ckpt)]) == 0
        assert main(["infer", str(second), "--stats", "basic",
                     "--checkpoint", str(ckpt), "--update"]) == 0
        capsys.readouterr()
        from repro.store.checkpoint import load_checkpoint

        bundle = load_checkpoint(ckpt).summary.stats
        assert bundle is not None
        assert bundle.record_count == 3


def _run_repro(argv, signal_with=None, timeout=120):
    """``python -m repro argv`` in a session of its own, with a deadline.

    ``signal_with(proc)`` runs while the command does.  Output goes
    through files, not pipes, so that a worker left behind cannot block
    the capture; whatever is left of the process group is killed at the
    end, and ``group_emptied`` says whether anything was.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [REPO_SRC, env.get("PYTHONPATH")])
    )
    with tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            env=env, stdout=out, stderr=err, start_new_session=True,
        )
        group_emptied = False
        try:
            if signal_with is not None:
                signal_with(proc)
            proc.wait(timeout=timeout)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    group_emptied = True
                    break
                time.sleep(0.05)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        out.seek(0)
        err.seek(0)
        return SimpleNamespace(
            returncode=proc.returncode, stdout=out.read(),
            stderr=err.read(), group_emptied=group_emptied,
        )


class TestInterrupt:
    """A terminal's Ctrl-C signals the whole process group, the forked
    workers as well as the driver.  A journaled ``infer --workers 2``
    finishes the tasks in flight, says so once, leaves nothing running
    and exits 75; ``--resume`` then prints the uninterrupted run's
    output.
    """

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        # Key explosion: the run maps for far longer than a signal takes
        # to arrive (each of its 4 tasks about 0.7 s on a 2-vCPU host).
        path = tmp_path_factory.mktemp("interrupt") / "wikidata.ndjson"
        write_dataset("wikidata", 6000, path)
        return path

    @pytest.fixture(scope="class")
    def uninterrupted(self, corpus):
        done = _run_repro(["infer", str(corpus), "--workers", "2"])
        assert done.returncode == 0, done.stderr
        return done.stdout

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                             ids=["SIGINT", "SIGTERM"])
    def test_group_signal_drains_once_and_resumes(
        self, corpus, uninterrupted, tmp_path, signum
    ):
        journal = tmp_path / "run.journal"
        argv = ["infer", str(corpus), "--workers", "2",
                "--journal", str(journal)]

        def interrupt(proc):
            deadline = time.monotonic() + 60
            while not journal.exists() or not journal.stat().st_size:
                assert proc.poll() is None, "the run ended unsignalled"
                assert time.monotonic() < deadline, "no journal header"
                time.sleep(0.01)
            # The driver forks its workers right after the header; wait
            # the moment that takes, so that the signal reaches them.
            time.sleep(0.2)
            os.killpg(proc.pid, signum)

        interrupted = _run_repro(argv, signal_with=interrupt)
        assert interrupted.stderr.count("interrupted: draining") == 1, (
            interrupted.stderr
        )
        assert interrupted.group_emptied
        assert interrupted.returncode == EXIT_RESUMABLE, interrupted.stderr
        assert "rerun with --resume" in interrupted.stderr
        # The drain finished the 2 tasks in flight and started no other.
        from repro.store.journal import read_journal

        state = read_journal(journal)
        assert not state.committed
        assert len(state.completed) == 2
        resumed = _run_repro(argv + ["--resume"])
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == uninterrupted
