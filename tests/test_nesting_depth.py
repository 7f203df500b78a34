"""Nesting past ``MAX_DEPTH`` is a parse error, on every path.

The strict parser rejects a value nested deeper than
:data:`repro.jsonio.parser.MAX_DEPTH` with a located
:class:`~repro.jsonio.errors.JsonSyntaxError`, and the map phase's
decode lane defers such a record (or one whose decode exhausts the
stack) to it.  So a too-deep line fails a strict run with its line
number and is quarantined under ``--permissive`` (skipped under
``--skip-invalid``) in every statistics mode, on every backend and in
every sub-command, while a line at the bound goes through every one of
them, checkpoint updates included.

Earlier releases had a ``parse_lane`` knob; its values ``fast`` and
``strict`` stay as case ids, and both run the one decode lane.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.engine import Context
from repro.engine.scheduler import BACKENDS
from repro.inference.pipeline import infer_ndjson_file
from repro.jsonio.errors import JsonSyntaxError
from repro.jsonio.parser import MAX_DEPTH, loads


def nested(shape: str, depth: int) -> str:
    """A value ``depth`` arrays or records deep."""
    if shape == "array":
        return "[" * depth + "]" * depth
    return '{"a": ' * depth + "1" + "}" * depth


def write_corpus(path, deep_lines: dict[int, str], total: int = 12):
    """``total`` flat records, with ``deep_lines[n]`` as line ``n``."""
    lines = [deep_lines.get(n) or json.dumps({"id": n, "a": "x"})
             for n in range(1, total + 1)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestParser:
    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 5000])
    @pytest.mark.parametrize("shape", ["array", "record"])
    def test_past_the_bound_is_located(self, shape, depth):
        with pytest.raises(JsonSyntaxError, match="nested deeper") as info:
            loads(nested(shape, depth), source="f.ndjson", first_line=7)
        assert (info.value.source, info.value.line) == ("f.ndjson", 7)


#: Line number -> too-deep line, in one corpus.
TOO_DEEP = {
    3: nested("array", MAX_DEPTH + 1),
    5: nested("record", MAX_DEPTH + 1),
    8: nested("array", 5000),
    10: nested("record", 5000),
}


@pytest.fixture(scope="module")
def too_deep(tmp_path_factory):
    return write_corpus(tmp_path_factory.mktemp("deep") / "deep.ndjson",
                        TOO_DEEP)


@pytest.fixture(scope="module")
def contexts():
    opened = {b: Context(parallelism=2, backend=b) for b in BACKENDS}
    yield opened
    for ctx in opened.values():
        ctx.stop()


class TestQuarantine:
    @pytest.mark.parametrize("backend", [None, *BACKENDS])
    @pytest.mark.parametrize("stats_mode", ["off", "basic", "sketches"])
    @pytest.mark.parametrize("parse_lane", ["fast", "strict"])
    def test_too_deep_lines_are_quarantined(
        self, too_deep, contexts, parse_lane, stats_mode, backend
    ):
        run = infer_ndjson_file(
            too_deep, permissive=True,
            stats_mode=stats_mode, min_split_bytes=1,
            context=contexts.get(backend), num_partitions=4,
        )
        assert [b.line_number for b in run.bad_records] == sorted(TOO_DEEP)
        assert all("nested deeper" in b.error for b in run.bad_records)
        assert run.record_count == 12 - len(TOO_DEEP)

    @pytest.mark.parametrize("parse_lane", ["fast", "strict"])
    def test_strict_run_names_the_first(self, too_deep, parse_lane,
                                        capsys):
        assert main(["infer", too_deep]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: nested deeper than {MAX_DEPTH} levels")
        assert f"({too_deep}, line 3," in err

    @pytest.mark.parametrize("argv", [
        ["stats", "{file}"],
        ["statistics", "{file}"],
        ["paths", "{file}"],
        ["check-path", "{file}", "id"],
        ["diff", "{file}", "{file}"],
        ["project", "{file}", "id"],
        ["validate", "{file}", "--schema", "{{id: Num, a: Str}}"],
        ["report", "{file}"],
    ], ids=lambda argv: argv[0])
    def test_skip_invalid_skips_them(self, too_deep, argv, capsys):
        argv = [arg.format(file=too_deep) for arg in argv]
        assert main(argv + ["--skip-invalid"]) == 0
        assert main(argv) == 1
        assert "nested deeper" in capsys.readouterr().err


class TestAtTheBound:
    """One array and one record line ``MAX_DEPTH`` deep, among flat
    records, through every sub-command and ``infer`` path."""

    @pytest.fixture(scope="class")
    def at_bound(self, tmp_path_factory):
        return write_corpus(
            tmp_path_factory.mktemp("bound") / "bound.ndjson",
            {4: nested("array", MAX_DEPTH), 9: nested("record", MAX_DEPTH)},
        )

    @pytest.mark.parametrize("argv", [
        ["stats", "{file}"],
        ["statistics", "{file}"],
        ["paths", "{file}"],
        ["check-path", "{file}", "a"],
        ["diff", "{file}", "{file}"],
        ["project", "{file}", "a"],
        ["report", "{file}"],
    ], ids=lambda argv: argv[0])
    def test_subcommands_complete(self, at_bound, argv, capsys):
        assert main([arg.format(file=at_bound) for arg in argv]) == 0

    def test_validate_against_its_own_schema(self, at_bound, tmp_path,
                                             capsys):
        assert main(["infer", at_bound]) == 0
        schema = tmp_path / "schema.txt"
        schema.write_text(capsys.readouterr().out)
        assert main(["validate", at_bound, "--schema-file",
                     str(schema)]) == 0

    @pytest.mark.parametrize("flags", [
        [],
        ["--parallel", "2", "--backend", "process"],
        ["--stats", "basic"],
        ["--stats", "sketches", "--parallel", "2"],
        ["--pretty"],
        ["--json-schema"],
    ], ids=" ".join)
    def test_infer_completes(self, at_bound, flags, capsys):
        assert main(["infer", at_bound] + flags) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        [],
        ["--parallel", "2", "--backend", "process"],
        ["--stats", "sketches"],
    ], ids=" ".join)
    def test_checkpoint_update_journal_and_cache(self, at_bound, tmp_path,
                                                 flags, capsys):
        """A checkpoint, then an update with the same file, which must
        print what a run over the file twice prints."""
        twice = tmp_path / "twice.ndjson"
        with open(at_bound, encoding="utf-8") as handle:
            twice.write_text(2 * handle.read())
        expected = []
        for source in (at_bound, str(twice)):
            assert main(["infer", source] + flags) == 0
            expected.append(capsys.readouterr().out)
        ckpt, cache = str(tmp_path / "ckpt"), str(tmp_path / "cache")
        for update, journal, want in (([], "j0", expected[0]),
                                      (["--update"], "j1", expected[1])):
            argv = ["infer", at_bound, "--checkpoint", ckpt, *update,
                    "--journal", str(tmp_path / journal),
                    "--summary-cache", cache, *flags]
            assert main(argv) == 0
            assert capsys.readouterr().out == want
        assert main(["statistics", ckpt] if flags[:1] == ["--stats"]
                    else ["fsck", ckpt]) == 0
