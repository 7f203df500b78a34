"""The map phase's decode lane against the strict parser.

For any input the lane — the guarded C decoder, the kernel's typing and
:func:`repro.jsonio.parser.loads` as the arbiter of every miss — gives
what a strict parse gives: the schema of
``fuse_all(infer_type(loads(line)))``, the same record and distinct
counts, the same quarantine entries with absolute file line numbers,
and the same error diagnostics (message, source, line, column).  The
decoder against the arbiter, record by record, is
``tests/jsonio/test_differential.py``.

Earlier releases had a ``parse_lane`` knob.  Some cases here keep its
values (:data:`LANES`) as case ids; every one of them runs the one
decode lane.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.printer import print_type
from repro.engine import Context
from repro.inference.fusion import fuse_all
from repro.inference.infer import infer_type
from repro.inference.kernel import (
    PartitionAccumulator,
    PhaseTimings,
    accumulate_ndjson_partition,
    merge_phase_timings,
)
from repro.inference.pipeline import infer_ndjson_file
from repro.inference.typestream import guarded_decoder
from repro.jsonio.errors import DuplicateKeyError, JsonError
from repro.jsonio.parser import loads
from repro.store.journal import JournalMismatchError, read_journal

#: The values of the ``parse_lane`` knob of earlier releases, kept as
#: case ids.
LANES = ["strict", "hooks", "fast", "auto"]

#: An integer literal well past CPython's default ``int()`` conversion
#: limit (``sys.get_int_max_str_digits()``, 4300 digits): the strict
#: tokenizer rejects it as a located syntax error and the decoder
#: leaves it to the strict parser.
HUGE_INT = "9" * 5000


def _numbered(lines):
    return list(enumerate(lines, start=1))


GOOD_LINES = [
    '{"a": 1, "b": "x"}',
    '{"a": 2.5, "b": "y", "c": [1, 2, 3]}',
    '{"a": null, "d": {"nested": [true, false, {"deep": []}]}}',
    '[]',
    '[{"k": "v"}, 17, "s"]',
    '"bare string"',
    'true',
    'null',
    '-12e3',
    '{}',
    '{"a": 1, "b": "x"}',
    # A validly *paired* surrogate escape (an emoji): the decoder leaves
    # it to the strict parser (conservative surrogate pre-check), which
    # accepts it.
    '{"emoji": "\\ud83d\\ude00"}',
]


def strict_fold(lines):
    """``(schema, records, distinct)`` of the pure fold over the values
    :func:`loads` parses from ``lines``."""
    types = [infer_type(loads(line)) for line in lines]
    return print_type(fuse_all(types)), len(types), len(set(types))


def outcome(result):
    return (print_type(result.schema), result.record_count,
            result.distinct_type_count)


def strict_errors(path):
    """``(line number, message)`` of every line :func:`loads` rejects,
    read as the pipeline reads it (stripped, blank lines counted)."""
    rejected = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                loads(line, source=str(path), first_line=number)
            except JsonError as exc:
                rejected.append((number, str(exc)))
    return rejected


def quarantine(run):
    return [(b.line_number, b.error) for b in run.bad_records]


class TestLaneEquivalence:
    def test_all_lanes_same_summary(self):
        s = accumulate_ndjson_partition(_numbered(GOOD_LINES))
        assert outcome(s) == strict_fold(GOOD_LINES)
        assert s.skipped == ()

    @pytest.mark.parametrize("lane", LANES)
    def test_pipeline_lanes_agree_with_strict(self, lane, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text("\n".join(GOOD_LINES) + "\n", encoding="utf-8")
        assert outcome(infer_ndjson_file(path)) == strict_fold(GOOD_LINES)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_fast_lane_matches_sequential_strict(
        self, backend, tmp_path
    ):
        path = tmp_path / "data.ndjson"
        path.write_text("\n".join(GOOD_LINES * 5) + "\n", encoding="utf-8")
        with Context(parallelism=2, backend=backend) as ctx:
            run = infer_ndjson_file(path, context=ctx, num_partitions=4)
        assert outcome(run) == strict_fold(GOOD_LINES * 5)

    def test_interned_pointer_equality_within_partition(self):
        acc = PartitionAccumulator()
        decode = guarded_decoder()
        for line in GOOD_LINES[:-1]:
            decoded = acc.type_value(decode(line))
            assert decoded is acc.interner.intern(infer_type(loads(line)))


class TestPermissiveQuarantine:
    # A mid-file poison record plus blank lines: absolute physical line
    # numbers (blank lines counted) must come out as loads numbers them.
    TEXT = (
        '{"a": 1}\n'
        "\n"
        '{"a": 2, "b": "x"}\n'
        '{"broken": \n'
        "\n"
        '{"a": 3, "a": 4}\n'
        "nope\n"
        '{"a": 5}\n'
        '{"n": ' + HUGE_INT + '}\n'
    )

    def test_bad_records_identical_across_lanes(self, tmp_path):
        path = tmp_path / "poison.ndjson"
        path.write_text(self.TEXT, encoding="utf-8")
        expected = strict_errors(path)
        assert [n for n, _ in expected] == [4, 6, 7, 9]
        for stats_mode in ("off", "basic", "sketches"):
            run = infer_ndjson_file(path, permissive=True,
                                    stats_mode=stats_mode)
            assert quarantine(run) == expected, stats_mode
            assert run.record_count == 3
            assert print_type(run.schema) == "{a: Num, b: Str?}"

    def test_duplicate_key_quarantine_position(self, tmp_path):
        path = tmp_path / "poison.ndjson"
        path.write_text(self.TEXT, encoding="utf-8")
        dup = infer_ndjson_file(path, permissive=True).bad_records[1]
        assert dup.line_number == 6
        assert "duplicate object key 'a'" in dup.error
        assert "line 6" in dup.error

    def test_lone_surrogate_quarantined_identically(self, tmp_path):
        # The stdlib scanner accepts {"a": "\ud800"}; loads rejects it,
        # and so must the lane.
        path = tmp_path / "surrogate.ndjson"
        path.write_text(
            '{"a": 1}\n{"a": "\\ud800"}\n{"a": 2}\n', encoding="utf-8"
        )
        run = infer_ndjson_file(path, permissive=True)
        assert run.record_count == 2
        assert quarantine(run) == strict_errors(path)
        assert "unpaired high surrogate" in run.bad_records[0].error

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_quarantine_identical(self, backend, tmp_path):
        path = tmp_path / "poison.ndjson"
        path.write_text(self.TEXT, encoding="utf-8")
        with Context(parallelism=2, backend=backend) as ctx:
            run = infer_ndjson_file(path, context=ctx, num_partitions=3,
                                    permissive=True)
        assert quarantine(run) == strict_errors(path)
        assert print_type(run.schema) == "{a: Num, b: Str?}"


class TestStrictErrorIdentity:
    CASES = [
        '{"broken": ',
        '{"a": 1, "a": 2}',
        "nope",
        "[1, 2,]",
        '{"a": 1} trailing',
        "",
        # Lone/unpaired surrogate escapes: the stdlib C scanner accepts
        # them, the strict grammar rejects them.
        '{"a": "\\ud800"}',
        '"\\udc00"',
        '"\\ud800x"',
        # Integer literals past int()'s digit limit: a located syntax
        # error from loads, a miss for the decoder.
        pytest.param('{"n": ' + HUGE_INT + '}', id="huge-int"),
        pytest.param('{"n": -' + HUGE_INT + '}', id="huge-negative-int"),
    ]

    @pytest.mark.parametrize("bad", CASES)
    @pytest.mark.parametrize("lane", LANES)
    def test_same_diagnostic_as_strict(self, lane, bad):
        with pytest.raises(JsonError) as strict:
            loads(bad, source="feed.ndjson", first_line=7)
        with pytest.raises(JsonError) as info:
            accumulate_ndjson_partition([(7, bad)], source="feed.ndjson")
        got, expected = info.value, strict.value
        assert (type(got), str(got), got.line, got.column, got.source) == (
            type(expected), str(expected), expected.line, expected.column,
            expected.source,
        )

    def test_duplicate_key_error_type_and_position(self):
        with pytest.raises(DuplicateKeyError) as info:
            accumulate_ndjson_partition(
                [(3, '{"k": 1, "k": 2}')], source="f.ndjson",
            )
        assert info.value.line == 3
        assert info.value.column == 10
        assert info.value.source == "f.ndjson"


class TestArbitratedStatistics:
    """Records the decoder misses but :func:`loads` accepts are observed
    by the statistics like every other record."""

    LINES = [
        '{"a": 1, "s": "x"}',
        '{"a": 2.5, "t": [1, "y", null]}',
        '{"s": "\\ud83d\\ude00"}',     # a paired surrogate escape
        '{"s": "\\\\ud800", "a": 3}',  # an escaped backslash, then ud800
        '{"a": 1, "a": 2}',            # rejected: duplicate key
        '{"s": "\\ud800"}',            # rejected: lone surrogate
        "nope",                        # rejected
        '{"a": 4, "t": []}',
    ]

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("arbitrated") / "data.ndjson"
        path.write_text("\n".join(self.LINES) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("backend", [None, "process"])
    @pytest.mark.parametrize("stats_mode", ["basic", "sketches"])
    def test_bundle_equals_the_oracle_fold(self, corpus, stats_mode,
                                           backend):
        accepted = []
        for line in self.LINES:
            try:
                accepted.append(loads(line))
            except JsonError:
                continue
        oracle = PartitionAccumulator(stats_mode=stats_mode)
        oracle.add_many(accepted)
        if backend is None:
            run = infer_ndjson_file(corpus, permissive=True,
                                    stats_mode=stats_mode)
        else:
            with Context(parallelism=2, backend=backend) as ctx:
                run = infer_ndjson_file(
                    corpus, context=ctx, num_partitions=3,
                    min_split_bytes=1, permissive=True,
                    stats_mode=stats_mode,
                )
        assert run.record_count == len(accepted) == 5
        assert run.skipped_count == 3
        assert run.stats.to_bytes() == oracle.stats.to_bytes()


class TestLaneResolution:
    def test_unknown_lane_rejected(self, tmp_path):
        # The knob is gone: passing it fails loudly, not silently.
        path = tmp_path / "data.ndjson"
        path.write_text('{"a": 1}\n', encoding="utf-8")
        with pytest.raises(TypeError, match="parse_lane"):
            infer_ndjson_file(path, parse_lane="strict")
        with pytest.raises(TypeError, match="parse_lane"):
            accumulate_ndjson_partition([(1, "{}")], parse_lane="fast")
        with pytest.raises(SystemExit):
            main(["infer", str(path), "--parse-lane", "strict"])

    def test_journal_binds_parse_lane(self, tmp_path):
        # The header keeps the lane label earlier builds signed, derived
        # from the statistics mode; a resume under another mode is
        # refused, naming the flag.
        path = tmp_path / "data.ndjson"
        path.write_bytes(b'{"a": 1}\n' * 50)
        labels = {}
        for stats_mode in ("off", "basic"):
            journal = tmp_path / f"{stats_mode}.journal"
            infer_ndjson_file(str(path), split_mode="bytes",
                              journal_path=str(journal),
                              stats_mode=stats_mode)
            labels[stats_mode] = read_journal(journal).header["parse_lane"]
        assert labels == {"off": "hooks", "basic": "strict"}
        with pytest.raises(JournalMismatchError, match="stats"):
            infer_ndjson_file(
                str(path), split_mode="bytes", stats_mode="off",
                journal_path=str(tmp_path / "basic.journal"), resume=True,
            )


class TestPhaseTimings:
    def test_timings_off_by_default(self, tmp_path):
        # The per-record clock reads are a pure tax when nobody looks at
        # the numbers, so collection is opt-in (--timings on the CLI).
        s = accumulate_ndjson_partition(_numbered(GOOD_LINES))
        assert s.timings is None
        path = tmp_path / "data.ndjson"
        path.write_text("\n".join(GOOD_LINES) + "\n", encoding="utf-8")
        run = infer_ndjson_file(path)
        assert run.phase_timings is None

    def test_partition_summary_carries_timings(self):
        s = accumulate_ndjson_partition(_numbered(GOOD_LINES),
                                        collect_timings=True)
        assert s.timings is not None
        assert s.timings.records == s.record_count
        # Values exist on every run, so decode and typing time apart.
        assert s.timings.parse_s > 0.0
        assert s.timings.type_s > 0.0
        assert s.timings.map_s > 0.0
        assert s.timings.records_per_s > 0.0
        assert s.timings.stats_s == 0.0

    def test_statistics_are_their_own_stage(self):
        s = accumulate_ndjson_partition(_numbered(GOOD_LINES),
                                        collect_timings=True,
                                        stats_mode="basic")
        timings = s.timings
        assert timings.stats_s > 0.0
        assert timings.map_s == pytest.approx(
            timings.parse_s + timings.type_s + timings.fuse_s
            + timings.stats_s
        )

    def test_run_carries_merged_timings(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text("\n".join(GOOD_LINES) + "\n", encoding="utf-8")
        run = infer_ndjson_file(path, collect_timings=True)
        assert run.phase_timings is not None
        assert run.phase_timings.records == run.record_count
        with Context(parallelism=2) as ctx:
            par = infer_ndjson_file(path, context=ctx, num_partitions=4,
                                    collect_timings=True)
        assert par.phase_timings is not None
        assert par.phase_timings.records == par.record_count

    def test_merge_sums_and_tracks_lane(self):
        a = PhaseTimings(1.0, 0.25, 0.5, 10)
        b = PhaseTimings(2.0, 0.5, 0.5, 20, stats_s=0.75)
        merged = merge_phase_timings([a, b, None])
        assert merged == PhaseTimings(3.0, 0.75, 1.0, 30, stats_s=0.75)
        assert merged.map_s == 5.5
        assert merge_phase_timings([]) is None
        assert merge_phase_timings([None]) is None
        # Earlier builds pickled a ``lane`` field too: such timings still
        # unpickle, and merge on their stage buckets.
        old = PhaseTimings(1.0, 0.25, 0.5, 10)
        object.__setattr__(old, "lane", "hooks")
        revived = pickle.loads(pickle.dumps(old))
        assert revived == a
        assert merge_phase_timings([revived, b]) == merged
        # ... and pickled no ``stats_s``: it reads as 0.0.
        old = PhaseTimings(1.0, 0.25, 0.5, 10)
        object.__delattr__(old, "stats_s")
        assert "stats_s" not in pickle.dumps(old).decode("latin-1")
        revived = pickle.loads(pickle.dumps(old))
        assert revived.stats_s == 0.0
        assert revived == a
        assert merge_phase_timings([revived, b]) == merged

    def test_describe_formats(self):
        timings = PhaseTimings(1.0, 0.5, 0.5, 10000)
        assert timings.describe() == (
            "parse 1.000s · type 0.500s · fuse 0.500s · 5,000 records/s"
        )
        assert replace(timings, stats_s=0.5).describe() == (
            "parse 1.000s · type 0.500s · fuse 0.500s · stats 0.500s"
            " · 4,000 records/s"
        )
        assert replace(timings, records=0).describe().endswith(
            " · 0 records/s"
        )

    def test_untimed_throughput_is_zero(self):
        assert PhaseTimings().records_per_s == 0.0
