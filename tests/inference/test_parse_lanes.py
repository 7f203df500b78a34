"""Two-lane map phase: fast lanes must be indistinguishable from strict.

The contract under test (ISSUE 3): for any input, every resolved lane —
``strict`` and ``hooks`` (stdlib scanner with type-building hooks) —
produces the same schema, the same record and distinct-type counts, the
same quarantine entries with absolute file line numbers, and the same
error diagnostics (message, source, line, column).  The fast lane may
only ever *defer* to strict, never diverge from it.
"""

from __future__ import annotations

import pytest

from repro.core.printer import print_type
from repro.engine import Context
from repro.inference.kernel import (
    PhaseTimings,
    accumulate_ndjson_partition,
    merge_phase_timings,
)
from repro.inference.pipeline import infer_ndjson_file
from repro.inference.typestream import (
    FastLaneMiss,
    HookTyper,
    resolve_lane,
)
from repro.jsonio.errors import DuplicateKeyError, JsonError

ALL_LANES = ["strict", "hooks", "fast", "auto"]
RESOLVED = ["strict", "hooks"]


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
    # A validly *paired* surrogate escape (an emoji): the hooks lane
    # defers it to strict (conservative surrogate pre-check), which
    # accepts — same Str type from every lane.
    '{"emoji": "\\ud83d\\ude00"}',
]


class TestLaneEquivalence:
    def test_all_lanes_same_summary(self):
        results = {}
        for lane in ALL_LANES:
            s = accumulate_ndjson_partition(_numbered(GOOD_LINES),
                                            parse_lane=lane)
            results[lane] = (print_type(s.schema), s.record_count,
                            s.distinct_type_count, s.skipped)
        assert len(set(results.values())) == 1

    @pytest.mark.parametrize("lane", ALL_LANES)
    def test_pipeline_lanes_agree_with_strict(self, lane, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text("\n".join(GOOD_LINES) + "\n", encoding="utf-8")
        strict = infer_ndjson_file(path, parse_lane="strict")
        run = infer_ndjson_file(path, parse_lane=lane)
        assert run.schema == strict.schema
        assert run.record_count == strict.record_count
        assert run.distinct_type_count == strict.distinct_type_count

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_fast_lane_matches_sequential_strict(
        self, backend, tmp_path
    ):
        path = tmp_path / "data.ndjson"
        path.write_text("\n".join(GOOD_LINES * 5) + "\n", encoding="utf-8")
        strict = infer_ndjson_file(path, parse_lane="strict")
        with Context(parallelism=2, backend=backend) as ctx:
            run = infer_ndjson_file(path, context=ctx, num_partitions=4,
                                    parse_lane="fast")
        assert run.schema == strict.schema
        assert run.record_count == strict.record_count
        assert run.distinct_type_count == strict.distinct_type_count

    @pytest.mark.parametrize("lane", RESOLVED[1:])
    def test_interned_pointer_equality_within_partition(self, lane):
        from repro.inference.kernel import PartitionAccumulator
        from repro.inference.infer import infer_type
        from repro.jsonio.parser import loads

        acc = PartitionAccumulator()
        typer = HookTyper(acc)
        deferred = 0
        for line in GOOD_LINES:
            try:
                fast = typer.type_document(line)
            except FastLaneMiss:
                # The lane declines (hooks defers surrogate escapes);
                # the kernel's strict fallback covers such lines, which
                # the accumulate-level equivalence tests exercise.
                deferred += 1
                continue
            strict = acc.interner.intern(infer_type(loads(line)))
            assert fast is strict
        assert deferred <= 1  # only the paired-surrogate line may defer


class TestPermissiveQuarantine:
    # A mid-file poison record plus blank lines: absolute physical line
    # numbers (blank lines counted) must survive both lanes identically.
    TEXT = (
        '{"a": 1}\n'
        "\n"
        '{"a": 2, "b": "x"}\n'
        '{"broken": \n'
        "\n"
        '{"a": 3, "a": 4}\n'
        "nope\n"
        '{"a": 5}\n'
    )

    def test_bad_records_identical_across_lanes(self, tmp_path):
        path = tmp_path / "poison.ndjson"
        path.write_text(self.TEXT, encoding="utf-8")
        runs = {
            lane: infer_ndjson_file(path, parse_lane=lane, permissive=True)
            for lane in ALL_LANES
        }
        strict = runs["strict"]
        assert strict.skipped_count == 3
        assert [b.line_number for b in strict.bad_records] == [4, 6, 7]
        for lane, run in runs.items():
            assert run.bad_records == strict.bad_records, lane
            assert run.schema == strict.schema, lane
            assert run.record_count == strict.record_count == 3

    def test_duplicate_key_quarantine_position(self, tmp_path):
        path = tmp_path / "poison.ndjson"
        path.write_text(self.TEXT, encoding="utf-8")
        for lane in ALL_LANES:
            run = infer_ndjson_file(path, parse_lane=lane, permissive=True)
            dup = run.bad_records[1]
            assert dup.line_number == 6
            assert "duplicate object key 'a'" in dup.error
            assert "line 6" in dup.error

    def test_lone_surrogate_quarantined_identically(self, tmp_path):
        # Without the hooks lane's surrogate deferral the stdlib scanner
        # accepts {"a": "\ud800"} and the record is *counted*; strict
        # quarantines it.  All lanes must quarantine identically.
        path = tmp_path / "surrogate.ndjson"
        path.write_text(
            '{"a": 1}\n{"a": "\\ud800"}\n{"a": 2}\n', encoding="utf-8"
        )
        strict = infer_ndjson_file(path, parse_lane="strict",
                                   permissive=True)
        assert strict.record_count == 2
        assert strict.skipped_count == 1
        assert strict.bad_records[0].line_number == 2
        assert "unpaired high surrogate" in strict.bad_records[0].error
        for lane in ALL_LANES:
            run = infer_ndjson_file(path, parse_lane=lane, permissive=True)
            assert run.bad_records == strict.bad_records, lane
            assert run.record_count == strict.record_count, lane
            assert run.schema == strict.schema, lane

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_quarantine_identical(self, backend, tmp_path):
        path = tmp_path / "poison.ndjson"
        path.write_text(self.TEXT, encoding="utf-8")
        strict = infer_ndjson_file(path, parse_lane="strict",
                                   permissive=True)
        with Context(parallelism=2, backend=backend) as ctx:
            run = infer_ndjson_file(path, context=ctx, num_partitions=3,
                                    parse_lane="fast", permissive=True)
        assert run.bad_records == strict.bad_records
        assert run.schema == strict.schema


class TestStrictErrorIdentity:
    CASES = [
        '{"broken": ',
        '{"a": 1, "a": 2}',
        "nope",
        "[1, 2,]",
        '{"a": 1} trailing',
        "",
        # Lone/unpaired surrogate escapes: the stdlib C scanner accepts
        # them, the strict grammar rejects them — the hooks lane must
        # defer so every lane reports strict's diagnostic.
        '{"a": "\\ud800"}',
        '"\\udc00"',
        '"\\ud800x"',
    ]

    @pytest.mark.parametrize("bad", CASES)
    @pytest.mark.parametrize("lane", ALL_LANES)
    def test_same_diagnostic_as_strict(self, lane, bad):
        try:
            accumulate_ndjson_partition([(7, bad)], source="feed.ndjson",
                                        parse_lane="strict")
        except JsonError as exc:
            expected = (type(exc), str(exc), exc.line, exc.column,
                        exc.source)
        else:
            pytest.fail("strict lane accepted a bad record")
        with pytest.raises(JsonError) as info:
            accumulate_ndjson_partition([(7, bad)], source="feed.ndjson",
                                        parse_lane=lane)
        got = (type(info.value), str(info.value), info.value.line,
               info.value.column, info.value.source)
        assert got == expected

    def test_duplicate_key_error_type_and_position(self):
        for lane in ALL_LANES:
            with pytest.raises(DuplicateKeyError) as info:
                accumulate_ndjson_partition(
                    [(3, '{"k": 1, "k": 2}')], source="f.ndjson",
                    parse_lane=lane,
                )
            assert info.value.line == 3
            assert info.value.column == 10
            assert info.value.source == "f.ndjson"


class TestTypers:
    def test_hook_typer_misses_on_nonstandard_constants(self):
        from repro.inference.kernel import PartitionAccumulator

        typer = HookTyper(PartitionAccumulator())
        for text in ["NaN", "Infinity", "-Infinity", '{"a": NaN}']:
            with pytest.raises(FastLaneMiss):
                typer.type_document(text)

    def test_hook_typer_misses_on_duplicate_keys(self):
        from repro.inference.kernel import PartitionAccumulator

        typer = HookTyper(PartitionAccumulator())
        with pytest.raises(FastLaneMiss):
            typer.type_document('{"k": 1, "k": 2}')

    def test_hook_typer_defers_surrogate_escapes(self):
        # The stdlib scanner would silently accept the lone ones; the
        # typer must never answer for any surrogate-escape-bearing
        # record (paired ones included — strict arbitrates them all).
        from repro.inference.kernel import PartitionAccumulator

        typer = HookTyper(PartitionAccumulator())
        for text in [
            '"\\ud800"',           # lone high
            '"\\udc00"',           # lone low
            '{"a": "\\uD800"}',    # uppercase hex, nested
            '"\\ud83d\\ude00"',    # valid pair (conservative deferral)
        ]:
            with pytest.raises(FastLaneMiss, match="surrogate"):
                typer.type_document(text)

    def test_hook_typer_accepts_non_surrogate_escapes(self):
        from repro.core.printer import print_type as pt
        from repro.inference.kernel import PartitionAccumulator

        typer = HookTyper(PartitionAccumulator())
        # \u escapes outside U+D800-DFFF (including Ø and control
        # escapes) must stay on the fast path.
        assert pt(typer.type_document('{"a": "\\u00d8\\u0041\\n"}')) == \
            "{a: Str}"


class TestLaneResolution:
    def test_strict_stays_strict(self):
        assert resolve_lane("strict") == "strict"

    def test_fast_and_auto_pick_an_implementation(self):
        assert resolve_lane("fast") == "hooks"
        assert resolve_lane("auto") == "hooks"

    def test_resolved_names_pass_through(self):
        assert resolve_lane("hooks") == "hooks"

    def test_unknown_lane_rejected(self):
        with pytest.raises(ValueError, match="unknown parse_lane"):
            resolve_lane("warp")
        with pytest.raises(ValueError, match="unknown parse_lane"):
            accumulate_ndjson_partition([(1, "{}")], parse_lane="warp")


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
        for lane in RESOLVED:
            s = accumulate_ndjson_partition(_numbered(GOOD_LINES),
                                            parse_lane=lane,
                                            collect_timings=True)
            assert s.timings is not None
            assert s.timings.lane == lane
            assert s.timings.records == s.record_count
            assert s.timings.parse_s >= 0.0
            assert s.timings.map_s > 0.0
            assert s.timings.records_per_s > 0.0
            if lane != "strict":
                # Fast lanes type during parsing; no separate type stage.
                assert s.timings.type_s == 0.0

    def test_run_carries_merged_timings(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text("\n".join(GOOD_LINES) + "\n", encoding="utf-8")
        run = infer_ndjson_file(path, parse_lane="strict",
                                collect_timings=True)
        assert run.phase_timings is not None
        assert run.phase_timings.lane == "strict"
        assert run.phase_timings.records == run.record_count
        with Context(parallelism=2) as ctx:
            par = infer_ndjson_file(path, context=ctx, num_partitions=4,
                                    parse_lane="fast", collect_timings=True)
        assert par.phase_timings is not None
        assert par.phase_timings.lane == "hooks"
        assert par.phase_timings.records == par.record_count

    def test_merge_sums_and_tracks_lane(self):
        a = PhaseTimings("hooks", 1.0, 0.0, 0.5, 10)
        b = PhaseTimings("hooks", 2.0, 0.0, 0.5, 20)
        merged = merge_phase_timings([a, b, None])
        assert merged == PhaseTimings("hooks", 3.0, 0.0, 1.0, 30)
        mixed = merge_phase_timings([a, PhaseTimings("strict", 1, 1, 1, 5)])
        assert mixed.lane == "mixed"
        assert merge_phase_timings([]) is None
        assert merge_phase_timings([None]) is None

    def test_describe_formats(self):
        strict = PhaseTimings("strict", 1.0, 0.5, 0.5, 10000)
        assert strict.describe() == (
            "[strict lane] parse 1.000s · type 0.500s · fuse 0.500s"
            " · 5,000 records/s"
        )
        fast = PhaseTimings("hooks", 1.5, 0.0, 0.5, 10000)
        assert fast.describe() == (
            "[hooks lane] parse+type 1.500s · fuse 0.500s"
            " · 5,000 records/s"
        )

    def test_untimed_throughput_is_zero(self):
        assert PhaseTimings().records_per_s == 0.0
