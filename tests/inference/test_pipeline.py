"""Unit and property tests for the inference pipelines (repro.inference.pipeline)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.semantics import matches
from repro.core.type_parser import parse_type as p
from repro.core.types import EMPTY
from repro.engine.context import Context
from repro.inference.pipeline import (
    SchemaInferencer,
    infer_partitioned,
    infer_schema,
    run_inference,
)
from tests.conftest import json_records

RECORDS = [
    {"a": 1},
    {"a": "x", "b": True},
    {"a": None, "c": [1, 2]},
    {"a": 1},
]

EXPECTED = p("{a: Null + Num + Str, b: Bool?, c: [Num, Num]?}")


class TestInferSchemaLocal:
    def test_known_collection(self):
        assert infer_schema(RECORDS) == EXPECTED

    def test_empty_collection(self):
        assert infer_schema([]) == EMPTY

    def test_single_value(self):
        assert infer_schema([{"a": 1}]) == p("{a: Num}")

    def test_accepts_any_iterable(self):
        assert infer_schema(iter(RECORDS)) == EXPECTED

    @given(st.lists(json_records, max_size=8))
    def test_schema_admits_every_record(self, records):
        schema = infer_schema(records)
        assert all(matches(r, schema) for r in records)


class TestInferSchemaDistributed:
    def test_matches_local_result(self):
        with Context(parallelism=4) as ctx:
            distributed = infer_schema(RECORDS, context=ctx, num_partitions=3)
        assert distributed == infer_schema(RECORDS)

    def test_more_partitions_than_records(self):
        with Context(parallelism=2) as ctx:
            got = infer_schema(RECORDS, context=ctx, num_partitions=16)
        assert got == infer_schema(RECORDS)

    def test_empty_collection(self):
        with Context(parallelism=2) as ctx:
            assert infer_schema([], context=ctx) == EMPTY

    @given(st.lists(json_records, max_size=10))
    def test_distributed_equals_local(self, records):
        """The associativity theorem at work: partitioned tree reduction
        produces exactly the sequential schema."""
        with Context(parallelism=3) as ctx:
            distributed = infer_schema(records, context=ctx, num_partitions=4)
        assert distributed == infer_schema(records)


class TestRunInference:
    def test_counts(self):
        run = run_inference(RECORDS)
        assert run.record_count == 4
        assert run.distinct_type_count == 3  # {"a":1} repeats
        assert run.schema == EXPECTED

    def test_timings_populated(self):
        run = run_inference(RECORDS)
        assert run.map_seconds >= 0
        assert run.reduce_seconds >= 0
        assert run.total_seconds == run.map_seconds + run.reduce_seconds

    def test_empty(self):
        run = run_inference([])
        assert run.record_count == 0
        assert run.distinct_type_count == 0
        assert run.schema == EMPTY

    def test_engine_backed_matches_local(self):
        with Context(parallelism=2) as ctx:
            engine_run = run_inference(RECORDS, context=ctx, num_partitions=2)
        local_run = run_inference(RECORDS)
        assert engine_run.schema == local_run.schema
        assert engine_run.record_count == local_run.record_count
        assert engine_run.distinct_type_count == local_run.distinct_type_count

    def test_dedupe_off_still_sound(self):
        run = run_inference(RECORDS, dedupe=False)
        assert all(matches(r, run.schema) for r in RECORDS)

    def test_engine_dedupe_off_matches_local(self):
        with Context(parallelism=2) as ctx:
            engine_raw = run_inference(
                RECORDS, context=ctx, num_partitions=3, dedupe=False
            )
        assert engine_raw.schema == run_inference(RECORDS, dedupe=False).schema

    def test_dedupe_is_exact_on_duplicate_positional_arrays(self):
        """fuse_multiset self-fuses duplicated types, so deduplication is
        an exact optimisation even for positional arrays."""
        records = [{"a": [1]}, {"a": [1]}]
        deduped = run_inference(records, dedupe=True).schema
        raw = run_inference(records, dedupe=False).schema
        assert deduped == raw == p("{a: [Num*]}")


class TestSchemaInferencer:
    def test_incremental_equals_batch(self):
        inf = SchemaInferencer()
        inf.add_many(RECORDS)
        assert inf.schema == infer_schema(RECORDS)
        assert inf.record_count == 4

    def test_empty_inferencer(self):
        inf = SchemaInferencer()
        assert inf.schema == EMPTY
        assert inf.record_count == 0

    def test_add_type(self):
        inf = SchemaInferencer()
        inf.add_type(p("{a: Num}"), records=10)
        inf.add_type(p("{b: Str}"), records=5)
        assert inf.schema == p("{a: Num?, b: Str?}")
        assert inf.record_count == 15

    def test_merge(self):
        left, right = SchemaInferencer(), SchemaInferencer()
        left.add_many(RECORDS[:2])
        right.add_many(RECORDS[2:])
        merged = left.merge(right)
        assert merged.schema == infer_schema(RECORDS)
        assert merged.record_count == 4

    def test_merge_leaves_inputs_unchanged(self):
        left, right = SchemaInferencer(), SchemaInferencer()
        left.add({"a": 1})
        right.add({"b": 2})
        before = left.schema
        left.merge(right)
        assert left.schema == before

    def test_or_operator(self):
        left, right = SchemaInferencer(), SchemaInferencer()
        left.add({"a": 1})
        right.add({"b": "x"})
        assert (left | right).schema == p("{a: Num?, b: Str?}")

    @given(st.lists(json_records, max_size=8), st.integers(0, 8))
    def test_split_then_merge_equals_batch(self, records, cut):
        """Incremental maintenance correctness, per the introduction."""
        cut = min(cut, len(records))
        left, right = SchemaInferencer(), SchemaInferencer()
        left.add_many(records[:cut])
        right.add_many(records[cut:])
        assert left.merge(right).schema == infer_schema(records)

    def test_merge_keeps_the_distinct_types(self, tmp_path):
        left, right, whole = (SchemaInferencer() for _ in range(3))
        left.add_many(RECORDS[:2])
        right.add_many(RECORDS[2:])
        whole.add_many(RECORDS)
        merged = (left | right).save_checkpoint(tmp_path / "merged").manifest
        single = whole.save_checkpoint(tmp_path / "whole").manifest
        assert merged.record_count == single.record_count == 4
        assert merged.distinct_type_count == single.distinct_type_count == 3

    @pytest.mark.parametrize("mode", ["basic", "sketches"])
    def test_checkpoint_resume_continues_statistics(self, tmp_path, mode):
        first, whole = SchemaInferencer(mode), SchemaInferencer(mode)
        first.add_many(RECORDS[:2])
        whole.add_many(RECORDS)
        first.save_checkpoint(tmp_path / "first")
        resumed = SchemaInferencer.from_checkpoint(tmp_path / "first")
        resumed.add_many(RECORDS[2:])
        assert resumed.stats is not None
        assert resumed.stats.to_bytes() == whole.stats.to_bytes()

    @pytest.mark.parametrize("mode", ["basic", "sketches"])
    def test_resaved_checkpoint_keeps_statistics(self, tmp_path, mode):
        first = SchemaInferencer(mode)
        first.add_many(RECORDS[:2])
        first.save_checkpoint(tmp_path / "first")
        resumed = SchemaInferencer.from_checkpoint(tmp_path / "first")
        resumed.add(RECORDS[2])
        resumed.save_checkpoint(tmp_path / "resaved")
        assert (tmp_path / "resaved" / "statistics.json").read_bytes() == (
            resumed.stats.to_bytes()
        )


class TestInferPartitioned:
    def test_partitioned_equals_global(self):
        """The Table 8 strategy is exact, thanks to associativity."""
        partitions = [RECORDS[:2], RECORDS[2:]]
        run = infer_partitioned(partitions)
        assert run.schema == infer_schema(RECORDS)
        assert run.record_count == 4

    def test_per_partition_reports(self):
        run = infer_partitioned([RECORDS[:2], RECORDS[2:], []])
        assert [r.record_count for r in run.partitions] == [2, 2, 0]
        assert all(r.seconds >= 0 for r in run.partitions)
        assert run.final_fuse_seconds >= 0

    def test_empty_partition_list(self):
        run = infer_partitioned([])
        assert run.schema == EMPTY
        assert run.record_count == 0

    @given(st.lists(st.lists(json_records, max_size=4), max_size=4))
    def test_any_partitioning_same_schema(self, partitions):
        flat = [r for part in partitions for r in part]
        assert infer_partitioned(partitions).schema == infer_schema(flat)
