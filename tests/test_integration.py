"""Cross-module integration tests: the full paper pipeline, end to end.

These tests exercise the path a real deployment takes: generate raw NDJSON
text -> parse it with the from-scratch parser -> type every record on the
mini-Spark engine -> fuse distributively -> interrogate the resulting
schema (membership, paths, JSON Schema export) -> maintain it
incrementally.
"""

import pytest

from repro.analysis.paths import iter_schema_paths, resolve_path
from repro.core.semantics import matches
from repro.core.subtyping import is_subtype
from repro.core.normal_form import is_normal
from repro.core.printer import print_type
from repro.core.type_parser import parse_type
from repro.core.values import iter_paths
from repro.datasets import DATASET_NAMES, generate_list, write_dataset
from repro.engine import Context
from repro.inference import (
    SchemaInferencer,
    infer_partitioned,
    infer_schema,
    infer_type,
    presence_report,
    run_inference,
)
from repro.jsonio.ndjson import read_ndjson

N = 150


@pytest.fixture(scope="module", params=sorted(DATASET_NAMES))
def dataset(request):
    return request.param, generate_list(request.param, N)


class TestFileToSchema:
    def test_ndjson_file_through_engine(self, tmp_path):
        path = tmp_path / "data.ndjson"
        write_dataset("twitter", 80, path)
        with Context(parallelism=4) as ctx:
            schema = ctx.ndjson_file(path, 6).map(infer_type).tree_reduce(
                lambda a, b: __import__(
                    "repro.inference", fromlist=["fuse"]
                ).fuse(a, b)
            )
        expected = infer_schema(read_ndjson(path))
        assert schema == expected


class TestSchemaSoundnessOnDatasets:
    def test_every_record_matches_fused_schema(self, dataset):
        _name, values = dataset
        schema = infer_schema(values)
        assert all(matches(v, schema) for v in values)

    def test_every_inferred_type_below_schema(self, dataset):
        _name, values = dataset
        schema = infer_schema(values)
        assert all(is_subtype(infer_type(v), schema) for v in values)

    def test_schema_is_normal(self, dataset):
        _name, values = dataset
        assert is_normal(infer_schema(values))

    def test_schema_round_trips_through_syntax(self, dataset):
        _name, values = dataset
        schema = infer_schema(values)
        assert parse_type(print_type(schema)) == schema

    def test_value_paths_covered_by_schema_paths(self, dataset):
        """The paper's completeness guarantee, on realistic data."""
        _name, values = dataset
        schema = infer_schema(values)
        schema_paths = {path for path, _ in iter_schema_paths(schema)}
        for value in values[:25]:
            for path in iter_paths(value):
                if path != "$":
                    assert path in schema_paths


class TestDistributedConsistency:
    def test_engine_and_local_agree(self, dataset):
        _name, values = dataset
        with Context(parallelism=4) as ctx:
            distributed = run_inference(values, context=ctx, num_partitions=5)
        local = run_inference(values)
        assert distributed.schema == local.schema
        assert distributed.distinct_type_count == local.distinct_type_count

    def test_partitioned_strategy_agrees(self, dataset):
        _name, values = dataset
        quarters = [values[i::4] for i in range(4)]
        assert infer_partitioned(quarters).schema == infer_schema(values)

    def test_incremental_agrees(self, dataset):
        _name, values = dataset
        inferencer = SchemaInferencer()
        for value in values:
            inferencer.add(value)
        assert inferencer.schema == infer_schema(values)


class TestIncrementalEvolution:
    """The introduction's scenario: new records arrive after the fact."""

    def test_new_record_widens_schema_monotonically(self):
        base = generate_list("github", 50)
        schema = infer_schema(base)
        evolved = SchemaInferencer()
        evolved.add_type(schema, records=50)
        novel = {"action": "opened", "entirely_new_field": [1, "x"]}
        evolved.add(novel)
        assert is_subtype(schema, evolved.schema)
        assert matches(novel, evolved.schema)

    def test_unchanged_parts_need_no_recomputation(self):
        parts = [generate_list("twitter", 40, seed=s) for s in (0, 1, 2)]
        full = infer_schema([v for part in parts for v in part])
        partials = [infer_schema(part) for part in parts]
        # Re-fusing only the partials reproduces the full schema.
        combined = SchemaInferencer()
        for partial in partials:
            combined.add_type(partial)
        assert combined.schema == full


class TestStatisticsIntegration:
    def test_presence_ratios_on_twitter(self):
        values = generate_list("twitter", 200)
        schema = infer_schema(values)
        stats = run_inference(values, stats_mode="basic").stats
        report = {e.path: e for e in presence_report(schema, stats)}
        # 'delete' appears in the delete notices only.
        assert 0 < report["$.delete"].ratio < 0.5
        # Inside a delete notice, its inner fields are always present.
        assert report["$.delete.timestamp_ms"].ratio == 1.0


class TestSchemaGrowth:
    """Fused schemas only widen as data accumulates."""

    def test_schema_widens_semantically_not_necessarily_in_size(self, dataset):
        """Size is NOT monotone (a second array shape can collapse a
        positional [Num, Num] into a smaller [Num*]), but the value space
        only widens — each prefix schema is a subtype of the next."""
        _name, values = dataset
        schemas = [
            infer_schema(values[:n]) for n in (25, 50, 100, len(values))
        ]
        for smaller, larger in zip(schemas, schemas[1:]):
            assert is_subtype(smaller, larger)

    def test_prefix_schema_is_subtype_of_full(self, dataset):
        _name, values = dataset
        prefix = infer_schema(values[:40])
        full = infer_schema(values)
        assert is_subtype(prefix, full)

    def test_fused_size_saturates_on_fixed_shape_data(self):
        """github's fused size stops growing long before the data does."""
        values = generate_list("github", 400)
        early = infer_schema(values[:200]).size
        late = infer_schema(values).size
        assert late <= early * 1.1


class TestQueryFacingGuarantees:
    def test_mandatory_field_selectable_on_every_record(self, dataset):
        _name, values = dataset
        schema = infer_schema(values)
        guaranteed = [
            path for path, ok in iter_schema_paths(schema)
            if ok and "[*]" not in path
        ]
        for path in guaranteed:
            steps = path[2:].split(".")
            for value in values:
                for step in steps:
                    assert step in value
                    value = value[step]
                break  # one record per path is enough at this scale

    def test_resolve_path_against_real_schema(self):
        schema = infer_schema(generate_list("github", 60))
        info = resolve_path(schema, "pull_request.user.login")
        assert info.exists and info.guaranteed
