"""Stress tests on the adversarial mixed-content dataset (repro.datasets.mixed).

These are the torture cases of the paper's Section 2 motivation: heavily
mixed arrays, kind conflicts at the same field, empty arrays.  Everything
the core guarantees promise must survive them.
"""

from repro.core.normal_form import is_normal
from repro.core.printer import print_type
from repro.core.semantics import matches
from repro.core.subtyping import is_subtype
from repro.core.type_parser import parse_type
from repro.core.types import StarArrayType, UnionType
from repro.core.values import validate_value
from repro.datasets import DATASET_NAMES
from repro.datasets.mixed import generate_list
from repro.inference import (
    fuse_all,
    fuse_multiset,
    infer_schema,
    infer_schema_labelled,
    infer_type,
    simplify,
)

N = 400
VALUES = generate_list(N)


class TestGeneratorBasics:
    def test_not_in_the_paper_registry(self):
        assert "mixed" not in DATASET_NAMES

    def test_deterministic(self):
        assert generate_list(30) == generate_list(30)

    def test_values_valid(self):
        for value in VALUES:
            validate_value(value)

    def test_actually_mixes_content(self):
        def mixed(arr):
            kinds = {type(x).__name__ for x in arr}
            return len(kinds - {"list"}) > 1

        assert any(mixed(v["items"]) for v in VALUES if v["items"])

    def test_kind_conflicts_present(self):
        payload_types = {type(v["payload"]).__name__ for v in VALUES}
        assert payload_types == {"str", "list"}
        meta_types = {type(v["meta"]).__name__ for v in VALUES}
        assert meta_types == {"dict", "list"}


class TestCoreGuaranteesUnderStress:
    def test_schema_admits_every_record(self):
        schema = infer_schema(VALUES)
        assert all(matches(v, schema) for v in VALUES)

    def test_schema_is_normal(self):
        assert is_normal(infer_schema(VALUES))

    def test_schema_round_trips_through_syntax(self):
        schema = infer_schema(VALUES)
        assert parse_type(print_type(schema)) == schema

    def test_conflicting_fields_become_unions(self):
        schema = infer_schema(VALUES)
        payload = schema.field("payload").type
        assert isinstance(payload, UnionType)
        kinds = {type(m).__name__ for m in payload.members}
        assert "StarArrayType" in kinds or "ArrayType" in kinds

    def test_items_collapse_to_star(self):
        schema = infer_schema(VALUES)
        items = schema.field("items").type
        assert isinstance(items, StarArrayType)

    def test_dedupe_matches_sequential(self):
        types = [infer_type(v) for v in VALUES]
        assert fuse_multiset(types) == fuse_all(types)

    def test_partition_invariance(self):
        from repro.inference import infer_partitioned

        thirds = [VALUES[i::3] for i in range(3)]
        assert infer_partitioned(thirds).schema == infer_schema(VALUES)

    def test_simplify_widens(self):
        schema = infer_schema(VALUES)
        assert is_subtype(schema, simplify(schema))

    def test_labelled_fusion_refines(self):
        assert is_subtype(infer_schema_labelled(VALUES), infer_schema(VALUES))

    def test_order_insensitive_arrays_share_types(self):
        """Two arrays with the same content in different orders fuse to
        the same star type — the succinctness-over-position trade."""
        from repro.inference.fusion import collapse

        forward = infer_type(["a", 1, {"E": True}])
        backward = infer_type([{"E": True}, 1, "a"])
        assert collapse(forward) == collapse(backward)
