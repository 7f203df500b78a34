"""The compact summary wire format (kernel encode/decode round trip).

Contracts pinned here:

* **Round trip** — ``decode_summary(encode_summary(s))`` equals ``s``
  with its distinct set as digests, for summaries over arbitrary JSON
  values and arbitrary normal-form types, quarantine records and
  timings included.
* **Canonical adoption** — decoding *into* an accumulator builds the
  schema canonical in its interner: decoding twice yields
  pointer-identical nodes, and adoption through ``add_summary`` gives
  the same merged result as adopting the un-encoded summary.
* **Task equivalence** — every partition task returns the same result
  with ``wire=True``, up to the form of the distinct set, so the
  scheduler seam can flip freely; process workers return wire frames
  from :func:`run_inference` too.
* **Versioning** — payloads with a foreign version tag (the retired
  v2 and v3 included) or mangled bytes are rejected with
  ``ValueError``, never misdecoded.
* **Digests** — :func:`type_digest` is an on-disk format: fixed types
  keep the digests an earlier build computed.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.types import (
    BOOL,
    EMPTY,
    NULL,
    NUM,
    STR,
    ArrayType,
    Field,
    RecordType,
    StarArrayType,
    make_union,
)
from repro.engine.context import Context
from repro.inference.kernel import (
    WIRE_FORMAT_VERSION,
    PartitionAccumulator,
    PartitionSummary,
    _decode_types,
    accumulate_ndjson_item,
    accumulate_ndjson_partition,
    accumulate_partition,
    decode_summary,
    decode_summary_light,
    digest_types,
    encode_summary,
    merge_summaries_full,
    type_digest,
)
from repro.inference.pipeline import run_inference
from repro.jsonio.splits import plan_splits
from repro.jsonio.writer import dumps
from tests.conftest import json_values, make_corpus, normal_types, write_corpus

json_value_lists = st.lists(json_values(10), max_size=30)


def digested(summary: PartitionSummary) -> PartitionSummary:
    """``summary`` with its distinct set as digests: what a wire round
    trip gives back."""
    return replace(
        summary, distinct_types=(), distinct_digests=summary.digest_set()
    )


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(values=json_value_lists)
    def test_value_summaries_round_trip(self, values):
        summary = accumulate_partition(values)
        payload = encode_summary(summary)
        assert isinstance(payload, bytes)
        assert decode_summary(payload) == digested(summary)

    @settings(max_examples=50, deadline=None)
    @given(types=st.lists(normal_types(10), min_size=1, max_size=10))
    def test_type_summaries_round_trip(self, types):
        acc = PartitionAccumulator()
        for t in types:
            acc.add_type(t)
        summary = acc.summary()
        assert decode_summary(encode_summary(summary)) == digested(summary)

    def test_quarantine_and_telemetry_ride_along(self, tmp_path):
        path = tmp_path / "dirty.ndjson"
        path.write_text('{"a": 1}\nnope\n{"a": "x"}\n')
        payload = accumulate_ndjson_partition(
            [(1, '{"a": 1}'), (2, "nope"), (3, '{"a": "x"}')],
            source=str(path), permissive=True, collect_timings=True,
            wire=True,
        )
        summary = decode_summary(payload)
        assert summary.record_count == 2
        assert [b.line_number for b in summary.skipped] == [2]
        assert summary.timings is not None
        assert summary.worker


class TestCanonicalAdoption:
    @settings(max_examples=25, deadline=None)
    @given(values=json_value_lists)
    def test_decode_with_accumulator_equal(self, values):
        summary = accumulate_partition(values)
        payload = encode_summary(summary)
        acc = PartitionAccumulator()
        assert decode_summary(payload, acc) == digested(summary)

    def test_decoded_nodes_are_pointer_canonical(self):
        summary = accumulate_partition(make_corpus(500, seed=3))
        payload = encode_summary(summary)
        acc = PartitionAccumulator()
        first = decode_summary(payload, acc)
        second = decode_summary(payload, acc)
        assert first.schema is second.schema
        assert acc.interner.intern(summary.schema) is first.schema
        assert first.distinct_digests == second.distinct_digests

    def test_adoption_matches_plain_add_summary(self):
        summary = accumulate_partition(make_corpus(400, seed=9))
        via_wire = PartitionAccumulator()
        via_wire.add_summary(
            decode_summary(encode_summary(summary), via_wire)
        )
        plain = PartitionAccumulator()
        plain.add_summary(summary)
        assert via_wire.schema == plain.schema
        assert via_wire.record_count == plain.record_count
        assert via_wire.distinct_type_count == plain.distinct_type_count


class TestTaskEquivalence:
    def test_split_task_wire_equivalence(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        write_corpus(path, make_corpus(600, seed=21))
        for split in plan_splits(path, 4, min_split_bytes=1):
            wired = decode_summary(accumulate_ndjson_item(split, wire=True))
            assert wired == digested(accumulate_ndjson_item(split))

    def test_partition_task_wire_equivalence(self, tmp_path):
        lines = [
            (i + 1, line)
            for i, line in enumerate(
                '{"id": %d, "v": [%d]}' % (i, i) for i in range(200)
            )
        ]
        wired = decode_summary(
            accumulate_ndjson_partition(list(lines), wire=True)
        )
        assert wired == digested(accumulate_ndjson_partition(list(lines)))

    def test_run_inference_process_results_are_wire_frames(self):
        values = make_corpus(300, seed=5)
        inline = run_inference(values, stats_mode="basic")
        with Context(parallelism=2, backend="process") as ctx:
            run = run_inference(values, context=ctx, num_partitions=4,
                                stats_mode="basic")
            assert ctx.scheduler.stats.summary_wire_bytes_decoded > 0
        assert run.schema == inline.schema
        assert (run.record_count, run.distinct_type_count) == (
            inline.record_count, inline.distinct_type_count,
        )
        assert run.stats.to_bytes() == inline.stats.to_bytes()


class TestVersioning:
    def test_foreign_version_rejected(self):
        summary = accumulate_partition([{"a": 1}])
        payload = pickle.loads(encode_summary(summary))
        bumped = (WIRE_FORMAT_VERSION + 1,) + payload[1:]
        with pytest.raises(ValueError, match="version"):
            decode_summary(pickle.dumps(bumped))

    @pytest.mark.parametrize("version,fields", [(2, 15), (3, 16)],
                             ids=["v2", "v3"])
    def test_retired_versions_rejected(self, version, fields):
        """Frames of the layouts earlier builds wrote (v2: 15 slots, v3:
        16) do not decode: the error names their version."""
        frame = pickle.loads(encode_summary(accumulate_partition([{"a": 1}])))
        retired = ((version,) + frame[1:] + (None,) * fields)[:fields]
        with pytest.raises(ValueError, match=f"version {version} "):
            decode_summary(pickle.dumps(retired))

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            decode_summary(pickle.dumps(("not", "a", "summary")))

    def test_unknown_op_tag_rejected(self):
        summary = accumulate_partition([{"a": 1}])
        (version, keys, ops, *rest) = pickle.loads(encode_summary(summary))
        mangled = (version, keys, [99] + list(ops[1:]), *rest)
        with pytest.raises(ValueError):
            decode_summary(pickle.dumps(mangled))

    @pytest.mark.parametrize("flag", [True, False])
    def test_reserved_slot_is_ignored(self, flag):
        """Earlier v4 encoders wrote a per-worker cache flag in the slot
        after ``worker``; such a frame decodes like one with ``None``."""
        summary = accumulate_ndjson_partition(
            [(1, '{"a": 1}'), (2, '{"a": "x", "b": [true]}')],
            collect_timings=True,
        )
        frame = pickle.loads(encode_summary(summary))
        assert len(frame) == 13 and frame[11] is None
        flagged = frame[:11] + (flag,) + frame[12:]
        decoded = decode_summary(pickle.dumps(flagged))
        assert decoded == decode_summary(pickle.dumps(frame))
        assert decoded.worker == summary.worker
        assert decoded.timings == summary.timings


def _summaries_of(values):
    """One partition's summary of ``values``, and two merged summaries —
    :func:`merge_summaries_full` of two halves, as values and as NDJSON
    line chunks — whose schemas come from another interner than their
    distinct types."""
    half = len(values) // 2
    lines = [(i + 1, dumps(v)) for i, v in enumerate(values)]
    return [
        accumulate_partition(values),
        merge_summaries_full([
            accumulate_partition(values[:half]),
            accumulate_partition(values[half:]),
        ]),
        merge_summaries_full([
            accumulate_ndjson_partition(lines[:half]),
            accumulate_ndjson_partition(lines[half:]),
        ]),
    ]


class TestLightDecode:
    """:func:`decode_summary_light` is a thin wrapper over the one
    decoder: the same summary, plus its distinct digests sorted — one
    :func:`type_digest` per distinct type, with digest equality
    coinciding with structural type equality, so a digest-set union
    counts distincts exactly."""

    #: Values whose frames put the schema at the edges of the node
    #: table: ``EMPTY``, a basic type, and the last node of the
    #: op-stream.
    EDGE_VALUES = ([], [1, 2.5], [{"a": [1, "x"]}])

    @settings(max_examples=50, deadline=None)
    @given(values=json_value_lists)
    @example(values=EDGE_VALUES[0])
    @example(values=EDGE_VALUES[1])
    @example(values=EDGE_VALUES[2])
    def test_matches_full_decode_on_values(self, values):
        for summary in _summaries_of(values):
            payload = encode_summary(summary)
            light, digests = decode_summary_light(payload)
            full = decode_summary(payload, PartitionAccumulator())
            assert light == full == digested(summary)
            assert light.schema == summary.schema
            assert digests == tuple(sorted(full.distinct_digests))
            assert len(digests) == summary.distinct_type_count
            assert set(digests) == set(digest_types(summary.distinct_types))

    def test_edge_values_put_the_schema_at_the_edges(self):
        """The explicit examples above really reach the edge frames."""
        where = []
        for values in self.EDGE_VALUES:
            frame = pickle.loads(encode_summary(accumulate_partition(values)))
            keys, ops, schema_i = frame[1], frame[2], frame[3]
            nodes = _decode_types(keys, ops, PartitionAccumulator())
            where.append((schema_i, len(nodes) - 1))
        (empty_i, _), (basic_i, _), (last_i, last_node) = where
        assert empty_i == 4  # the pre-seeded EMPTY slot
        assert basic_i < 4  # a pre-seeded basic-type slot
        assert last_i == last_node > 4

    @settings(max_examples=50, deadline=None)
    @given(types=st.lists(normal_types(10), min_size=1, max_size=10))
    def test_matches_full_decode_on_arbitrary_types(self, types):
        acc = PartitionAccumulator()
        for t in types:
            acc.add_type(t)
        interned = tuple(dict.fromkeys(acc.interner.intern(t) for t in types))
        summary = PartitionSummary(
            schema=acc.schema, record_count=len(types),
            distinct_types=interned,
        )
        payload = encode_summary(summary)
        light, digests = decode_summary_light(payload)
        full = decode_summary(payload, PartitionAccumulator())
        assert light.schema == full.schema == summary.schema
        assert set(digests) == set(digest_types(interned))
        # Digest-set size IS the structural distinct count.
        assert len(set(digests)) == len(set(types))

    @settings(max_examples=60, deadline=None)
    @given(a=normal_types(8), b=normal_types(8))
    def test_digest_equality_is_type_equality(self, a, b):
        # Independently built (non-interned) trees: digests must agree
        # exactly when the types compare equal.
        assert (type_digest(a) == type_digest(b)) == (a == b)

    def test_light_rejects_garbage_and_foreign_versions(self):
        with pytest.raises(ValueError, match="malformed"):
            decode_summary_light(pickle.dumps(("not", "a", "summary")))
        payload = pickle.loads(
            encode_summary(accumulate_partition([{"a": 1}]))
        )
        bumped = (WIRE_FORMAT_VERSION + 1,) + payload[1:]
        with pytest.raises(ValueError, match="version"):
            decode_summary_light(pickle.dumps(bumped))


_PINNED_KEY = 'q"uote\nnew\u2028line'
_PINNED_RECORD = RecordType([Field(_PINNED_KEY, NUM, True), Field("b", STR)])

#: Fixed types and the digests an earlier build computed for them.
PINNED = {
    "null": (
        NULL,
        "05816a1560db947d6ff798e30909816f400f14230e9a06afac8f8b213127aa21"),
    "bool": (
        BOOL,
        "5b950e77941d01cdf246d00b1ece546bc95234b77d98b44c9187e2733afa696a"),
    "num": (
        NUM,
        "abdbc2b5cc2c7a519b72bf7a164c58ebf892ab0c2df6468213705cc2f0da8561"),
    "str": (
        STR,
        "0cd20d37dbaa799d1d2f6f04adbab0b9e958b083f38e06512cdefadd20863f98"),
    "empty": (
        EMPTY,
        "a9f51566bd6705f7ea6ad54bb9deb449f795582d6529a0e22207b8981233ec58"),
    "record": (
        _PINNED_RECORD,
        "47f1b3004930dcea31f4e4add116da7f2b163d8f400249fbb5ebf91a2d09b94e"),
    "array": (
        ArrayType([NUM, STR, NUM]),
        "bac5e1aebcb5e7c98a7895d933f55227aa8fea771c09aa897019cc8d683f14e0"),
    "star": (
        StarArrayType(BOOL),
        "702fef130874e9e95797b8547ab770374a60283cf50a4211cee7c36565dc51bd"),
    "union": (
        make_union([NULL, NUM, _PINNED_RECORD, StarArrayType(STR)]),
        "b2a73f4f0e6a65729133fd81de308689977bd7519e3b0b14c193c2dd682bb6d3"),
}


class TestDigestPins:
    """Digests persist in checkpoints, journals and cache entries, so
    their definition is an on-disk format: a change must fail here
    rather than silently miscount distinct types across old and new
    files."""

    @pytest.mark.parametrize("name", list(PINNED))
    def test_type_digest_is_pinned(self, name):
        t, expected = PINNED[name]
        assert type_digest(t).hex() == expected

    def test_batch_digests_match_the_pins(self):
        types = [t for t, _ in PINNED.values()]
        assert [d.hex() for d in digest_types(types)] == [
            expected for _, expected in PINNED.values()
        ]

