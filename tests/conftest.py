"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.core.types import (
    ArrayType,
    BOOL,
    Field,
    NULL,
    NUM,
    RecordType,
    STR,
    StarArrayType,
    make_union,
)

# A single moderate profile: the suite runs hundreds of property tests, so
# keep per-test example counts reasonable.  Select the "deep" profile for
# an occasional heavier fuzz: HYPOTHESIS_PROFILE=deep pytest tests/
settings.register_profile(
    "repro",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "deep",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))


# ---------------------------------------------------------------------------
# JSON value strategies

json_atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
)

#: Keys kept short and drawn from a small alphabet so that records collide
#: often enough for fusion to have something to merge.
json_keys = st.text(
    alphabet="abcdefgh_", min_size=1, max_size=4
)


def json_values(max_leaves: int = 20) -> st.SearchStrategy:
    """Arbitrary JSON values (records, arrays, atoms), moderately sized."""
    return st.recursive(
        json_atoms,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(json_keys, children, max_size=4),
        ),
        max_leaves=max_leaves,
    )


#: Values that are records at the top level, like real dataset entries.
json_records = st.dictionaries(json_keys, json_values(10), max_size=5)

#: Property ids (``P0`` .. ``P199``): a key space wide enough that a few
#: dozen records grow a record type hundreds of fields wide, the paper's
#: Wikidata regime where data is encoded as keys.
wide_keys = st.integers(min_value=0, max_value=199).map(lambda n: f"P{n}")

#: Records whose ``claims`` map is keyed by property ids, beside a few
#: ordinary fields.
wide_key_records = st.builds(
    lambda claims, rest: {**rest, "claims": claims},
    st.dictionaries(wide_keys, json_values(4), max_size=12),
    st.dictionaries(json_keys, json_values(4), max_size=3),
)


# ---------------------------------------------------------------------------
# Type strategies (arbitrary *normal* types, as fusion requires)

basic_types = st.sampled_from([NULL, BOOL, NUM, STR])


def _record_types(inner: st.SearchStrategy) -> st.SearchStrategy:
    field = st.tuples(json_keys, inner, st.booleans()).map(
        lambda t: Field(t[0], t[1], optional=t[2])
    )
    return st.lists(field, max_size=4).map(
        lambda fields: RecordType(
            {f.name: f for f in fields}.values()  # dedupe keys, keep last
        )
    )


def _array_types(inner: st.SearchStrategy) -> st.SearchStrategy:
    from repro.core.types import EMPTY

    positional = st.lists(inner, max_size=3).map(ArrayType)
    star = inner.map(StarArrayType)
    # The paper's footnote-1 corner case: the simplified empty array [eps*].
    star_of_empty = st.just(StarArrayType(EMPTY))
    return st.one_of(positional, star, star_of_empty)


def _union_of(non_union: st.SearchStrategy) -> st.SearchStrategy:
    # make_union flattens and canonicalises; drawing a set of non-union
    # members with distinct kinds keeps the result normal.
    def build(members):
        by_kind = {}
        for m in members:
            by_kind[m.kind] = m
        return make_union(list(by_kind.values()))

    return st.lists(non_union, min_size=1, max_size=4).map(build)


def normal_types(max_leaves: int = 12) -> st.SearchStrategy:
    """Arbitrary normal types, including unions, records and arrays."""
    def extend(children: st.SearchStrategy) -> st.SearchStrategy:
        non_union = st.one_of(
            basic_types,
            _record_types(children),
            _array_types(children),
        )
        return st.one_of(non_union, _union_of(non_union))

    return st.recursive(basic_types, extend, max_leaves=max_leaves)


#: Non-union normal types (what LFuse accepts, per kind).
non_union_types = normal_types().filter(
    lambda t: t.kind is not None
)


# ---------------------------------------------------------------------------
# NDJSON corpora (shared by the incremental/checkpoint correctness harness)

#: A corpus split into batches of top-level records — the unit the
#: incremental tests permute, concatenate, checkpoint and re-merge.
record_batches = st.lists(
    st.lists(json_records, max_size=6), min_size=1, max_size=5
)


def write_corpus(path, records) -> int:
    """Write ``records`` to ``path`` as NDJSON via the project serialiser.

    Returns the record count, mirroring
    :func:`repro.jsonio.ndjson.write_ndjson`.
    """
    from repro.jsonio.ndjson import write_ndjson

    return write_ndjson(path, records)


def make_corpus(n: int, seed: int = 0) -> list:
    """A deterministic synthetic record corpus, no hypothesis required.

    Mixes the shapes that exercise every fusion rule — nested records,
    positional and starred arrays, type-flipping fields, occasional
    missing keys — so batch-vs-incremental equivalence over this corpus
    covers the interesting merge paths.  Same ``(n, seed)`` always yields
    the same records; the CI equivalence gate and the golden checkpoint
    fixture both rely on that.
    """
    import random

    rng = random.Random(seed)
    corpus = []
    for i in range(n):
        record = {"id": i, "kind": rng.choice(["a", "b", "c"])}
        roll = rng.random()
        if roll < 0.3:
            record["payload"] = {"score": rng.random(), "tags": [
                rng.choice(["x", "y", "z"]) for _ in range(rng.randrange(3))
            ]}
        elif roll < 0.5:
            record["payload"] = rng.randrange(100)
        elif roll < 0.6:
            record["payload"] = None
        if rng.random() < 0.4:
            record["extra"] = [rng.randrange(10), str(rng.randrange(10))]
        if rng.random() < 0.2:
            record["meta"] = {"flag": rng.random() < 0.5}
        corpus.append(record)
    return corpus


@contextmanager
def fifo_of(path):
    """A FIFO next to ``path`` that a daemon thread fills with its bytes.

    A pipe is the one input that is not read as byte splits: the run
    streams its lines, or, under a context, the driver deals chunks of
    them out.  Yields the FIFO's path as a string.
    """
    if not hasattr(os, "mkfifo"):
        pytest.skip("needs os.mkfifo")
    path = Path(path)
    fifo = path.with_suffix(".fifo")
    os.mkfifo(fifo)
    data = path.read_bytes()

    def feed() -> None:
        try:
            with open(fifo, "wb") as sink:
                sink.write(data)
        except BrokenPipeError:  # the reader gave up early
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield str(fifo)
    finally:
        writer.join(timeout=30)
        if writer.is_alive():
            # Nothing opened the FIFO: open and drop a reader so the
            # writer's open returns, then let the test fail.
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=30)
        os.unlink(fifo)
        assert not writer.is_alive(), "the FIFO writer never finished"
