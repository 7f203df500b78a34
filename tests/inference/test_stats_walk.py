"""The observation trie gives the bytes of the plain statistics walk.

:meth:`StatsBundle.observe` walks a trie of path nodes and holds each
node's values in a bounded window until a reader arrives, folding each
distinct ``(class, value)`` pair once.  The oracle is the plain walk
(``oracle_bundle``, beside ``StatisticsCollector`` in
``tests/analysis/test_stats_equivalence.py``): a path string and a kind
test per node, and every statistic updated once per observation.  The
two must agree byte for byte in both modes, on the scalars whose
equality crosses classes (``True == 1 == 1.0``, ``0 == -0.0``), on
numbers at and past float precision, on NaN, lone surrogates and
subclasses of the JSON builtins (passed through ``add``), on lines the
decode lane hands to its strict arbiter, on empty containers, and on
keys that make two record shapes address one path.

Windows are shrunk to a few entries so that short streams overflow them,
and every reader -- ``paths``, ``copy``, ``merge``, ``to_wire``,
``to_bytes``, ``==`` and pickling -- is interleaved with observations:
each must see every observation made before it.
"""

import json
import pickle
from enum import IntEnum
from unittest.mock import patch

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.inference import statistics
from repro.inference.infer import infer_type
from repro.inference.kernel import PartitionAccumulator, accumulate_ndjson_item
from repro.inference.statistics import StatsBundle
from tests.analysis.test_stats_equivalence import oracle_bundle

MODES = ["basic", "sketches"]


class Level(IntEnum):
    LOW = 1
    HIGH = 2**53 + 1


class Label(str):
    pass


class Opaque(str):
    """A string that does not hash."""

    __hash__ = None


#: Scalars of NDJSON lines, chosen where equality crosses classes or
#: floats stop being exact.  ``json.dumps`` escapes the astral
#: character as a surrogate pair, and writes the text ``\\ud800`` as an
#: escaped backslash before ``ud800``: the decoder misses both, and the
#: strict arbiter decodes them.
line_scalars = st.one_of(
    st.sampled_from([True, 1, 1.0, False, 0, 0.0, -0.0]),
    st.sampled_from([
        None, -1, 2**53, 2**53 + 1, float(2**53), 10**30, 1e30, "", "1",
        "a", "\U0001F600", "\\ud800",
    ]),
    st.integers(min_value=-3, max_value=3),
    st.text(max_size=2),
)

#: Scalars only an in-memory caller passes (through ``add``): lone
#: surrogates, NaN and subclasses of the JSON builtins.
memory_scalars = st.one_of(
    line_scalars,
    st.sampled_from(["\ud800", "x\udfffy", float("nan"), Level.LOW,
                     Level.HIGH, Label("a"), Label("")]),
)

#: Keys that make distinct shapes share a path string: ``{"a.b": 1}``
#: and ``{"a": {"b": 1}}`` both address ``$.a.b``, and ``{"a[*]": 1}``
#: meets the elements of ``{"a": [1]}`` at ``$.a[*]``.
keys = st.sampled_from(["a", "b", "a.b", "b.a", "[*]", "a[*]", ""])


def values_of(scalars):
    # Flat arrays and records put several scalars in one window, where
    # equal values of two classes must stay apart.
    return st.one_of(
        st.lists(scalars, max_size=6),
        st.dictionaries(keys, scalars, max_size=4),
        st.recursive(
            scalars,
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(keys, children, max_size=4),
            ),
            max_leaves=10,
        ),
    )


READS = ["paths", "copy", "merge", "merged_into", "to_wire", "to_bytes",
         "eq", "pickle"]


def streams(scalars):
    """Steps: ``("add", value)``, ``("read", reader)`` or ``("absorb",
    values)``, which merges in a bundle observed apart."""
    values = values_of(scalars)
    return st.lists(
        st.one_of(
            st.tuples(st.just("add"), values),
            st.tuples(st.just("read"), st.sampled_from(READS)),
            st.tuples(st.just("absorb"), st.lists(values, max_size=4)),
        ),
        max_size=30,
    )


def read(bundle, reader, mode):
    """What ``reader`` sees of ``bundle``, as bundle bytes."""
    if reader == "paths":
        view = StatsBundle(mode)
        view.record_count = bundle.record_count
        view.type_sizes = bundle.type_sizes
        view.paths.update(bundle.paths)
        return view.to_bytes()
    if reader == "copy":
        return bundle.copy().to_bytes()
    if reader == "merge":
        return bundle.merge(StatsBundle(mode)).to_bytes()
    if reader == "merged_into":
        return StatsBundle(mode).merge(bundle).to_bytes()
    if reader == "to_wire":
        return StatsBundle.from_wire(bundle.to_wire()).to_bytes()
    if reader == "to_bytes":
        return bundle.to_bytes()
    if reader == "pickle":
        return pickle.loads(pickle.dumps(bundle)).to_bytes()
    raise AssertionError(reader)


def check_stream(stream, mode, window):
    """Run ``stream`` through an accumulator; every read and the final
    bundle must equal the oracle walk over the values added so far."""
    with patch.object(statistics, "WINDOW", window):
        acc = PartitionAccumulator(stats_mode=mode)
        seen = []
        for step, arg in stream:
            if step == "add":
                acc.add(arg)
                seen.append((arg, infer_type(arg).size))
            elif step == "absorb":
                other = PartitionAccumulator(stats_mode=mode)
                for value in arg:
                    other.add(value)
                    seen.append((value, infer_type(value).size))
                acc.add_summary(other.summary())
            elif arg == "eq":
                assert acc.stats == oracle_bundle(seen, mode)
            else:
                want = oracle_bundle(seen, mode).to_bytes()
                assert read(acc.stats, arg, mode) == want, arg
        assert acc.stats.to_bytes() == oracle_bundle(seen, mode).to_bytes()


windows = st.sampled_from([1, 2, 3, 5, 8])


class TestObservationMatchesTheOracleWalk:
    @given(stream=streams(memory_scalars), mode=st.sampled_from(MODES),
           window=windows)
    def test_in_memory_values(self, stream, mode, window):
        check_stream(stream, mode, window)

    @given(values=st.lists(values_of(line_scalars), max_size=20),
           mode=st.sampled_from(MODES), window=windows)
    @example(values=[{"a": "\U0001F600"}, {"a": ["\\ud800", True, 1]}],
             mode="sketches", window=1)
    def test_decoded_lines(self, values, mode, window):
        lines = [json.dumps(value) for value in values]
        with patch.object(statistics, "WINDOW", window):
            summary = accumulate_ndjson_item(enumerate(lines, 1),
                                             stats_mode=mode)
        want = oracle_bundle(
            [(value, infer_type(value).size) for value in values], mode
        )
        assert summary.stats.to_bytes() == want.to_bytes()

    @pytest.mark.parametrize("window", [1, 2, 3, 64])
    @pytest.mark.parametrize("mode", MODES)
    def test_int_subclass_past_float_precision_bounds_as_int(
        self, mode, window
    ):
        # 2**53 + 1 rounds as a float, so the range keeps it exact; the
        # IntEnum member equal to it must bound as the same plain int,
        # whichever of the two the window folds first.
        stream = [("add", {"a": [], "b": [2**53 + 1]}),
                  ("add", {"a": [], "b": [Level.HIGH]}),
                  ("read", "eq")]
        check_stream(stream, mode, window)

    @pytest.mark.parametrize("mode", MODES)
    def test_windows_of_the_real_size_overflow(self, mode):
        # More distinct values per path than one window holds, with
        # repeats of every class that compares equal across classes.
        n = 3 * statistics.WINDOW + 7
        stream = []
        for i in range(n):
            stream.append(("add", {
                "id": i, "flag": [True, 1, 1.0, 0, -0.0, False][i % 6],
                "name": f"n{i % (2 * statistics.WINDOW)}",
                "tags": ["x"] * (i % 4),
            }))
            if i % 97 == 0:
                stream.append(("read", READS[i // 97 % len(READS)]))
        check_stream(stream, mode, statistics.WINDOW)


class TestWindowKeys:
    @pytest.mark.parametrize("mode", MODES)
    def test_equal_values_of_other_classes_stay_apart(self, mode):
        values = [True, 1, 1.0, False, 0, -0.0, 0.0, Level.LOW,
                  2**53, float(2**53), 2**53 + 1, "a", Label("a"),
                  Opaque("a")]
        stream = [("add", {"v": value}) for value in values]
        check_stream(stream, mode, 128)

    def test_non_json_values_are_rejected_at_observation(self):
        bundle = StatsBundle("basic")
        with pytest.raises(TypeError):
            bundle.observe({"a": object()}, 2)
