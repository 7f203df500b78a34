"""Differential tests: our JSON parser against the standard library.

On any input, the from-scratch parser must agree with ``json.loads`` about
(a) the parsed value when both accept, and (b) acceptance itself — except
for the one *documented* divergence: duplicate object keys, which stdlib
silently resolves and we reject (the paper's well-formedness condition).

The map phase decodes with the stdlib scanner behind guards, objects as
key/value pairs whose repeated keys the kernel's typer catches, and lets
the from-scratch parser arbitrate every record that misses;
:class:`TestDecoder` checks that pairing.
"""

import json as stdlib_json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.jsonio.errors import DuplicateKeyError, JsonError
from repro.jsonio.parser import MAX_DEPTH, loads
from repro.jsonio.writer import dumps
from tests.conftest import json_values


def _has_duplicate_keys(text: str) -> bool:
    """True if stdlib parsing would merge duplicate keys somewhere."""
    seen_duplicate = False

    def hook(pairs):
        nonlocal seen_duplicate
        keys = [k for k, _ in pairs]
        if len(keys) != len(set(keys)):
            seen_duplicate = True
        return dict(pairs)

    try:
        stdlib_json.loads(text, object_pairs_hook=hook)
    except ValueError:
        return False
    return seen_duplicate


def _contains_non_finite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(_contains_non_finite(v) for v in value.values())
    if isinstance(value, list):
        return any(_contains_non_finite(v) for v in value)
    return False


def _contains_surrogate(value) -> bool:
    """True if any decoded string carries a code point in U+D800-DFFF.

    Stdlib decodes lone surrogate ``\\u`` escapes permissively; our
    strict parser rejects them per RFC 8259 section 7 — the second
    documented acceptance divergence besides ``NaN``/``Infinity``.
    """
    if isinstance(value, str):
        return any("\ud800" <= c <= "\udfff" for c in value)
    if isinstance(value, dict):
        return any(
            _contains_surrogate(k) or _contains_surrogate(v)
            for k, v in value.items()
        )
    if isinstance(value, list):
        return any(_contains_surrogate(v) for v in value)
    return False


class TestAgreementOnValidInputs:
    @given(json_values())
    def test_same_value_as_stdlib(self, value):
        text = stdlib_json.dumps(value)
        assert loads(text) == stdlib_json.loads(text)

    @given(json_values())
    def test_stdlib_reads_our_output(self, value):
        assert stdlib_json.loads(dumps(value)) == value

    @given(st.text(max_size=30))
    def test_arbitrary_strings_round_trip(self, s):
        assert loads(dumps(s)) == s

    @given(st.integers(min_value=-(10 ** 30), max_value=10 ** 30))
    def test_huge_integers(self, n):
        assert loads(str(n)) == n

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_floats_agree(self, x):
        text = stdlib_json.dumps(x)
        got = loads(text)
        assert got == stdlib_json.loads(text) or (
            math.isclose(got, x, rel_tol=1e-15)
        )


class TestAgreementOnAcceptance:
    @given(st.text(max_size=25))
    @example('{"a":1,"a":2}')
    @example("[1,2,]")
    @example("'single'")
    @example("NaN")
    @example("Infinity")
    @example("01")
    @example("+1")
    @example('"\\x41"')
    @example('"\\ud800"')
    @example('"\\udc00"')
    @example('{"a": "\\uD800"}')
    @example('"\\ud800x"')
    @example('"\\ud83d\\ude00"')
    def test_acceptance_agrees_modulo_duplicates(self, text):
        try:
            ours = ("ok", loads(text))
        except DuplicateKeyError:
            ours = ("dup", None)
        except JsonError:
            ours = ("err", None)
        except RecursionError:
            return  # deeply nested pathological input; both sides bail

        try:
            theirs = ("ok", stdlib_json.loads(text))
        except ValueError:
            theirs = ("err", None)
        except RecursionError:
            return

        if ours[0] == "dup":
            # Documented divergence: stdlib accepts, we reject.
            assert theirs[0] == "ok"
            assert _has_duplicate_keys(text)
        elif ours[0] == "err" and theirs[0] == "ok":
            # The only stdlib leniencies we do not share: non-standard
            # NaN/Infinity constants and lone surrogate \u escapes.
            assert (_contains_non_finite(theirs[1])
                    or _contains_surrogate(theirs[1]))
        else:
            assert ours[0] == theirs[0]
            if ours[0] == "ok":
                assert ours[1] == theirs[1]

    def test_stdlib_extensions_rejected(self):
        """We are strict where stdlib is lenient by default."""
        for text in ["NaN", "Infinity", "-Infinity"]:
            stdlib_json.loads(text)  # stdlib accepts these extensions
            with pytest.raises(JsonError):
                loads(text)


def _same_value(a, b) -> bool:
    """Equal, with the same classes throughout and the same key order
    (``1 == 1.0 == True`` and ``-0.0 == 0.0`` are not enough)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(
            _same_value(a[k], b[k]) for k in a
        )
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_value, a, b))
    return repr(a) == repr(b)


def _nested(shape: str, depth: int) -> str:
    if shape == "array":
        return "[" * depth + "]" * depth
    return '{"a": ' * depth + "1" + "}" * depth


#: JSON texts whose objects draw their keys from three names, so that
#: a key often repeats, at any depth: the typer's duplicate-key check
#: must catch every repeat.
json_texts = st.recursive(
    st.one_of(
        st.sampled_from(["null", "true", "false", "0", "-1.5", '""']),
        st.integers().map(str),
        st.text(max_size=4).map(stdlib_json.dumps),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(
            lambda items: "[" + ", ".join(items) + "]"
        ),
        st.lists(st.tuples(st.sampled_from(["a", "b", "k"]), children),
                 max_size=4).map(
            lambda pairs: "{" + ", ".join(
                f'"{key}": {value}' for key, value in pairs
            ) + "}"
        ),
    ),
    max_leaves=12,
)


#: Texts the guarded decoder must miss, for :func:`loads` to decide.
MUST_MISS = [
    pytest.param('{"k": 1, "k": 2}', id="duplicate-key"),
    pytest.param('{"o": {"k": 1, "k": 2}}', id="nested-duplicate-key"),
    pytest.param('[{"k": [{"j": 1, "j": 1}]}]', id="deep-duplicate-key"),
    pytest.param("NaN", id="NaN"),
    pytest.param('{"a": Infinity}', id="Infinity"),
    pytest.param("[-Infinity]", id="-Infinity"),
    pytest.param('"\\ud800"', id="lone-high-surrogate"),
    pytest.param('"\\udc00"', id="lone-low-surrogate"),
    pytest.param('{"a": "\\uD800"}', id="uppercase-surrogate"),
    pytest.param('"\\ud83d\\ude00"', id="paired-surrogates"),
    pytest.param('{"n": ' + "9" * 5000 + "}", id="5000-digit-int"),
    pytest.param(_nested("array", MAX_DEPTH + 1), id="array-129"),
    pytest.param(_nested("record", MAX_DEPTH + 1), id="record-129"),
    pytest.param(_nested("array", 5000), id="array-5000"),
    pytest.param(_nested("record", 5000), id="record-5000"),
]


class TestDecoder:
    """The map phase's guarded C decoder against :func:`loads`, its
    arbiter: the decoder returns what ``loads`` returns, typed to the
    node the strict fold interns, or it misses and ``loads`` decides."""

    @given(json_values())
    def test_decodes_what_loads_parses_or_misses(self, value):
        from repro.inference.infer import infer_type
        from repro.inference.kernel import PartitionAccumulator
        from repro.jsonio.typestream import FastLaneMiss, guarded_decoder

        text = dumps(value)
        expected = loads(text)
        try:
            decoded = guarded_decoder()(text)
        except FastLaneMiss:
            return
        assert _same_value(decoded, expected)
        acc = PartitionAccumulator()
        assert acc.type_value(decoded) is acc.interner.intern(
            infer_type(expected)
        )

    @given(st.one_of(json_texts, json_values().map(dumps),
                     st.text(max_size=25)))
    @example('{"a": 1, "a": 1}')
    @example('{"a": {"b": 1, "b": 2}}')
    @example('[{"k": 1}, {"k": 1, "k": 1}]')
    @example('{"a": 1, "a": "1"}')
    def test_pairs_type_what_loads_types_or_miss(self, text):
        """The map loop's decode: objects as key/value pairs, typed by
        ``_infer``, which checks each record shape new to its pool for a
        repeated key.  The node is the one ``loads`` plus ``_infer``
        give, or the text misses; a repeated key always misses."""
        from repro.inference.kernel import PartitionAccumulator
        from repro.jsonio.typestream import FastLaneMiss, _pairs_decoder

        acc = PartitionAccumulator()
        try:
            t = acc._infer(_pairs_decoder()(text))
        except FastLaneMiss:
            return
        assert not _has_duplicate_keys(text)
        assert t is acc._infer(loads(text))

    @given(st.lists(json_values(), min_size=1, max_size=6),
           st.sampled_from(["basic", "sketches"]))
    def test_statistics_walk_pairs_as_dicts(self, values, mode):
        """``StatsBundle.observe`` over the pairs decode gives the bytes
        it gives over the dict decode of the same records."""
        from repro.inference.kernel import PartitionAccumulator
        from repro.inference.statistics import create_stats_bundle
        from repro.jsonio.typestream import (
            FastLaneMiss, _pairs_decoder, guarded_decoder,
        )

        acc = PartitionAccumulator()
        over_pairs = create_stats_bundle(mode)
        over_dicts = create_stats_bundle(mode)
        for value in values:
            text = dumps(value)
            try:
                pairs = _pairs_decoder()(text)
                size = acc._infer(pairs).size
            except FastLaneMiss:
                continue
            over_pairs.observe(pairs, size)
            over_dicts.observe(guarded_decoder()(text), size)
        assert over_pairs.to_bytes() == over_dicts.to_bytes()

    @pytest.mark.parametrize("text", MUST_MISS)
    def test_must_miss(self, text, monkeypatch):
        """Each text misses: the lane hands it to ``arbitrate``, and the
        record's fate is then exactly what ``loads`` says."""
        from repro.inference import kernel
        from repro.inference.infer import infer_type

        calls = []
        arbitrate = kernel._ItemPass.arbitrate

        def spy(self, line_number, line):
            calls.append(line_number)
            return arbitrate(self, line_number, line)

        monkeypatch.setattr(kernel._ItemPass, "arbitrate", spy)
        summary = kernel.accumulate_ndjson_partition(
            [(3, text)], source="f.ndjson", permissive=True,
        )
        assert calls == [3]
        try:
            value = loads(text, source="f.ndjson", first_line=3)
        except JsonError as exc:
            assert summary.record_count == 0
            assert [b.error for b in summary.skipped] == [str(exc)]
        else:
            assert summary.skipped == ()
            assert summary.schema == infer_type(value)

    def test_non_surrogate_escapes_decode(self):
        """``\\u`` escapes outside U+D800-DFFF stay in the lane."""
        from repro.jsonio.typestream import guarded_decoder

        text = '{"a": "\\u00d8\\u0041\\n"}'
        assert _same_value(guarded_decoder()(text), loads(text))


def _read_all(reader, *args, **kwargs):
    """``(values, error)`` of one pass of ``reader``: every value it
    yielded, then ``(class, message)`` of the error that ended it, or
    ``None``."""
    values = []
    try:
        for value in reader(*args, **kwargs):
            values.append(value)
    except JsonError as exc:
        return values, (type(exc), str(exc))
    return values, None


class TestReaders:
    """``read_ndjson`` and ``read_ndjson_quarantined`` decode through the
    guarded decoder; they must give the values, errors and
    :class:`~repro.jsonio.ndjson.BadRecord` entries of the same readers
    over ``loads`` alone (a decoder that misses every line)."""

    LINES = [
        *(param.values[0] for param in MUST_MISS),
        _nested("array", MAX_DEPTH),
        _nested("record", MAX_DEPTH),
        _nested("array", 1000),
        _nested("record", 1000),
        '{"s": "' + "{[" * MAX_DEPTH + '"}',
        '{"ok": [1, 2.5, -0.0, true, null, "\\u00d8"], "n": {}}',
        "[1, 2,]",
        '{"a": 1',
        "12 13",
    ]

    @staticmethod
    def _outcomes(path, single: bool):
        from repro.jsonio.ndjson import read_ndjson, read_ndjson_quarantined

        quarantine = []
        outcomes = [
            _read_all(read_ndjson, path),
            _read_all(read_ndjson_quarantined, path, quarantine),
            quarantine,
        ]
        if not single:
            outcomes.append(_read_all(read_ndjson, path, skip_invalid=True))
        return outcomes

    def _compare(self, path, monkeypatch, single=False):
        from repro.jsonio import ndjson
        from repro.jsonio.typestream import FastLaneMiss

        def loads_only():
            def decode(text):
                raise FastLaneMiss("loads only")
            return decode

        ours = self._outcomes(path, single)
        with monkeypatch.context() as patch:
            patch.setattr(ndjson, "guarded_decoder", loads_only)
            theirs = self._outcomes(path, single)
        for got, want in zip(ours, theirs):
            if isinstance(got, tuple):
                assert _same_value(got[0], want[0])
                assert got[1] == want[1]
            else:
                assert got == want

    def test_each_line_strict_and_quarantined(self, tmp_path, monkeypatch):
        for number, line in enumerate(self.LINES):
            path = tmp_path / f"line{number}.ndjson"
            path.write_text('{"first": [1]}\n' + line + "\n",
                            encoding="utf-8")
            self._compare(path, monkeypatch, single=True)

    def test_all_lines_skipped_and_quarantined(self, tmp_path, monkeypatch):
        path = tmp_path / "all.ndjson"
        path.write_text("\n\n".join(self.LINES) + "\n", encoding="utf-8")
        self._compare(path, monkeypatch)


class TestContextNdjsonFile:
    """``Context.ndjson_file`` decodes each partition through a guarded
    decoder of its own; its values, strict errors and permissive drop
    count must be those of mapping ``loads`` over the lines."""

    LINES = TestReaders.LINES

    @staticmethod
    def _loads(line):
        """``(value, None)`` or ``(None, (class, message))``."""
        try:
            return loads(line), None
        except JsonError as exc:
            return None, (type(exc), str(exc))

    @pytest.fixture()
    def ctx(self):
        from repro.engine import Context, RetryPolicy

        with Context(parallelism=2, backend="thread",
                     retry_policy=RetryPolicy(max_retries=0)) as ctx:
            yield ctx

    def test_accepted_lines_read_like_read_ndjson(self, ctx, tmp_path):
        from repro.jsonio.ndjson import read_ndjson

        path = tmp_path / "good.ndjson"
        good = [line for line in self.LINES if self._loads(line)[1] is None]
        path.write_text("\n".join(good) + "\n", encoding="utf-8")
        got = ctx.ndjson_file(path, 3).collect()
        want = list(read_ndjson(path))
        assert len(got) == len(want) == len(good)
        assert all(map(_same_value, got, want))

    def test_strict_raises_what_loads_raises(self, ctx, tmp_path):
        path = tmp_path / "bad.ndjson"
        for line in self.LINES:
            _, error = self._loads(line)
            if error is None:
                continue
            path.write_text('{"first": [1]}\n' + line + "\n",
                            encoding="utf-8")
            with pytest.raises(JsonError) as info:
                ctx.ndjson_file(path, 2).collect()
            assert (type(info.value), str(info.value)) == error

    def test_permissive_drops_what_loads_rejects(self, ctx, tmp_path):
        from repro.engine.accumulators import CounterAccumulator

        path = tmp_path / "all.ndjson"
        path.write_text("\n\n".join(self.LINES) + "\n", encoding="utf-8")
        outcomes = [self._loads(line) for line in self.LINES]
        skipped = CounterAccumulator()
        got = ctx.ndjson_file(path, 4, permissive=True,
                              skipped=skipped).collect()
        want = [value for value, error in outcomes if error is None]
        assert skipped.value == sum(
            error is not None for _, error in outcomes
        ) > 0
        assert len(got) == len(want)
        assert all(map(_same_value, got, want))
