"""Differential tests: our JSON parser against the standard library.

On any input, the from-scratch parser must agree with ``json.loads`` about
(a) the parsed value when both accept, and (b) acceptance itself — except
for the one *documented* divergence: duplicate object keys, which stdlib
silently resolves and we reject (the paper's well-formedness condition).

The map phase decodes with the stdlib scanner behind guards and lets the
from-scratch parser arbitrate every record the guards catch;
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


class TestDecoder:
    """The map phase's guarded C decoder against :func:`loads`, its
    arbiter: the decoder returns what ``loads`` returns, typed to the
    node the strict fold interns, or it misses and ``loads`` decides."""

    @given(json_values())
    def test_decodes_what_loads_parses_or_misses(self, value):
        from repro.inference.infer import infer_type
        from repro.inference.kernel import PartitionAccumulator
        from repro.inference.typestream import FastLaneMiss, guarded_decoder

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

    @pytest.mark.parametrize("text", [
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
    ])
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
        from repro.inference.typestream import guarded_decoder

        text = '{"a": "\\u00d8\\u0041\\n"}'
        assert _same_value(guarded_decoder()(text), loads(text))
