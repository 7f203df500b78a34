"""Differential tests: our JSON parser against the standard library.

On any input, the from-scratch parser must agree with ``json.loads`` about
(a) the parsed value when both accept, and (b) acceptance itself — except
for the one *documented* divergence: duplicate object keys, which stdlib
silently resolves and we reject (the paper's well-formedness condition).
"""

import json as stdlib_json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.jsonio.errors import DuplicateKeyError, JsonError
from repro.jsonio.parser import loads
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


class TestFastLanesMatchStrictTyping:
    """The map-phase fast lane against the strict parse-then-type path.

    For every JSON value the hook typer must produce the *same interned
    type object* (pointer equality within one accumulator) that
    ``interner.intern(infer_type(loads(text)))`` yields, and it must
    leave every surrogate escape to the strict parser.
    """

    @given(json_values())
    def test_hook_typer_pointer_equal(self, value):
        from repro.inference.infer import infer_type
        from repro.inference.kernel import PartitionAccumulator
        from repro.inference.typestream import HookTyper

        acc = PartitionAccumulator()
        typer = HookTyper(acc)
        text = dumps(value)
        fast = typer.type_document(text)
        strict = acc.interner.intern(infer_type(loads(text)))
        assert fast is strict

    @pytest.mark.parametrize("text", [
        '"\\ud800"',           # lone high surrogate
        '"\\udc00"',           # lone low surrogate
        '{"a": "\\uD800"}',    # uppercase hex, nested
        '"\\ud800x"',          # high surrogate not followed by \u
        '"\\ud83d\\ude00"',    # valid pair (deferred, then accepted)
    ])
    def test_hook_typer_never_answers_for_surrogate_escapes(self, text):
        """The C scanner tolerates lone surrogates; the typer must defer.

        Without the deferral the hooks lane would silently *accept*
        inputs the strict lane rejects, breaking the byte-identical
        contract (schema, error and quarantine output would differ
        between ``auto`` and ``strict``).
        """
        from repro.inference.kernel import PartitionAccumulator
        from repro.inference.typestream import FastLaneMiss, HookTyper

        typer = HookTyper(PartitionAccumulator())
        with pytest.raises(FastLaneMiss):
            typer.type_document(text)
