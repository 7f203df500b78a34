"""The map-phase fast lane: type JSON text without materialising values.

The strict pipeline runs three pure-Python stages per record — tokenize,
parse into Python objects, then type those objects (Fig. 4) — and the
intermediate value tree exists only to be typed and thrown away.  This
module removes it.  :class:`HookTyper` (lane ``"hooks"``, what
:func:`resolve_lane` picks for ``auto`` and ``fast``) drives a single
prebuilt :class:`json.JSONDecoder` whose ``object_pairs_hook`` /
``parse_int`` / ``parse_float`` / ``parse_constant`` hooks build
interned type nodes directly while the stdlib scanner does the lexing
(C-accelerated by ``_json``, which CPython ships; the stdlib's
pure-Python scanner drives the same hooks where it is missing).
Numbers are never converted (both hooks return the ``Num`` singleton),
objects never become dicts, and only strings are materialised (the
scanner decodes them natively).

The lane is *optimistic*: it handles well-formed records at full speed
and bails out on anything else — a syntax error, a non-standard
``NaN``/``Infinity`` constant, a duplicate object key, a ``\\u``
surrogate escape (which the stdlib scanner tolerates unpaired but the
strict grammar rejects), an integer literal longer than ``int()``
accepts, nesting past :data:`repro.jsonio.parser.MAX_DEPTH` (caught
when the accumulator's pools would build a node that deep, or as the
scanner's own ``RecursionError``).  The bailout
contract is :exc:`FastLaneMiss` (or any
:class:`~repro.jsonio.errors.JsonError`): the caller re-parses the
offending record with the strict :func:`repro.jsonio.parser.loads` lane,
whose rich ``source``/line/column diagnostics and
:class:`~repro.jsonio.errors.DuplicateKeyError` semantics are therefore
byte-identical to a strict-only run.  Malformed records pay a double
parse; well-formed ones never do.

Equivalence is the hard bar: for every input the fast lane either
produces the *same interned type object* the strict lane's
``infer_type(loads(text))`` would (pointer equality within one
accumulator), or defers to the strict lane entirely.  The differential
fuzz tests check both properties on arbitrary JSON.
"""

from __future__ import annotations

import json
import re
import sys

from repro.core.errors import InvalidTypeError
from repro.core.types import BOOL, NULL, NUM, STR, Type
from repro.jsonio.keycache import KeyCache

__all__ = [
    "PARSE_LANES",
    "FastLaneMiss",
    "HookTyper",
    "resolve_lane",
]

#: The public values of the ``parse_lane`` knob.  ``auto`` lets the
#: library choose (currently: the hook lane), ``fast`` requests the
#: no-value-tree lane explicitly, ``strict`` forces the original
#: tokenize -> parse -> type pipeline.
PARSE_LANES = ("auto", "fast", "strict")

#: Resolved (internal) lane names; "hooks" may also be passed to
#: :func:`resolve_lane` directly (used by the benchmarks and tests).
RESOLVED_LANES = ("hooks", "strict")


class FastLaneMiss(ValueError):
    """A record the fast lane declines to type.

    Raised (or re-raised) by :class:`HookTyper` for any input it cannot
    handle at full speed: malformed JSON, duplicate object keys,
    non-standard constants, surrogate escapes, integer literals too long
    for ``int()``, nesting too deep.  The caller must re-parse the record
    with the strict lane, which either produces the value (and the record
    is typed from it) or fails with the exact diagnostic a strict-only
    run would have raised.

    Subclasses :class:`ValueError` so the stdlib decoder hooks can raise
    it through the C scanner uniformly with ``json.JSONDecodeError``.
    """


def resolve_lane(parse_lane: str) -> str:
    """Map the public ``parse_lane`` knob to a concrete implementation.

    ``strict`` stays strict.  ``fast`` and ``auto`` both resolve to the
    ``"hooks"`` lane — ``auto`` is the pipelines' default and is kept
    distinct from ``fast`` so future heuristics (e.g. preferring strict
    for diagnostics-heavy permissive runs) can change its choice without
    an API break.  The resolved name ``"hooks"`` passes through.

    >>> resolve_lane("strict")
    'strict'
    >>> resolve_lane("auto")
    'hooks'
    """
    if parse_lane == "strict":
        return "strict"
    if parse_lane in ("auto", "fast", "hooks"):
        return "hooks"
    raise ValueError(
        f"unknown parse_lane {parse_lane!r}; expected one of "
        f"{PARSE_LANES} (or a resolved lane in {RESOLVED_LANES})"
    )


# ---------------------------------------------------------------------------
# Lane "hooks": drive the stdlib C scanner, build types in the hooks


def _number_hook(_literal: str) -> Type:
    """The float hook (and the int hook where ``int()`` has no digit
    limit): classify without converting the literal."""
    return NUM


def _make_int_hook():
    """The ``parse_int`` hook under ``int()``'s current digit limit.

    The strict tokenizer converts integer literals with ``int()``, which
    rejects more than ``sys.get_int_max_str_digits()`` digits (CPython
    3.10.7 and later; 0, or an older interpreter, means no limit).  A
    literal that long must take the strict lane so every lane reports
    the same error or quarantine entry.  Counting the sign as a digit
    keeps the test one ``len``: a borderline negative literal defers
    too, and the strict re-parse then accepts it with the identical
    type.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return _number_hook

    def int_hook(literal: str) -> Type:
        if len(literal) > limit:
            raise FastLaneMiss("integer literal over the int() digit limit")
        return NUM

    return int_hook


def _constant_hook(literal: str) -> Type:
    """Reject the stdlib's non-standard NaN/Infinity leniency.

    The strict grammar (RFC 8259) has no such constants; bailing out here
    hands the record to the strict lane, which raises the same
    ``invalid literal`` diagnostic it always has.
    """
    raise FastLaneMiss(f"non-standard JSON constant {literal!r}")


#: A ``\u`` escape naming a code point in U+D800-U+DFFF (the second hex
#: digit of every surrogate is D and the third is 8-F).  The stdlib C
#: scanner decodes these permissively — a lone ``\ud800`` passes through
#: as an unpaired surrogate — while the strict tokenizer pairs them per
#: RFC 8259 section 7 and rejects lone ones, so any record containing
#: such an escape must take the strict lane to keep acceptance,
#: diagnostics and quarantine byte-identical.  Deliberately conservative:
#: a validly *paired* escape (``\\ud83d\\ude00``) also misses, and the
#: strict re-parse then accepts it with the identical type — only the
#: rare escape-bearing record pays, and the check stays one C-speed scan
#: of the raw text.  (An escaped backslash like ``\\ud800`` false-matches
#: too; same harmless deferral.)  Raw unescaped surrogate *characters*
#: need no handling: both lanes pass them through unchanged.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


class HookTyper:
    """C-accelerated typed parsing via stdlib ``json`` decoder hooks.

    One :class:`json.JSONDecoder` is built per typer (``json.loads`` with
    keyword hooks constructs a fresh decoder *per call* — a hidden cost
    this class avoids) and reused for every record of the partition.

    What flows out of the scanner is a hybrid: numbers are already the
    ``Num`` singleton (the parse hooks never build ``int``/``float``; an
    integer literal too long for ``int()`` misses instead),
    objects are already interned ``RecordType`` nodes, while strings,
    booleans, ``null`` and arrays arrive as native Python values and are
    classified by :meth:`_type_of`.  Duplicate object keys surface as
    :class:`~repro.core.errors.InvalidTypeError` from ``RecordType``'s own
    well-formedness check and become a :class:`FastLaneMiss`; the strict
    re-parse then reports the exact offending position.  Records carrying
    ``\\u`` surrogate escapes are deferred wholesale before decoding (see
    ``_SURROGATE_ESCAPE``): the C scanner tolerates lone surrogates the
    strict grammar rejects, so strict must arbitrate those.
    """

    __slots__ = ("_field", "_record", "_array", "_decode", "_key")

    def __init__(self, acc, key_cache: KeyCache | None = None) -> None:
        self._field = acc.interner.field
        self._record = acc.bounded_record_type
        self._array = acc.bounded_array_type
        # Bounded key dedup: repeated field names share one string without
        # sys.intern's process-global, immortal pinning.  Per-typer (i.e.
        # per-partition) by default; a warm worker passes its own cache so
        # the sharing survives across that worker's partitions.
        self._key = (key_cache or KeyCache()).share
        self._decode = json.JSONDecoder(
            object_pairs_hook=self._record_hook,
            parse_float=_number_hook,
            parse_int=_make_int_hook(),
            parse_constant=_constant_hook,
        ).decode

    def type_document(self, text: str) -> Type:
        """The interned type of ``text``; raises :class:`FastLaneMiss`."""
        if "\\u" in text and _SURROGATE_ESCAPE.search(text) is not None:
            # The C scanner would accept lone surrogate escapes the
            # strict grammar rejects; defer before decoding so the
            # strict lane is the arbiter of acceptance.
            raise FastLaneMiss("surrogate \\u escape; deferring to strict")
        try:
            return self._type_of(self._decode(text))
        except (ValueError, InvalidTypeError, RecursionError) as exc:
            # json.JSONDecodeError, our own hooks' FastLaneMiss (the
            # depth check included), the duplicate-key InvalidTypeError
            # and a nesting deep enough to exhaust the stack all funnel
            # into one miss.
            raise FastLaneMiss(str(exc)) from exc

    def _record_hook(self, pairs: list[tuple[str, object]]) -> Type:
        field = self._field
        type_of = self._type_of
        share_key = self._key
        return self._record(
            tuple(field(share_key(k), type_of(v)) for k, v in pairs)
        )

    def _type_of(self, value: object) -> Type:
        """Classify one scanner output (native value or ready-made type)."""
        cls = value.__class__
        if cls is str:
            return STR
        if cls is list:
            return self._array(tuple(map(self._type_of, value)))
        if cls is bool:
            return BOOL
        if value is None:
            return NULL
        return value  # already a Type from a nested hook
