"""The record decoder: the C ``json`` scanner behind strict guards.

Each NDJSON record is decoded once, by one prebuilt
:class:`json.JSONDecoder` (C-accelerated by ``_json``, which CPython
ships; the stdlib's pure-Python scanner takes over where it is missing).
Two decoders share that scanner and its guards, and differ only in what
an object becomes:

* :func:`guarded_decoder` builds each object as a ``dict`` and checks
  that no key repeats, so its value is the one the strict
  :func:`repro.jsonio.parser.loads` would build: equal content, the same
  ``int``/``float``/``bool`` classes and the same key order.  The
  NDJSON readers of :mod:`repro.jsonio.ndjson` yield it.
* :func:`_pairs_decoder` leaves each object as its ``(key, value)``
  pairs (:class:`_Pairs`), built in C with no per-object Python call.
  The inference kernel's map loop types them (Fig. 4) and hands them to
  the statistics.  It checks no key: the kernel's typer does, where a
  record shape is new to its pool (every pooled shape passed
  :class:`~repro.core.types.RecordType`'s uniqueness check, so only a
  new shape can repeat a key).

The stdlib scanner is more lenient than the strict grammar, so the
decoders are *guarded*: they raise :exc:`FastLaneMiss` wherever the two
could disagree —

* a duplicate object key (:func:`guarded_decoder`'s
  ``object_pairs_hook``, or the kernel's typer over :class:`_Pairs`);
* a non-standard ``NaN``, ``Infinity`` or ``-Infinity`` constant
  (``parse_constant``);
* a ``\\u`` surrogate escape, which the scanner decodes even unpaired
  (a pre-scan of the raw text, see ``_SURROGATE_ESCAPE``);
* an integer literal longer than ``int()`` accepts, and nesting deep
  enough to exhaust the stack (the scanner's own ``ValueError`` and
  ``RecursionError``);
* anything else the scanner rejects.

A miss is not a verdict: the caller re-parses the record with
:func:`repro.jsonio.parser.loads`, the arbiter, whose value, error
message and :class:`~repro.jsonio.errors.DuplicateKeyError` semantics
are therefore exactly a strict-only run's.  Malformed records pay a
double parse; well-formed ones never do.  Nesting past
:data:`repro.jsonio.parser.MAX_DEPTH` that still decodes is a miss the
caller raises: the kernel where a record's type is new to its
partition, the NDJSON readers after a decode.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable

__all__ = ["FastLaneMiss", "guarded_decoder"]


class FastLaneMiss(ValueError):
    """A record the decoder declines: the strict parser must arbitrate.

    Raised for any input the guarded C decode cannot vouch for —
    malformed JSON, duplicate object keys, non-standard constants,
    surrogate escapes, integer literals too long for ``int()``, nesting
    too deep.  The strict re-parse then either produces the value or
    fails with the exact diagnostic a strict-only run would raise.

    Subclasses :class:`ValueError` so the decoder hooks can raise it
    through the C scanner like ``json.JSONDecodeError``.
    """


#: A ``\u`` escape naming a code point in U+D800-U+DFFF (the second hex
#: digit of every surrogate is D and the third is 8-F).  The stdlib C
#: scanner decodes these permissively — a lone ``\ud800`` passes through
#: as an unpaired surrogate — while the strict tokenizer pairs them per
#: RFC 8259 section 7 and rejects lone ones, so any record containing
#: such an escape must go to the strict parser to keep acceptance,
#: diagnostics and quarantine byte-identical.  Deliberately conservative:
#: a validly *paired* escape (``\\ud83d\\ude00``) also misses, and the
#: strict re-parse then accepts it with the identical value — only the
#: rare escape-bearing record pays, and the check stays one C-speed scan
#: of the raw text.  (An escaped backslash like ``\\ud800`` false-matches
#: too; same harmless deferral.)  Raw unescaped surrogate *characters*
#: need no handling: both parsers pass them through unchanged.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """The ``object_pairs_hook``: the object as a dict, unless a key
    repeats (the stdlib would keep the last value silently)."""
    record = dict(pairs)
    if len(record) != len(pairs):
        raise FastLaneMiss("duplicate object key")
    return record


def _no_constants(literal: str) -> Any:
    """The ``parse_constant`` hook: the strict grammar (RFC 8259) has no
    ``NaN`` or ``Infinity``."""
    raise FastLaneMiss(f"non-standard JSON constant {literal!r}")


class _Pairs(tuple):
    """One JSON object as :func:`_pairs_decoder` leaves it: its
    ``(key, value)`` pairs in text order, a repeated key included.

    The ``object_pairs_hook`` itself: the C scanner hands it the pairs
    list, and the tuple is built in C.  A class of its own, so that the
    typer and the statistics tell an object from an array, and so that
    a plain ``tuple`` stays what it was, not a JSON value.
    """

    __slots__ = ()


def _decoder(object_pairs_hook: Callable[[list], Any]) -> Callable[[str], Any]:
    """A ``decode(text)`` function over one prebuilt C decoder that
    builds each object with ``object_pairs_hook``, behind the guards."""
    scan = json.JSONDecoder(
        object_pairs_hook=object_pairs_hook,
        parse_constant=_no_constants,
    ).decode
    surrogate_escape = _SURROGATE_ESCAPE.search

    def decode(text: str) -> Any:
        if "\\u" in text and surrogate_escape(text) is not None:
            raise FastLaneMiss("surrogate \\u escape")
        try:
            return scan(text)
        except (ValueError, RecursionError) as exc:
            # json.JSONDecodeError, the hooks' own misses, int()'s digit
            # limit and a nesting that exhausts the stack: one miss.
            raise FastLaneMiss(str(exc)) from exc

    return decode


def guarded_decoder() -> Callable[[str], Any]:
    """A ``decode(text)`` function over one prebuilt C decoder.

    ``decode`` returns the value of the JSON document ``text`` — equal
    to ``loads(text)``, number and bool classes and key order included —
    or raises :exc:`FastLaneMiss`.  Build one per pass and reuse it:
    ``json.loads`` with keyword hooks constructs a fresh decoder per
    call.

    >>> decode = guarded_decoder()
    >>> decode('{"a": [1, 2.5, true, null]}')
    {'a': [1, 2.5, True, None]}
    >>> decode('{"a": 1, "a": 2}')
    Traceback (most recent call last):
        ...
    repro.jsonio.typestream.FastLaneMiss: duplicate object key
    """
    return _decoder(_unique_keys)


def _pairs_decoder() -> Callable[[str], Any]:
    """The map loop's ``decode(text)``: :func:`guarded_decoder`'s value
    with every object left as its :class:`_Pairs`, *unchecked* for a
    repeated key — the caller must check, as the kernel's typer does.

    >>> decode = _pairs_decoder()
    >>> decode('{"a": [1, {}], "a": 2}')
    (('a', [1, ()]), ('a', 2))
    """
    return _decoder(_Pairs)
