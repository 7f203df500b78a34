"""Human-readable concrete syntax for types, following the paper's notation.

Examples of the output syntax::

    Null  Bool  Num  Str                         basic types
    {a: Num, b: (Num + Bool), c: Str?}           record with an optional field
    [Num, Str]                                   positional array type
    [(Str + {E: Str, F: Num})*]                  simplified array type
    Num + Str                                    union
    (empty)                                      the empty type

The syntax is designed to round-trip through :mod:`repro.core.type_parser`:
``parse_type(print_type(t)) == t`` for every type ``t`` (a property the test
suite checks with hypothesis).
"""

from __future__ import annotations

import re

from repro.core.types import (
    ArrayType,
    BasicType,
    EmptyType,
    RecordType,
    StarArrayType,
    Type,
    UnionType,
)

__all__ = ["print_type", "pretty_print"]

#: Printed form of the empty type.  Chosen to be ASCII-friendly.
EMPTY_SYMBOL = "(empty)"


#: Short escapes for the common control characters; everything else
#: below U+0020 prints as ``\uXXXX``.  Keeping printed types free of raw
#: control characters makes the output safe for line-oriented formats
#: (one type per line, e.g. a checkpoint's schema file) and for
#: terminals.
_KEY_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t",
                "\r": "\\r"}
_ESCAPED = re.compile(r'[\\"\x00-\x1f]')

#: A bare identifier: ``[\w$-]`` is exactly ``str.isalnum()`` plus
#: ``_$-``, the parser's identifier characters.
_BARE_KEY = re.compile(r"[\w$-]+")


def _key_syntax(name: str) -> str:
    """Quote a record key unless it is a bare identifier."""
    if _BARE_KEY.fullmatch(name) and not name[0].isdigit():
        return name
    return '"' + _ESCAPED.sub(_escape, name) + '"'


def _escape(match: re.Match) -> str:
    c = match.group()
    return _KEY_ESCAPES.get(c) or f"\\u{ord(c):04x}"


def print_type(t: Type) -> str:
    """Render ``t`` on a single line in the paper's concrete syntax."""
    return _render(t, {})


def _render(t: Type, memo: dict[int, str]) -> str:
    """:func:`print_type`, memoised on node (and field) identity."""
    text = memo.get(id(t))
    if text is not None:
        return text
    if isinstance(t, RecordType):
        parts = []
        for field in t.fields:
            part = memo.get(id(field))
            if part is None:
                rendered = _render(field.type, memo)
                if isinstance(field.type, UnionType):
                    rendered = f"({rendered})"
                mark = "?" if field.optional else ""
                part = f"{_key_syntax(field.name)}: {rendered}{mark}"
                memo[id(field)] = part
            parts.append(part)
        text = "{" + ", ".join(parts) + "}"
    elif isinstance(t, BasicType):
        text = t.name
    elif isinstance(t, EmptyType):
        text = EMPTY_SYMBOL
    elif isinstance(t, ArrayType):
        text = "[" + ", ".join(_render(e, memo) for e in t.elements) + "]"
    elif isinstance(t, StarArrayType):
        body = _render(t.body, memo)
        text = (
            f"[({body})*]" if isinstance(t.body, UnionType) else f"[{body}*]"
        )
    elif isinstance(t, UnionType):
        text = " + ".join(_render(m, memo) for m in t.members)
    else:
        raise TypeError(f"not a type: {t!r}")
    memo[id(t)] = text
    return text


def pretty_print(t: Type, indent: int = 2, _level: int = 0) -> str:
    """Render ``t`` over multiple lines with indentation.

    Useful for large fused schemas; the single-line form of a Wikidata-style
    schema is unreadable.  The output is still valid input for the parser.
    """
    pad = " " * (indent * _level)
    inner = " " * (indent * (_level + 1))
    if isinstance(t, RecordType) and t.fields:
        lines = ["{"]
        for field in t.fields:
            rendered = pretty_print(field.type, indent, _level + 1)
            if isinstance(field.type, UnionType):
                rendered = f"({rendered})"
            mark = "?" if field.optional else ""
            lines.append(f"{inner}{_key_syntax(field.name)}: {rendered}{mark},")
        # Strip the trailing comma from the final field for parser friendliness.
        lines[-1] = lines[-1][:-1]
        lines.append(pad + "}")
        return "\n".join(lines)
    if isinstance(t, StarArrayType):
        body = pretty_print(t.body, indent, _level)
        if isinstance(t.body, UnionType):
            return f"[({body})*]"
        return f"[{body}*]"
    if isinstance(t, ArrayType) and t.elements:
        rendered = ", ".join(pretty_print(e, indent, _level) for e in t.elements)
        return f"[{rendered}]"
    if isinstance(t, UnionType):
        return " + ".join(pretty_print(m, indent, _level) for m in t.members)
    return print_type(t)
