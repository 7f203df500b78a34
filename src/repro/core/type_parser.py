"""Parser for the concrete type syntax produced by :mod:`repro.core.printer`.

Grammar (whitespace, including newlines, is insignificant between tokens)::

    type      := term ('+' term)*
    term      := basic | record | array | '(empty)' | '(' type ')'
    basic     := 'Null' | 'Bool' | 'Num' | 'Str'
    record    := '{' [field (',' field)*] '}'
    field     := key ':' term ['?']
    key       := identifier | string-literal
    array     := '[' ']'                          -- empty positional array
               | '[' type '*' ']'                 -- simplified array
               | '[' type (',' type)* ']'         -- positional array

Note the single grammar subtlety: inside ``[...]`` we parse a full union
``type`` and then decide, on seeing ``*``, whether it was a simplified array
body.  ``[Num + Str]`` is a one-element positional array of a union;
``[(Num + Str)*]`` and ``[Num + Str*]`` are both the simplified array.

String-literal keys support the escapes the printer emits: ``\\\\``,
``\\"``, ``\\n``, ``\\t``, ``\\r`` and ``\\uXXXX``; any other backslashed
character stands for itself.  The printer never leaves a raw control
character in its output, so a printed type always occupies exactly one
line.

The parser makes one pass over regex tokens and hash-conses every node it
builds through a pool: structurally equal subtrees come out as one shared
object, and a repeated subtree costs a dict hit instead of a constructor.
"""

from __future__ import annotations

import re

from repro.core.errors import TypeSyntaxError
from repro.core.types import (
    ArrayType,
    BOOL,
    EMPTY,
    Field,
    NULL,
    NUM,
    RecordType,
    STR,
    StarArrayType,
    Type,
    UnionType,
    make_union,
)

__all__ = ["parse_type"]

_BASIC = {"Null": NULL, "Bool": BOOL, "Num": NUM, "Str": STR}

#: One token per match, after optional whitespace: an identifier
#: (``[\w$-]`` is exactly ``str.isalnum()`` plus ``_$-``), a quoted key
#: that closes within the source, or any other single character.  A
#: lone ``"`` token opens a key that never closes.
_TOKEN = re.compile(r'\s*([\w$-]+|"[^"\\]*(?:\\.[^"\\]*)*"|\S)', re.S)

#: One backslash escape in a quoted key: ``\uXXXX``, a ``\u`` without
#: four hex digits, any other escaped character, or a backslash that
#: ends the source.
_ESCAPE = re.compile(r"\\(?:u([0-9a-fA-F]{4})|(u)|(.)|\Z)", re.S)
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}


def parse_type(source: str, pool: dict | None = None) -> Type:
    """Parse a type from its concrete syntax.

    >>> from repro.core.printer import print_type
    >>> print_type(parse_type("{a: Num, b: (Str + Null)?}"))
    '{a: Num, b: (Null + Str)?}'

    Calls that share a ``pool`` (a dict the caller owns, initially empty)
    share structurally equal subtrees as one object; without one, only
    within this call.  A pool keeps every type it built alive, so give it
    the lifetime of one load, as :func:`repro.store.load_checkpoint` does.

    >>> pool = {}
    >>> a = parse_type("{a: [Num*]}", pool)
    >>> parse_type("[Str, {a: [Num*]}]", pool).elements[1] is a
    True

    Raises :class:`repro.core.errors.TypeSyntaxError` on malformed input or
    trailing garbage.
    """
    # Pool keys never collide across kinds: a record is keyed by its
    # Field tuple, a field by (name, id(type), optional) (the field keeps
    # its type alive, so the id is never recycled), a star by its body,
    # and unions and arrays by their members behind a "+" or "[" tag.
    pool = {} if pool is None else pool
    tokens = _TOKEN.findall(source)
    end = len(tokens)
    tokens.append("")  # end of input; no real token is empty
    i = 0

    def fail(message: str, index: int, after: bool = False):
        return TypeSyntaxError(message, _position(source, index, after))

    def expect(char: str) -> None:
        nonlocal i
        if tokens[i] != char:
            raise fail(f"expected {char!r}", i)
        i += 1

    def union() -> Type:
        # type := term ('+' term)*, with the term rule inline.
        nonlocal i
        terms = None
        while True:
            tok = tokens[i]
            i += 1
            t = _BASIC.get(tok)
            if t is not None:
                pass
            elif tok == "{":
                t = record()
            elif tok == "[":
                t = array()
            elif tok == "(":
                if tokens[i] == "empty" and tokens[i + 1] == ")":
                    i += 2
                    t = EMPTY
                else:
                    t = union()
                    expect(")")
            elif tok[:1].isalpha():
                raise fail(f"unknown type name {tok!r}", i - 1, after=True)
            elif not tok:
                raise fail("unexpected end of input", i - 1)
            else:
                raise fail(f"unexpected character {tok[0]!r}", i - 1)
            if tokens[i] != "+":
                break
            i += 1
            terms = terms or ["+"]
            terms.append(t)
        if terms is None:
            return t
        terms.append(t)
        key = tuple(terms)
        u = pool.get(key)
        if u is None:
            u = make_union(key[1:])
            if isinstance(u, UnionType):
                u = pool.setdefault(("+", *u.members), u)
            pool[key] = u
        return u

    def record() -> RecordType:
        # '{' [field (',' field)*] '}', with the field rule inline.
        nonlocal i
        fields = []
        while tokens[i] != "}" or fields:
            name = tokens[i]
            if name[:1] == '"':
                name = _quoted_key(source, name, i)
            elif not name or not (name[0].isalnum() or name[0] in "_$-"):
                raise fail("expected an identifier", i)
            if tokens[i + 1] != ":":
                raise fail("expected ':'", i + 1)
            i += 2
            t = union()
            optional = tokens[i] == "?"
            if optional:
                i += 1
            key = (name, id(t), optional)
            f = pool.get(key)
            if f is None:
                f = pool[key] = Field(name, t, optional)
            fields.append(f)
            if tokens[i] != ",":
                break
            i += 1  # a field must follow, even before "}"
        expect("}")
        key = tuple(fields)
        r = pool.get(key)
        if r is None:
            r = RecordType(key)
            r = pool[key] = pool.setdefault(r.fields, r)
        return r

    def array() -> Type:
        nonlocal i
        elements = ["["]
        if tokens[i] != "]":
            elements.append(union())
            if tokens[i] == "*":
                i += 1
                expect("]")
                s = pool.get(elements[1])
                if s is None:
                    s = pool[elements[1]] = StarArrayType(elements[1])
                return s
            while tokens[i] == ",":
                i += 1
                elements.append(union())
        expect("]")
        key = tuple(elements)
        a = pool.get(key)
        if a is None:
            a = pool[key] = ArrayType(key[1:])
        return a

    t = union()
    if i != end:
        raise fail("trailing characters after type", i)
    return t


def _position(source: str, index: int, after: bool = False) -> int:
    """Where token ``index`` starts (ends, with ``after``) in ``source``;
    ``len(source)`` at the end of input.  Only errors pay for this."""
    for number, match in enumerate(_TOKEN.finditer(source)):
        if number == index:
            return match.end(1) if after else match.start(1)
    return len(source)


def _quoted_key(source: str, token: str, index: int) -> str:
    """The key that ``token`` (token ``index`` of ``source``, starting
    with ``"``) stands for, with its escapes decoded."""
    closed = len(token) > 1
    if closed and "\\" not in token:
        return token[1:-1]
    start = _position(source, index) + 1
    body = token[1:-1] if closed else source[start:]

    def unescape(match: re.Match) -> str:
        digits, bad_u, char = match.groups()
        if digits is not None:
            return chr(int(digits, 16))
        if char is not None:
            return _ESCAPES.get(char, char)
        raise TypeSyntaxError(
            "\\u escape needs four hex digits" if bad_u
            else "unterminated escape",
            start + match.end(),
        )

    name = _ESCAPE.sub(unescape, body)
    if not closed:
        raise TypeSyntaxError("unterminated string literal", len(source))
    return name
