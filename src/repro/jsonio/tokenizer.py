"""A from-scratch JSON tokenizer (RFC 8259 lexical grammar).

Produces a stream of :class:`Token` objects with 1-based line/column
positions.  The tokenizer is strict: no comments, no trailing commas, no
single quotes, no ``NaN``/``Infinity`` — exactly the JSON grammar.
"""

from __future__ import annotations

import sys
from typing import Iterator, NamedTuple

from repro.jsonio.errors import JsonSyntaxError

__all__ = ["Token", "TokenType", "tokenize"]


class TokenType:
    """Token discriminators (plain string constants for cheap comparison)."""

    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COLON = ":"
    COMMA = ","
    STRING = "string"
    NUMBER = "number"
    TRUE = "true"
    FALSE = "false"
    NULL = "null"
    EOF = "eof"


class Token(NamedTuple):
    """A single lexical token with its decoded value and source position."""

    type: str
    value: object
    line: int
    column: int


_PUNCT = {
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    ":": TokenType.COLON,
    ",": TokenType.COMMA,
}

_KEYWORDS = {
    "true": (TokenType.TRUE, True),
    "false": (TokenType.FALSE, False),
    "null": (TokenType.NULL, None),
}

_ESCAPES = {
    '"': '"',
    "\\": "\\",
    "/": "/",
    "b": "\b",
    "f": "\f",
    "n": "\n",
    "r": "\r",
    "t": "\t",
}

_WS = " \t\n\r"
_DIGITS = "0123456789"


class _Cursor:
    """Mutable position over the source text with line/column tracking."""

    __slots__ = ("text", "pos", "line", "col")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str) -> JsonSyntaxError:
        return JsonSyntaxError(message, self.line, self.col)

    def advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1


def _lex_string(cur: _Cursor) -> str:
    """Lex a string literal; the cursor sits on the opening quote."""
    start_line, start_col = cur.line, cur.col
    cur.advance()  # opening quote
    text = cur.text
    out: list[str] = []
    while True:
        if cur.pos >= len(text):
            raise JsonSyntaxError("unterminated string", start_line, start_col)
        c = text[cur.pos]
        if c == '"':
            cur.advance()
            return "".join(out)
        if c == "\\":
            cur.advance()
            if cur.pos >= len(text):
                raise cur.error("unterminated escape sequence")
            esc = text[cur.pos]
            if esc in _ESCAPES:
                out.append(_ESCAPES[esc])
                cur.advance()
            elif esc == "u":
                out.append(_lex_unicode_escape(cur))
            else:
                raise cur.error(f"invalid escape character {esc!r}")
        elif ord(c) < 0x20:
            raise cur.error(f"unescaped control character {c!r} in string")
        else:
            out.append(c)
            cur.advance()


def _lex_hex4(cur: _Cursor) -> int:
    """Read exactly four hex digits after a ``\\u``."""
    text = cur.text
    if cur.pos + 4 > len(text):
        raise cur.error("truncated \\u escape")
    quad = text[cur.pos:cur.pos + 4]
    try:
        code = int(quad, 16)
    except ValueError:
        raise cur.error(f"invalid \\u escape {quad!r}") from None
    cur.advance(4)
    return code


def _lex_unicode_escape(cur: _Cursor) -> str:
    """Decode ``\\uXXXX``, pairing surrogates per RFC 8259 section 7."""
    cur.advance()  # the 'u'
    code = _lex_hex4(cur)
    if 0xD800 <= code <= 0xDBFF:
        # High surrogate: require a following \uXXXX low surrogate.
        text = cur.text
        if text[cur.pos:cur.pos + 2] == "\\u":
            cur.advance(2)
            low = _lex_hex4(cur)
            if 0xDC00 <= low <= 0xDFFF:
                combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                return chr(combined)
            raise cur.error("unpaired high surrogate in \\u escape")
        raise cur.error("unpaired high surrogate in \\u escape")
    if 0xDC00 <= code <= 0xDFFF:
        raise cur.error("unpaired low surrogate in \\u escape")
    return chr(code)


def _lex_number(cur: _Cursor) -> int | float:
    """Lex a number; the cursor sits on ``-`` or a digit."""
    text = cur.text
    start = cur.pos
    line, col = cur.line, cur.col
    is_float = False

    if cur.pos < len(text) and text[cur.pos] == "-":
        cur.advance()
    if cur.pos >= len(text) or text[cur.pos] not in _DIGITS:
        raise cur.error("invalid number")
    if text[cur.pos] == "0":
        cur.advance()
        if cur.pos < len(text) and text[cur.pos] in _DIGITS:
            raise cur.error("leading zeros are not allowed")
    else:
        while cur.pos < len(text) and text[cur.pos] in _DIGITS:
            cur.advance()
    if cur.pos < len(text) and text[cur.pos] == ".":
        is_float = True
        cur.advance()
        if cur.pos >= len(text) or text[cur.pos] not in _DIGITS:
            raise cur.error("digit expected after decimal point")
        while cur.pos < len(text) and text[cur.pos] in _DIGITS:
            cur.advance()
    if cur.pos < len(text) and text[cur.pos] in "eE":
        is_float = True
        cur.advance()
        if cur.pos < len(text) and text[cur.pos] in "+-":
            cur.advance()
        if cur.pos >= len(text) or text[cur.pos] not in _DIGITS:
            raise cur.error("digit expected in exponent")
        while cur.pos < len(text) and text[cur.pos] in _DIGITS:
            cur.advance()

    literal = text[start:cur.pos]
    if is_float:
        return float(literal)
    try:
        return int(literal)
    except ValueError:
        # int() refuses more than sys.get_int_max_str_digits() digits.
        raise JsonSyntaxError(
            f"integer literal longer than the {sys.get_int_max_str_digits()}"
            f"-digit limit of int()", line, col,
        ) from None


def tokenize(text: str) -> Iterator[Token]:
    """Yield the tokens of ``text``, ending with a single EOF token.

    >>> [t.type for t in tokenize('{"a": 1}')]
    ['{', 'string', ':', 'number', '}', 'eof']
    """
    cur = _Cursor(text)
    while True:
        while cur.pos < len(text) and text[cur.pos] in _WS:
            cur.advance()
        if cur.pos >= len(text):
            yield Token(TokenType.EOF, None, cur.line, cur.col)
            return
        c = text[cur.pos]
        line, col = cur.line, cur.col
        if c in _PUNCT:
            cur.advance()
            yield Token(_PUNCT[c], c, line, col)
        elif c == '"':
            yield Token(TokenType.STRING, _lex_string(cur), line, col)
        elif c == "-" or c in _DIGITS:
            yield Token(TokenType.NUMBER, _lex_number(cur), line, col)
        elif c.isalpha():
            start = cur.pos
            while cur.pos < len(text) and text[cur.pos].isalpha():
                cur.advance()
            word = text[start:cur.pos]
            if word not in _KEYWORDS:
                raise JsonSyntaxError(f"invalid literal {word!r}", line, col)
            kind, value = _KEYWORDS[word]
            yield Token(kind, value, line, col)
        else:
            raise cur.error(f"unexpected character {c!r}")
