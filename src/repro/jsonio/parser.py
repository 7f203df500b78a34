"""Recursive-descent JSON parser over the token stream.

Differences from :func:`json.loads` that matter for schema inference:

* **Duplicate keys are rejected** (:class:`DuplicateKeyError`).  The paper's
  data model only admits well-formed records; the standard library silently
  keeps the last occurrence, which would make inferred schemas lie about the
  data.
* **Nesting is bounded** by :data:`MAX_DEPTH`: a deeper document is a
  located :class:`JsonSyntaxError`, not a ``RecursionError`` in whatever
  recursive code (typing, fusion, printing) meets it later.
* Errors carry line/column positions.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.jsonio.errors import DuplicateKeyError, JsonSyntaxError
from repro.jsonio.tokenizer import Token, TokenType, tokenize

__all__ = ["MAX_DEPTH", "loads"]

#: Deepest nesting of arrays and objects a document may have: ``[]`` is
#: one level, ``[{"a": []}]`` three.  serde_json's default, and far
#: below what the recursive stages after parsing (typing, fusion, the
#: reduce, printing, checkpoints) handle within Python's default
#: recursion limit.  The map phase's decoder defers deeper records here.
MAX_DEPTH = 128


class _TokenStream:
    """One-token-lookahead wrapper over the tokenizer."""

    __slots__ = ("_iter", "current")

    def __init__(self, tokens: Iterator[Token]) -> None:
        self._iter = tokens
        self.current = next(tokens)

    def advance(self) -> Token:
        token = self.current
        if token.type != TokenType.EOF:
            self.current = next(self._iter)
        return token

    def expect(self, token_type: str) -> Token:
        if self.current.type != token_type:
            raise JsonSyntaxError(
                f"expected {token_type!r}, found {self.current.type!r}",
                self.current.line,
                self.current.column,
            )
        return self.advance()


_ATOMS = {TokenType.STRING, TokenType.NUMBER, TokenType.TRUE,
          TokenType.FALSE, TokenType.NULL}


def _parse_value(stream: _TokenStream, depth: int = 0) -> Any:
    """The value at the stream's head, inside ``depth`` containers."""
    token = stream.current
    if token.type in _ATOMS:
        stream.advance()
        return token.value
    if token.type == TokenType.LBRACE:
        if depth == MAX_DEPTH:
            raise _too_deep(token)
        return _parse_object(stream, depth + 1)
    if token.type == TokenType.LBRACKET:
        if depth == MAX_DEPTH:
            raise _too_deep(token)
        return _parse_array(stream, depth + 1)
    raise JsonSyntaxError(
        f"unexpected token {token.type!r}", token.line, token.column
    )


def _too_deep(token: Token) -> JsonSyntaxError:
    return JsonSyntaxError(
        f"nested deeper than {MAX_DEPTH} levels", token.line, token.column
    )


def _parse_object(stream: _TokenStream, depth: int) -> dict[str, Any]:
    stream.expect(TokenType.LBRACE)
    obj: dict[str, Any] = {}
    if stream.current.type == TokenType.RBRACE:
        stream.advance()
        return obj
    while True:
        key_token = stream.expect(TokenType.STRING)
        key = key_token.value
        if key in obj:
            raise DuplicateKeyError(key, key_token.line, key_token.column)
        stream.expect(TokenType.COLON)
        obj[key] = _parse_value(stream, depth)
        if stream.current.type == TokenType.COMMA:
            stream.advance()
            continue
        stream.expect(TokenType.RBRACE)
        return obj


def _parse_array(stream: _TokenStream, depth: int) -> list[Any]:
    stream.expect(TokenType.LBRACKET)
    arr: list[Any] = []
    if stream.current.type == TokenType.RBRACKET:
        stream.advance()
        return arr
    while True:
        arr.append(_parse_value(stream, depth))
        if stream.current.type == TokenType.COMMA:
            stream.advance()
            continue
        stream.expect(TokenType.RBRACKET)
        return arr


def loads(
    text: str, source: str | None = None, first_line: int = 1
) -> Any:
    """Parse a JSON document from a string.

    ``source`` and ``first_line`` anchor error positions in the document's
    origin: when parsing one record of an NDJSON file, pass the file path
    and the record's absolute (1-based) line number, and any error will
    report the position *in the file* instead of within the record's text.

    >>> loads('{"a": [1, true, null]}')
    {'a': [1, True, None]}
    >>> loads('{"a": 1, "a": 2}')
    Traceback (most recent call last):
        ...
    repro.jsonio.errors.DuplicateKeyError: duplicate object key 'a' (line 1, column 10)
    >>> loads('nope', source='feed.ndjson', first_line=3)
    Traceback (most recent call last):
        ...
    repro.jsonio.errors.JsonSyntaxError: invalid literal 'nope' (feed.ndjson, line 3, column 1)
    """
    try:
        stream = _TokenStream(tokenize(text))
        value = _parse_value(stream)
        stream.expect(TokenType.EOF)
        return value
    except JsonSyntaxError as exc:
        if source is None and first_line == 1:
            raise
        raise exc.relocate(source, first_line + exc.line - 1) from None
