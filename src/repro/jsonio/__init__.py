"""From-scratch JSON I/O substrate (the paper used the Json4s library).

* :mod:`repro.jsonio.tokenizer` — RFC 8259 lexer with positions.
* :mod:`repro.jsonio.parser` — recursive-descent parser; rejects duplicate
  object keys, which the paper's data model forbids in records.
* :mod:`repro.jsonio.writer` — compact serializer.
* :mod:`repro.jsonio.typestream` — the record decoders: the C ``json``
  scanner behind guards that leave every record it cannot vouch for to
  the strict parser.
* :mod:`repro.jsonio.ndjson` — streaming line-delimited JSON files.
* :mod:`repro.jsonio.stream` — element-wise readers for giant JSON arrays.
"""

from repro.jsonio.errors import DuplicateKeyError, JsonError, JsonSyntaxError
from repro.jsonio.ndjson import (
    count_records,
    file_size_bytes,
    iter_lines,
    read_ndjson,
    write_ndjson,
)
from repro.jsonio.parser import loads
from repro.jsonio.stream import iter_json_array, iter_json_values
from repro.jsonio.tokenizer import Token, TokenType, tokenize
from repro.jsonio.writer import dumps

__all__ = [
    "loads", "dumps", "tokenize", "Token", "TokenType",
    "read_ndjson", "write_ndjson", "iter_lines", "count_records",
    "file_size_bytes", "iter_json_array", "iter_json_values",
    "JsonError", "JsonSyntaxError", "DuplicateKeyError",
]
