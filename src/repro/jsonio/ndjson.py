"""Streaming newline-delimited JSON (NDJSON) readers and writers.

The paper's datasets are collections of JSON records, one per line; this
module reads and writes that format without materialising the whole file.

Real-world feeds at the paper's scale (GitHub event streams, Twitter
firehose dumps) routinely contain malformed lines, so the readers support
three dispositions for a bad record:

* **strict** (default) — raise :class:`~repro.jsonio.errors.JsonError`,
  with the *absolute* file line number and the source path in the message;
* **skip** (``skip_invalid=True``) — silently drop the line;
* **quarantine** (:func:`read_ndjson_quarantined`) — drop the line but
  record a :class:`BadRecord` (path, absolute line number, error text, raw
  text) for reporting, and optionally spill the collection to an NDJSON
  sidecar via :func:`write_bad_records`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, MutableSequence

from repro.jsonio.errors import JsonError, JsonSyntaxError
from repro.jsonio.parser import MAX_DEPTH, loads
from repro.jsonio.typestream import FastLaneMiss, guarded_decoder
from repro.jsonio.writer import dumps

__all__ = [
    "BadRecord",
    "count_records",
    "iter_lines",
    "iter_numbered_lines",
    "read_ndjson",
    "read_ndjson_quarantined",
    "write_bad_records",
    "write_ndjson",
]


@dataclass(frozen=True)
class BadRecord:
    """One quarantined NDJSON line: where it was, why it failed, what it was.

    ``line_number`` is the absolute, 1-based physical line of the source
    file (blank lines included in the count), so the record can be located
    with any text editor or ``sed -n``.
    """

    path: str
    line_number: int
    error: str
    text: str

    def to_json(self) -> dict[str, Any]:
        """The sidecar representation (one NDJSON record per bad line)."""
        return {
            "path": self.path,
            "line": self.line_number,
            "error": self.error,
            "text": self.text,
        }


def iter_numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield ``(absolute_line_number, stripped_line)`` for non-blank lines.

    Line numbers are 1-based and count *physical* lines, blank ones
    included — they answer "which line of the file is this record on",
    which is what error messages and quarantine sidecars need.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if stripped:
                yield line_number, stripped


def iter_lines(path: str | Path) -> Iterator[str]:
    """Yield non-blank lines of ``path`` (each should be one JSON record)."""
    for _line_number, line in iter_numbered_lines(path):
        yield line


def _nests_deeper(value: Any, limit: int) -> bool:
    """Whether a decoded ``value`` nests more than ``limit`` arrays and
    objects (``[]`` is one level): :data:`~repro.jsonio.parser.MAX_DEPTH`'s
    boundary, drawn over values as the kernel's ``_deeper_than`` draws
    it over types.  Walked a level at a time, to the limit at most."""
    level = [value]
    for _ in range(limit + 1):
        containers = [v for v in level
                      if v.__class__ is dict or v.__class__ is list]
        if not containers:
            return False
        level = []
        for container in containers:
            level.extend(container.values() if container.__class__ is dict
                         else container)
    return True


def _record_parser(source: str | None) -> Callable[[str, int], Any]:
    """``parse(line, line_number)``: one record's value, as :func:`loads`
    gives it.

    Each line goes first to one guarded C decoder
    (:func:`repro.jsonio.typestream.guarded_decoder`); every line it
    misses is re-parsed by :func:`loads`, so values and errors are a
    ``loads``-only read's.  So is every decoded value that nests deeper
    than :data:`~repro.jsonio.parser.MAX_DEPTH`, which the C scanner
    accepts: only a line with more ``{``/``[`` characters than that can
    hold one, so only such a line is walked for its depth.
    """
    decode = guarded_decoder()

    def parse(line: str, line_number: int) -> Any:
        try:
            value = decode(line)
        except FastLaneMiss:
            pass
        else:
            if (line.count("{") + line.count("[") <= MAX_DEPTH
                    or not _nests_deeper(value, MAX_DEPTH)):
                return value
        return loads(line, source=source, first_line=line_number)

    return parse


def read_ndjson(path: str | Path, skip_invalid: bool = False) -> Iterator[Any]:
    """Stream the JSON records of an NDJSON file.

    With ``skip_invalid=True``, unparseable lines are silently dropped —
    useful for raw crawls; the default propagates the parse error carrying
    the source path and the absolute file line number.  Records decode
    as :func:`_record_parser` describes.
    """
    source = str(path)
    parse = _record_parser(source)
    for line_number, line in iter_numbered_lines(path):
        try:
            yield parse(line, line_number)
        except JsonError as exc:
            if skip_invalid:
                continue
            if isinstance(exc, JsonSyntaxError):
                raise  # already carries the absolute position and path
            raise JsonError(f"{source}, line {line_number}: {exc}") from exc


def read_ndjson_quarantined(
    path: str | Path, quarantine: MutableSequence[BadRecord]
) -> Iterator[Any]:
    """Stream an NDJSON file, diverting malformed lines into ``quarantine``.

    Parse errors never propagate: each bad line becomes a
    :class:`BadRecord` appended to the caller's collection, and iteration
    continues with the next line.  The caller decides what "too many"
    means (see the pipelines' ``max_error_rate``).
    """
    source = str(path)
    parse = _record_parser(source)
    for line_number, line in iter_numbered_lines(path):
        try:
            yield parse(line, line_number)
        except JsonError as exc:
            quarantine.append(
                BadRecord(source, line_number, str(exc), line)
            )


def write_ndjson(path: str | Path, values: Iterable[Any]) -> int:
    """Write ``values`` to ``path`` as NDJSON; returns the record count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for value in values:
            handle.write(dumps(value))
            handle.write("\n")
            count += 1
    return count


def write_bad_records(
    path: str | Path, records: Iterable[BadRecord]
) -> int:
    """Spill quarantined records to an NDJSON sidecar; returns the count.

    Each output line is ``{"path":…, "line":…, "error":…, "text":…}``,
    so the sidecar is itself machine-readable NDJSON — it can be grepped,
    diffed, or re-ingested once the upstream producer is fixed.
    """
    return write_ndjson(path, (bad.to_json() for bad in records))


def count_records(path: str | Path) -> int:
    """Number of records in an NDJSON file (blank lines excluded)."""
    return sum(1 for _ in iter_lines(path))


def file_size_bytes(path: str | Path) -> int:
    """Size of a file in bytes (for Table 1 style dataset-size reports)."""
    return os.stat(path).st_size
