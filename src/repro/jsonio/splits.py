"""Byte-range input splits: the Spark/Hadoop ingestion model for NDJSON.

The line-oriented pipeline reads a whole file at the driver and ships every
record's text to the workers.  That makes driver memory O(dataset) and puts
the entire input through one process — and, on the process backend, through
pickle — before any partition can start.  This module implements the
input-split model instead: the driver looks at *nothing but the file size*,
computes ``FileSplit(path, offset, length)`` descriptors, and each worker
opens the file itself, seeks to its offset and reads only its byte range.
Nothing but ~100-byte descriptors crosses the process boundary on the way
out, and only tiny partition summaries come back.

Record boundaries never align with byte boundaries, so ownership follows
the classic rule (Hadoop's ``LineRecordReader``): **a line belongs to the
split that contains its first byte**.  A split whose offset lands mid-line
skips forward to the next line start; a split whose last line runs past its
end keeps reading until the line is finished.  Together the splits yield
every line exactly once, in file order within each split.

Line *numbers* are where the subtlety lives.  A worker reading from byte
1,073,741,824 cannot know which file line it is on, so everything a split
reports is numbered split-locally (1-based physical lines, blank lines
counted) and the reader keeps the split's total physical
:attr:`~SplitLineReader.line_count`.  The driver turns local numbers into
absolute ones with a prefix sum over the split line counts
(:func:`rebase_bad_records`), so quarantine sidecars and error messages
come out byte-identical to a line-oriented run.

Terminator handling matches text-mode universal newlines exactly —
``\\n``, ``\\r\\n`` and lone ``\\r`` all end a line — including every
boundary case: a ``\\r\\n`` pair straddling a split edge is one
terminator, a lone ``\\r`` at the edge is a whole one, and UTF-8
multibyte sequences straddling an edge are safe because the scanner only
compares against ASCII terminator bytes, which never occur inside a
multibyte sequence.
"""

from __future__ import annotations

import os
import re
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.jsonio.ndjson import BadRecord

__all__ = [
    "DEFAULT_MIN_SPLIT_BYTES",
    "FileSplit",
    "SplitLineReader",
    "count_lines_before",
    "iter_split_lines",
    "plan_splits",
    "rebase_bad_records",
]

#: Floor on a planned split's size: below this, per-split overhead (task
#: dispatch, open/seek, the skipped partial first line) outweighs the
#: parallelism, so :func:`plan_splits` plans fewer, larger splits instead.
DEFAULT_MIN_SPLIT_BYTES = 1 << 20

#: Read granularity of the boundary-skipping scanner.
_CHUNK = 1 << 16

#: Read granularity of the line reader's bulk loop: large enough that
#: ``bytes.splitlines`` (one C call per block) dominates per-line Python
#: work, small enough that a worker never holds more than one block of a
#: multi-gigabyte split in memory.
_BLOCK = 1 << 22


@dataclass(frozen=True)
class FileSplit:
    """One byte range of one file: everything a worker needs to read it.

    ``offset``/``length`` delimit the range ``[offset, offset + length)``;
    ``index`` is the split's position in the plan (partition order).  The
    descriptor is a few machine words however large the range — that is
    the whole point: it is the only thing the driver ships.
    """

    path: str
    offset: int
    length: int
    index: int = 0

    @property
    def end(self) -> int:
        """First byte offset *past* the split."""
        return self.offset + self.length


def plan_splits(
    path: str | Path,
    num_splits: int,
    min_split_bytes: int = DEFAULT_MIN_SPLIT_BYTES,
    stable: bool = False,
) -> list[FileSplit]:
    """Plan byte-range splits for ``path`` from its size alone.

    Returns at most ``num_splits`` contiguous, disjoint splits covering
    the file exactly, sized within one byte of each other; the count is
    reduced so no split falls below ``min_split_bytes`` (one split
    minimum).  An empty file yields an empty plan.  Only ``os.stat`` is
    consulted — planning a terabyte file costs the same as planning a
    kilobyte one.  A pipe, socket or device reports no usable size, so
    anything but a regular file raises :class:`ValueError`.

    With ``stable=True`` the boundaries are quantized instead of scaled:
    every split but the last spans exactly ``chunk`` bytes, where
    ``chunk`` is the even-division size rounded *up* to a multiple of
    ``min_split_bytes``.  Scaled boundaries move whenever the file size
    changes, so appending one record would shift every split; quantized
    boundaries keep every fully-covered prefix split byte-identical
    across appends (as long as the reduced split count ``num`` is
    unchanged), which is what lets the cross-run summary cache
    (:mod:`repro.store.summarycache`) hit on the unchanged prefix of a
    grown file.  The trade-off is balance: the last split can be up to
    ``chunk`` bytes smaller than the rest.
    """
    if num_splits < 1:
        raise ValueError("num_splits must be >= 1")
    if min_split_bytes < 1:
        raise ValueError("min_split_bytes must be >= 1")
    source = str(path)
    st = os.stat(source)
    if not stat.S_ISREG(st.st_mode):
        raise ValueError(
            f"cannot plan byte-range splits over {source!r}: not a regular "
            f"file (a pipe or device has no size to split); read it with "
            f"split_mode='lines'"
        )
    size = st.st_size
    if size == 0:
        return []
    num = max(1, min(num_splits, size // min_split_bytes))
    if stable:
        chunk = -(-size // num)  # ceil: at most `num` splits
        chunk = -(-chunk // min_split_bytes) * min_split_bytes
        bounds = list(range(0, size, chunk)) + [size]
    else:
        bounds = [round(i * size / num) for i in range(num + 1)]
    return [
        FileSplit(source, a, b - a, index)
        for index, (a, b) in enumerate(zip(bounds, bounds[1:]))
    ]


class SplitLineReader:
    """Iterate one split's lines: ``(local_line_number, stripped_text)``.

    Yields only non-blank lines (like
    :func:`repro.jsonio.ndjson.iter_numbered_lines`), but numbers them by
    *physical* position within the split — blank lines advance the
    counter — so a prefix sum over split :attr:`line_count` values turns
    local numbers into absolute file line numbers.

    After exhaustion, :attr:`line_count` holds the number of physical
    lines owned by the split and :attr:`bytes_read` the bytes consumed
    from the file (boundary probe and overshoot past the split end
    included).
    """

    def __init__(self, split: FileSplit) -> None:
        self.split = split
        #: Physical lines owned by this split (valid after exhaustion).
        self.line_count = 0
        #: Bytes consumed from the file (valid after exhaustion).
        self.bytes_read = 0

    def __iter__(self) -> Iterator[tuple[int, str]]:
        for line_number, piece in self.iter_raw():
            text = piece.decode("utf-8").strip()
            if text:
                yield line_number, text

    def iter_raw(self) -> Iterator[tuple[int, bytes]]:
        """Iterate every physical line as raw, terminator-stripped bytes.

        Unlike :meth:`__iter__`, blank lines are yielded too (as empty or
        whitespace-only ``bytes``) and nothing is decoded: the bytes-native
        parse lane feeds ``json.loads`` raw bytes, so the per-line
        ``decode("utf-8").strip()`` the text lane needs would be a pure
        allocation tax here.  Consumers that do need text semantics apply
        ``piece.decode("utf-8").strip()`` themselves — exactly what
        :meth:`__iter__` does — so blank-line and whitespace handling stay
        identical by construction between the two iteration modes.
        """
        split = self.split
        end = split.end
        if split.length <= 0:
            return
        with open(split.path, "rb") as handle:
            pos = self._align_to_line_start(handle, split.offset)
            consumed = pos - split.offset
            # Bulk loop: read the split in blocks and let
            # ``bytes.splitlines`` — which splits on exactly the three
            # universal-newline terminators — do the line scanning in C.
            # ``carry`` holds the trailing partial line of each block
            # (plus its ``\r`` when a block ends on one, so a ``\r\n``
            # pair straddling a block boundary reassembles).
            carry = b""
            remaining = end - pos
            at_eof = False
            while remaining > 0:
                chunk = handle.read(min(_BLOCK, remaining))
                if not chunk:
                    at_eof = True
                    break
                consumed += len(chunk)
                remaining -= len(chunk)
                data = carry + chunk
                pieces = data.splitlines()
                if data.endswith(b"\r"):
                    # The pair might complete with a \n in the next
                    # block (or just past the split end); hold the line.
                    carry = (pieces.pop() if pieces else b"") + b"\r"
                elif data.endswith(b"\n"):
                    carry = b""
                else:
                    carry = pieces.pop() if pieces else b""
                for piece in pieces:
                    self.line_count += 1
                    yield self.line_count, piece
            # Flush the final partial line.  A carry ending in \r is a
            # *terminated* line (a \n just past the split end would be
            # the pair's tail, skipped by the next split's alignment).
            # A non-empty unterminated carry belongs to this split — its
            # first byte is ours — so read past the split end to finish
            # it, keeping only up to the first terminator: anything
            # after starts a line owned by the next split.
            emit = None
            if carry.endswith(b"\r"):
                emit = carry[:-1]
            elif carry:
                tail = b"" if at_eof else handle.readline()
                if tail:
                    cr = tail.find(b"\r")
                    nl = tail.find(b"\n")  # readline: last byte, or -1
                    if cr != -1 and (nl == -1 or cr < nl):
                        keep = (
                            cr + 2 if tail[cr + 1:cr + 2] == b"\n" else cr + 1
                        )
                    else:
                        keep = len(tail)
                    consumed += keep
                    carry += tail[:keep]
                    if carry.endswith(b"\r\n"):
                        carry = carry[:-2]
                    elif carry.endswith((b"\n", b"\r")):
                        carry = carry[:-1]
                emit = carry
            if emit is not None:
                self.line_count += 1
                yield self.line_count, emit
        self.bytes_read = consumed

    @staticmethod
    def _align_to_line_start(handle, offset: int) -> int:
        """Position ``handle`` at the first line starting at/after ``offset``.

        Implements first-byte ownership: when ``offset`` lands exactly on
        a line start nothing is skipped; when it lands mid-line (or
        inside a ``\\r\\n`` pair) the partial line belongs to the
        previous split and is skipped.  Returns the aligned position.
        """
        if offset == 0:
            return 0
        handle.seek(offset - 1)
        boundary = handle.read(2)  # bytes at offset-1 and offset
        before, at = boundary[0:1], boundary[1:2]
        if before == b"\n":
            handle.seek(offset)
            return offset
        if before == b"\r":
            if at == b"\n":
                # The \n at `offset` is the tail of a \r\n terminator
                # consumed by the previous split; the line starts after.
                return offset + 1
            handle.seek(offset)
            return offset  # lone \r: a complete terminator
        # Mid-line: the rest of this line belongs to the previous split.
        handle.seek(offset)
        pos = offset
        while True:
            chunk = handle.read(_CHUNK)
            if not chunk:
                return pos  # EOF: nothing left for this split
            newline = chunk.find(b"\n")
            cr = chunk.find(b"\r")
            if cr != -1 and (newline == -1 or cr < newline):
                if cr + 1 < len(chunk):
                    skip = cr + 2 if chunk[cr + 1:cr + 2] == b"\n" else cr + 1
                    handle.seek(pos + skip)
                    return pos + skip
                # \r is the chunk's last byte: peek one byte for \r\n.
                peek = handle.read(1)
                skip = cr + 2 if peek == b"\n" else cr + 1
                handle.seek(pos + skip)
                return pos + skip
            if newline != -1:
                handle.seek(pos + newline + 1)
                return pos + newline + 1
            pos += len(chunk)


def iter_split_lines(split: FileSplit) -> Iterator[tuple[int, str]]:
    """Yield ``(split_local_line_number, stripped_line)`` for one split.

    The function-shaped convenience over :class:`SplitLineReader` for
    callers that do not need the split's line count.  Across the splits
    of one :func:`plan_splits` plan, every non-blank line of the file is
    yielded exactly once.
    """
    yield from SplitLineReader(split)


def count_lines_before(path: str | Path, offset: int) -> int:
    """Number of physical lines whose first byte precedes ``offset``.

    Used on the strict error path only: a worker that hit a malformed
    record knows the split-local line number and needs the absolute one
    for its error message.  Reuses the split reader over the synthetic
    range ``[0, offset)`` so the counting semantics are identical by
    construction.
    """
    if offset <= 0:
        return 0
    reader = SplitLineReader(FileSplit(str(path), 0, offset, 0))
    for _ in reader:
        pass
    return reader.line_count


#: The location suffix JsonSyntaxError appends to every message:
#: " (<source>, line <n>, column <c>)" at the very end of the string.
_LOCATION_SUFFIX = re.compile(
    r"^(?P<head>.*) \((?P<source>.*), line (?P<line>\d+), "
    r"column (?P<column>\d+)\)$",
    re.DOTALL,
)


def rebase_bad_records(
    records: Iterable[BadRecord], base: int
) -> tuple[BadRecord, ...]:
    """Shift split-local quarantine entries to absolute file line numbers.

    ``base`` is the number of physical lines owned by all earlier splits
    (the prefix sum of their ``line_count`` values).  Both the structured
    ``line_number`` and the human-readable location suffix inside the
    error message are rewritten, so a sidecar produced from byte splits
    is byte-identical to one produced by a line-oriented run.  The error
    text's location suffix is the one ``JsonSyntaxError`` itself appends,
    matched from the end of the message so raw record text quoted inside
    the message can never be confused for it.
    """
    if base == 0:
        return tuple(records)
    rebased = []
    for bad in records:
        absolute = bad.line_number + base
        error = bad.error
        match = _LOCATION_SUFFIX.match(error)
        if match is not None and int(match.group("line")) == bad.line_number:
            error = (
                f"{match.group('head')} ({match.group('source')}, "
                f"line {absolute}, column {match.group('column')})"
            )
        rebased.append(BadRecord(bad.path, absolute, error, bad.text))
    return tuple(rebased)
