"""Byte-range input splits: the Spark/Hadoop ingestion model for NDJSON.

The line-oriented pipeline reads a whole file at the driver and ships every
record's text to the workers.  That makes driver memory O(dataset) and puts
the entire input through one process — and, on the process backend, through
pickle — before any partition can start.  This module implements the
input-split model instead: the driver looks at *nothing but the file size*,
computes ``FileSplit(path, offset, length)`` descriptors, and each worker
opens the file itself, seeks to its offset and reads only its byte range.
Nothing but ~100-byte descriptors crosses the process boundary on the way
out, and only tiny partition summaries come back.  Every regular file is
read this way, a sequential run's as one whole-file split; only a pipe,
which has no size to split, is read line by line at the driver.

Record boundaries never align with byte boundaries, so ownership follows
the classic rule (Hadoop's ``LineRecordReader``): **a line belongs to the
split that contains its first byte**.  A split whose offset lands mid-line
skips forward to the next line start; a split whose last line runs past its
end keeps reading until the line is finished.  Together the splits yield
every line exactly once, in file order within each split.  The same rules,
applied to the whole file as one buffer (:func:`split_content_span`), give
the exact bytes each split depends on, which :func:`digest_splits` hashes
into the cross-run summary cache's content keys.

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

import hashlib
import mmap
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
    "digest_splits",
    "plan_splits",
    "rebase_bad_records",
    "split_content_span",
]

#: Floor on a planned split's size: below this, per-split overhead (task
#: dispatch, open/seek, the skipped partial first line) outweighs the
#: parallelism, so :func:`plan_splits` plans fewer, larger splits instead.
DEFAULT_MIN_SPLIT_BYTES = 1 << 20

#: Read granularity of the line reader and of its boundary scan: large
#: enough that ``bytes.splitlines`` (one C call per block) dominates
#: per-line Python work, small enough that a reader holds one block (and
#: the partial line it carries) however large its split: a sequential
#: run reads the whole file as one split.
_BLOCK = 1 << 16


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
            f"file (a pipe or device has no size to split)"
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
                    text = piece.decode("utf-8").strip()
                    if text:
                        yield self.line_count, text
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
                text = emit.decode("utf-8").strip()
                if text:
                    yield self.line_count, text
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
            chunk = handle.read(_BLOCK)
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


def _align_buffer(buf, offset: int, size: int) -> int:
    """First-byte ownership on a whole-file buffer: the in-memory twin of
    :meth:`SplitLineReader._align_to_line_start`, same rules."""
    if offset == 0:
        return 0
    before = buf[offset - 1:offset]
    if before == b"\n":
        return offset
    if before == b"\r":
        if buf[offset:offset + 1] == b"\n":
            # The \n at `offset` is the tail of a \r\n terminator
            # consumed by the previous split; the line starts after.
            return offset + 1
        return offset  # lone \r: a complete terminator
    # Mid-line: the rest of this line belongs to the previous split.
    nl = buf.find(b"\n", offset)
    cr = buf.find(b"\r", offset)
    if cr != -1 and (nl == -1 or cr < nl):
        return cr + 2 if buf[cr + 1:cr + 2] == b"\n" else cr + 1
    if nl != -1:
        return nl + 1
    return size  # EOF: nothing left for this split


def split_content_span(buf, split: FileSplit) -> tuple[int, int]:
    """The byte span ``[start, stop)`` a split's summary depends on.

    A split summary is a pure function of more than the planned range
    ``[offset, offset + length)``: the byte at ``offset - 1`` decides the
    first-byte-ownership alignment, and a final line running past the
    split end drags in the overshoot up to and including its terminator.
    This returns exactly that closure — the same consumption
    :class:`SplitLineReader` performs — so ``sha256(buf[start:stop])`` is
    a sound content-address for the summary: any byte outside the span
    can change without affecting the split's output, and any byte inside
    it that changes changes the digest.

    ``buf`` is the whole file as any sliceable byte buffer (``mmap``,
    ``bytes``); ``stop - start`` equals the reader's ``bytes_read`` plus
    the one-byte boundary probe (when ``offset > 0``).
    """
    size = len(buf)
    start = min(max(0, split.offset - 1), size)
    if split.length <= 0 or size == 0:
        return start, start
    end = min(split.end, size)
    if end <= 0:
        return start, start
    pos = _align_buffer(buf, split.offset, size)
    if pos >= end:
        # The whole range sits inside one line owned by the previous
        # split; only the alignment scan's bytes matter.
        return start, max(start, pos)
    last = buf[end - 1]
    if last == 0x0A or last == 0x0D:
        # Range ends on a terminator.  A trailing lone "\r" is complete:
        # the reader emits its line without looking at the byte past the
        # end (a following "\n" is consumed by the next split's
        # alignment), so the span stops at the planned end either way.
        return start, end
    # Final line runs past the split end: the overshoot up to and
    # including the first terminator at/after `end` is ours — the same
    # scan-forward rule as the mid-line alignment case.
    nl = buf.find(b"\n", end)
    cr = buf.find(b"\r", end)
    if cr != -1 and (nl == -1 or cr < nl):
        stop = cr + 2 if buf[cr + 1:cr + 2] == b"\n" else cr + 1
    elif nl != -1:
        stop = nl + 1
    else:
        stop = size
    return start, stop


#: Hash granularity of :func:`digest_splits`: one ``update`` call per this
#: many bytes, so a multi-gigabyte split never materialises as one slice.
_DIGEST_CHUNK = 1 << 22


def digest_splits(path: "str | Path", splits: list[FileSplit]) -> list[str]:
    """Content digests for a split plan: one sha-256 hex string per split.

    One pass over one memory map (seek/read fallback when mmap is
    unavailable), hashing each split's :func:`split_content_span` in
    chunks.  The digest is the content half of the cross-run summary
    cache's key (:mod:`repro.store.summarycache`): equal digests mean the
    split's bytes — boundary probe and overshoot included — are
    identical, so its cached summary replays verbatim.  Hashing runs at
    memory bandwidth, without any of the line-scanning or typing work a
    recompute would pay.
    """
    if not splits:
        return []
    with open(str(path), "rb") as handle:
        try:
            buf = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            buf = handle.read()
    try:
        view = memoryview(buf)
        try:
            digests = []
            for split in splits:
                start, stop = split_content_span(buf, split)
                digest = hashlib.sha256()
                for piece in range(start, stop, _DIGEST_CHUNK):
                    digest.update(view[piece:min(piece + _DIGEST_CHUNK, stop)])
                digests.append(digest.hexdigest())
            return digests
        finally:
            view.release()
    finally:
        if isinstance(buf, mmap.mmap):
            buf.close()


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
    records: Iterable[BadRecord], base: int, source: str
) -> tuple[BadRecord, ...]:
    """Anchor split-local quarantine entries to ``source``'s lines.

    ``base`` is the number of physical lines owned by all earlier splits
    (the prefix sum of their ``line_count`` values), and ``source`` the
    file the run reads: a summary replayed from the cache may have been
    mapped from a byte-identical split of another file.  The structured
    ``path`` and ``line_number`` and the human-readable location suffix
    inside the error message are all rewritten, so a sidecar produced
    from byte splits or cache hits is byte-identical to one produced by
    a line-oriented run.  The error text's location suffix is the one
    ``JsonSyntaxError`` itself appends, matched from the end of the
    message so raw record text quoted inside the message can never be
    confused for it.
    """
    rebased = []
    for bad in records:
        absolute = bad.line_number + base
        error = bad.error
        match = _LOCATION_SUFFIX.match(error)
        if match is not None and int(match.group("line")) == bad.line_number:
            error = (
                f"{match.group('head')} ({source}, "
                f"line {absolute}, column {match.group('column')})"
            )
        rebased.append(BadRecord(source, absolute, error, bad.text))
    return tuple(rebased)
