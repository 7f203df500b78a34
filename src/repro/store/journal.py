"""Write-ahead run journal: durable progress for a single inference run.

The fusion algebra makes every completed partition summary a permanent,
order-free unit of progress (Theorems 5.4-5.5): once a split's summary
exists, no crash can invalidate it — it merges into the final schema
whenever the run finishes.  The journal turns that mathematical fact
into an operational one.  A journaled run writes, before doing any work,
a **header frame** describing exactly what it planned (source file
fingerprint, split mode, statistics mode, the task plan's digest), then
appends one **task frame** per completed task — the task's encoded
partition summary in the compact flat-table wire format
(:func:`repro.inference.kernel.encode_summary`) — and finally a
**commit frame** with the finished schema's digest.  ``infer --resume``
replays the task frames through
:meth:`~repro.inference.kernel.PartitionAccumulator.add_summary` and
re-executes only the missing task indices; the algebra guarantees the
result is byte-identical to the uninterrupted run.

Frame format (little-endian)::

    magic   b"RJRNL1\\n"                      (once, at offset 0)
    frame   kind:u8  length:u32  crc32:u32   payload[length]

``kind`` is ``H`` (header, JSON), ``T`` (task: ``index:u32`` + summary
wire bytes) or ``C`` (commit, JSON).  Every append is
write → flush → ``fsync`` — a frame either is fully durable or will
fail its CRC.  On read, a frame that runs past EOF or fails its CRC *at
the tail* is a torn append from the crash itself and is dropped
(:class:`JournalState.torn`); a CRC failure with valid bytes after it
is real mid-file damage and raises :class:`JournalCorruptError` — the
journal never silently skips interior frames.

A writer holds the store's advisory :class:`~repro.store.locks.FileLock`
on the journal path for the whole run, so two runs cannot interleave
appends into one journal; a crashed writer's lock is stale and is broken
automatically by the next one.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.engine.faults import CRASH_EXIT_CODE, crash_due, crash_point
from repro.store.locks import FileLock, is_stale_lock

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "JOURNAL_MAGIC",
    "JournalCorruptError",
    "JournalError",
    "JournalMismatchError",
    "JournalNotFoundError",
    "JournalState",
    "RunJournal",
    "fsck_journal",
    "plan_signature",
    "read_journal",
]

#: File magic: identifies a run journal and pins its container version.
JOURNAL_MAGIC = b"RJRNL1\n"

#: Bumped on any incompatible frame-layout change.
JOURNAL_FORMAT_VERSION = 1

_FRAME_HEADER = struct.Struct("<BII")  # kind, payload length, payload crc32
_TASK_PREFIX = struct.Struct("<I")  # task index, before the wire payload

KIND_HEADER = ord("H")
KIND_TASK = ord("T")
KIND_COMMIT = ord("C")

#: Refuse to trust absurd frame lengths (a torn length field can claim
#: gigabytes); summaries are compact, headers are small.
_MAX_FRAME_PAYLOAD = 1 << 31


class JournalError(Exception):
    """Base class for run-journal failures (pickles via ``(class, args)``)."""

    def __reduce__(self):
        return (self.__class__, self.args)


class JournalNotFoundError(JournalError):
    """The journal file does not exist."""


class JournalCorruptError(JournalError):
    """The journal is damaged beyond the tolerated torn tail.

    Carries ``path``, ``detail`` and the byte ``offset`` of the bad
    frame structurally, for fsck reporting.
    """

    def __init__(self, path: str, detail: str, offset: int = -1) -> None:
        at = f" at byte {offset}" if offset >= 0 else ""
        super().__init__(f"corrupt run journal {path!r}{at}: {detail}")
        self.path = str(path)
        self.detail = detail
        self.offset = offset

    def __reduce__(self):
        return (self.__class__, (self.path, self.detail, self.offset))


class JournalMismatchError(JournalError):
    """The journal describes a different run than the one resuming.

    Raised when ``--resume`` finds a journal whose source fingerprint or
    task plan digest disagrees with the current invocation — replaying
    summaries of *other* data would silently produce a wrong schema.
    """


def _write_bytes(handle, data: bytes) -> None:
    """Single seam every journal byte passes through.

    Module-level so fault-injection tests can monkeypatch it to raise
    ``ENOSPC``/``EIO`` mid-append and assert the reader still sees only
    whole frames afterwards.
    """
    handle.write(data)


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _frame(kind: int, payload: bytes) -> bytes:
    return _FRAME_HEADER.pack(
        kind, len(payload), zlib.crc32(payload)
    ) + payload


def plan_signature(plan: Any) -> str:
    """Deterministic digest of a task plan (any JSON-serialisable value).

    The pipeline feeds it the full list of task descriptors — split
    offsets and lengths (or line-partition bounds), batching, modes — so
    two invocations agree on the signature iff they would dispatch the
    identical task list, which is exactly the condition under which
    journal task frames are replayable.
    """
    blob = json.dumps(plan, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# reading


@dataclass
class JournalState:
    """Everything a resume needs to know from an existing journal."""

    path: str
    header: dict[str, Any]
    #: task index → encoded summary payload, first write wins.
    completed: dict[int, bytes] = field(default_factory=dict)
    #: commit-frame payload, when the run finished.
    commit: dict[str, Any] | None = None
    #: a torn tail was dropped (the crash interrupted an append).
    torn: bool = False
    #: bytes dropped with the torn tail.
    torn_bytes: int = 0
    #: offset just past the last valid frame (where appends resume).
    end_offset: int = 0

    @property
    def committed(self) -> bool:
        return self.commit is not None

    def remaining(self, task_count: int | None = None) -> list[int]:
        """Task indices the journal has no summary for, in order."""
        total = (
            self.header.get("task_count", 0)
            if task_count is None else task_count
        )
        return [i for i in range(total) if i not in self.completed]


def _iter_frames(
    data: bytes, path: str
) -> Iterator[tuple[int, int, bytes]]:
    """Yield ``(offset, kind, payload)`` for every valid frame.

    Implements the torn-tail rule: an incomplete or CRC-bad frame that
    reaches EOF terminates iteration silently (the caller learns about
    it through :func:`read_journal`'s state flags); the same damage with
    live bytes *after* it is an error.
    """
    pos = len(JOURNAL_MAGIC)
    size = len(data)
    while pos < size:
        if pos + _FRAME_HEADER.size > size:
            return  # torn: header itself is incomplete
        kind, length, crc = _FRAME_HEADER.unpack_from(data, pos)
        body_start = pos + _FRAME_HEADER.size
        if length > _MAX_FRAME_PAYLOAD or body_start + length > size:
            return  # torn: payload runs past EOF (or absurd length)
        payload = data[body_start:body_start + length]
        if zlib.crc32(payload) != crc:
            if body_start + length == size:
                return  # torn: half-written final payload
            raise JournalCorruptError(
                path,
                f"frame CRC mismatch with {size - body_start - length} "
                f"valid bytes after it (mid-file damage, not a torn tail)",
                offset=pos,
            )
        yield pos, kind, payload
        pos = body_start + length


def read_journal(path: str | Path) -> JournalState:
    """Parse a journal, tolerating a torn tail, rejecting interior damage.

    Raises :class:`JournalNotFoundError` when the file is missing and
    :class:`JournalCorruptError` on bad magic, a damaged header frame,
    or mid-file frame corruption.
    """
    p = Path(path)
    try:
        data = p.read_bytes()
    except FileNotFoundError:
        raise JournalNotFoundError(
            f"no run journal at {str(p)!r}"
        ) from None
    except IsADirectoryError:
        raise JournalNotFoundError(
            f"no run journal at {str(p)!r}: is a directory"
        ) from None
    if not data.startswith(JOURNAL_MAGIC):
        raise JournalCorruptError(
            str(p), "bad magic: not a run journal", offset=0
        )

    header: dict[str, Any] | None = None
    state = JournalState(path=str(p), header={})
    end = len(JOURNAL_MAGIC)
    for offset, kind, payload in _iter_frames(data, str(p)):
        if header is None:
            if kind != KIND_HEADER:
                raise JournalCorruptError(
                    str(p), "first frame is not a header", offset=offset
                )
            try:
                header = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise JournalCorruptError(
                    str(p), f"unreadable header frame: {exc}", offset=offset
                ) from exc
            if header.get("journal_format") != JOURNAL_FORMAT_VERSION:
                raise JournalCorruptError(
                    str(p),
                    f"journal format "
                    f"{header.get('journal_format')!r}; this build reads "
                    f"version {JOURNAL_FORMAT_VERSION}",
                    offset=offset,
                )
            state.header = header
        elif kind == KIND_TASK:
            if len(payload) < _TASK_PREFIX.size:
                raise JournalCorruptError(
                    str(p), "task frame shorter than its index prefix",
                    offset=offset,
                )
            (index,) = _TASK_PREFIX.unpack_from(payload)
            state.completed.setdefault(
                index, payload[_TASK_PREFIX.size:]
            )
        elif kind == KIND_COMMIT:
            try:
                state.commit = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise JournalCorruptError(
                    str(p), f"unreadable commit frame: {exc}", offset=offset
                ) from exc
        else:
            raise JournalCorruptError(
                str(p), f"unknown frame kind {kind!r}", offset=offset
            )
        end = offset + _FRAME_HEADER.size + len(payload)
    if header is None:
        raise JournalCorruptError(
            str(p),
            "no complete header frame (the run died before its plan was "
            "durable); delete the journal and rerun without --resume",
            offset=len(JOURNAL_MAGIC),
        )
    state.end_offset = end
    state.torn = end < len(data)
    state.torn_bytes = len(data) - end
    return state


# ----------------------------------------------------------------------
# writing


class RunJournal:
    """Appender for one run's journal (create, or reopen to resume).

    All appends are fsync'd before returning: when
    :meth:`append_task` comes back, that task's summary will survive
    any subsequent crash.  Crash points (``journal.create.post``,
    ``journal.append.torn``, ``journal.append.post``,
    ``journal.commit.pre``, ``journal.commit.post``) let the subprocess
    harness kill the run at every durability boundary.
    """

    def __init__(self, path: str | Path, handle, lock: FileLock) -> None:
        self.path = str(path)
        self._handle = handle
        self._lock = lock
        self.tasks_appended = 0
        self.bytes_appended = 0

    # -- constructors ---------------------------------------------------

    @classmethod
    def create(cls, path: str | Path, header: dict[str, Any]) -> "RunJournal":
        """Start a fresh journal: magic + header frame, durably.

        Refuses to overwrite an existing journal file (that is what
        resume is for); a stale leftover must be deleted explicitly.
        """
        p = Path(path)
        if p.parent and not p.parent.is_dir():
            p.parent.mkdir(parents=True, exist_ok=True)
        lock = FileLock(p).acquire()
        try:
            if p.exists():
                raise JournalError(
                    f"journal {str(p)!r} already exists; pass --resume to "
                    f"continue it or delete it to start over"
                )
            header = dict(header)
            header.setdefault("journal_format", JOURNAL_FORMAT_VERSION)
            payload = json.dumps(
                header, sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            handle = open(p, "xb")
            try:
                _write_bytes(handle, JOURNAL_MAGIC)
                _write_bytes(handle, _frame(KIND_HEADER, payload))
                handle.flush()
                os.fsync(handle.fileno())
            except BaseException:
                handle.close()
                try:
                    os.unlink(p)
                except OSError:
                    pass
                raise
            _fsync_dir(p.parent if str(p.parent) else Path("."))
        except BaseException:
            lock.release()
            raise
        crash_point("journal.create.post")
        return cls(p, handle, lock)

    @classmethod
    def open_resume(
        cls, path: str | Path
    ) -> tuple["RunJournal", JournalState]:
        """Reopen an existing journal for appending, dropping a torn tail.

        Returns the journal (positioned after the last valid frame, the
        torn bytes truncated away and the truncation fsync'd) together
        with the parsed :class:`JournalState`.
        """
        p = Path(path)
        lock = FileLock(p).acquire()
        try:
            state = read_journal(p)
            handle = open(p, "r+b")
            try:
                if state.torn:
                    handle.truncate(state.end_offset)
                    handle.flush()
                    os.fsync(handle.fileno())
                handle.seek(0, os.SEEK_END)
            except BaseException:
                handle.close()
                raise
        except BaseException:
            lock.release()
            raise
        return cls(p, handle, lock), state

    # -- appends --------------------------------------------------------

    def _append(self, kind: int, payload: bytes, torn_point: str) -> None:
        if self._handle is None:
            raise JournalError(f"journal {self.path!r} is closed")
        frame = _frame(kind, payload)
        if crash_due(torn_point):
            # Simulate the crash landing mid-write: half a frame reaches
            # the disk, then the process dies.  The reader must shrug
            # this off as a torn tail.
            self._handle.write(frame[:max(1, len(frame) // 2)])
            self._handle.flush()
            os.fsync(self._handle.fileno())
            os._exit(CRASH_EXIT_CODE)
        _write_bytes(self._handle, frame)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.bytes_appended += len(frame)

    def append_task(self, index: int, summary_wire: bytes) -> None:
        """Durably record task ``index``'s encoded partition summary."""
        self._append(
            KIND_TASK,
            _TASK_PREFIX.pack(index) + summary_wire,
            torn_point="journal.append.torn",
        )
        self.tasks_appended += 1
        crash_point("journal.append.post")

    def append_commit(self, info: dict[str, Any]) -> None:
        """Record run completion (typically the final schema digest)."""
        crash_point("journal.commit.pre")
        payload = json.dumps(
            info, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        self._append(KIND_COMMIT, payload, torn_point="journal.commit.torn")
        crash_point("journal.commit.post")

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None
                self._lock.release()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def fsck_journal(path: str | Path) -> dict[str, Any]:
    """Classify the health of a run journal (``repro fsck``).

    Pure inspection.  ``status`` is ``ok`` / ``not-found`` /
    ``corrupt``; an ``ok`` journal additionally reports whether it is
    committed, how many of its planned tasks have durable summaries,
    whether a torn tail would be dropped on resume, and the advisory
    lock state.
    """
    p = Path(path)
    report: dict[str, Any] = {
        "path": str(p),
        "kind": "journal",
        "status": "ok",
        "detail": "",
        "lock": "none",
    }
    try:
        state = read_journal(p)
    except JournalNotFoundError as exc:
        report["status"] = "not-found"
        report["detail"] = str(exc)
    except JournalCorruptError as exc:
        report["status"] = "corrupt"
        report["detail"] = exc.detail
        report["offset"] = exc.offset
    else:
        task_count = state.header.get("task_count")
        report.update(
            committed=state.committed,
            tasks_recorded=len(state.completed),
            task_count=task_count,
            torn=state.torn,
            torn_bytes=state.torn_bytes,
        )
        done = len(state.completed)
        total = task_count if task_count is not None else "?"
        bits = [f"{done}/{total} task summaries durable"]
        if state.committed:
            digest = (state.commit or {}).get("schema_sha256", "")
            bits.append(f"committed schema {digest[:12]}")
        if state.torn:
            bits.append(
                f"torn tail ({state.torn_bytes} bytes, dropped on resume)"
            )
        report["detail"] = ", ".join(bits)
    stale = is_stale_lock(p)
    if stale is not None:
        report["lock"] = "stale" if stale else "held"
    return report
