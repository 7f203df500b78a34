"""Write-ahead run journal: durable progress for a single inference run.

The fusion algebra makes every completed partition summary a permanent,
order-free unit of progress (Theorems 5.4-5.5): once a split's summary
exists, no crash can invalidate it — it merges into the final schema
whenever the run finishes.  The journal turns that mathematical fact
into an operational one.  A journaled run writes a **header frame**
naming the journal format, then appends one **task frame** per
completed task — the task's encoded partition summary in the compact
flat-table wire format (:func:`repro.inference.kernel.encode_summary`),
under the key the summary cache files it by (the split's content
digest and the run's config signature) — and finally a **commit
frame** with the finished schema's digest.  ``infer --resume`` plans
the run again and replays every split whose key has a task frame; the
algebra guarantees the result is byte-identical to the uninterrupted
run.

Frame format (little-endian)::

    magic   b"RJRNL1\\n"                      (once, at offset 0)
    frame   kind:u8  length:u32  crc32:u32   payload[length]

``kind`` is ``H`` (header, JSON), ``T`` (task: ``key length:u16``, the
UTF-8 key, then the summary wire bytes) or ``C`` (commit, JSON).  Every
append is write → flush → ``fsync`` — a frame either is fully durable
or will fail its CRC.  On read, a frame that runs past EOF or fails its
CRC *at the tail* is a torn append from the crash itself and is dropped
(:class:`JournalState.torn`); a CRC failure with valid bytes after it
is real mid-file damage and raises :class:`JournalCorruptError` — the
journal never silently skips interior frames.

A writer holds the store's advisory :class:`~repro.store.locks.FileLock`
on the journal path for the whole run, so two runs cannot interleave
appends into one journal; a crashed writer's lock is stale and is broken
automatically by the next one.
"""

from __future__ import annotations

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
    "read_journal",
]

#: File magic: identifies a run journal and pins its container version.
JOURNAL_MAGIC = b"RJRNL1\n"

#: Bumped on any incompatible frame-layout change.
JOURNAL_FORMAT_VERSION = 2

_FRAME_HEADER = struct.Struct("<BII")  # kind, payload length, payload crc32
_KEY_PREFIX = struct.Struct("<H")  # task key length, before the key

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
    """The journal was written in a format this build does not read.

    Its frames are intact, so it is not corrupt; delete it and rerun.
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


# ----------------------------------------------------------------------
# reading


@dataclass
class JournalState:
    """Everything a resume needs to know from an existing journal."""

    path: str
    header: dict[str, Any]
    #: task key → encoded summary payload, first write wins.
    completed: dict[str, bytes] = field(default_factory=dict)
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

    Raises :class:`JournalNotFoundError` when the file is missing,
    :class:`JournalMismatchError` when its header names another journal
    format, and :class:`JournalCorruptError` on bad magic, a damaged
    header frame, or mid-file frame corruption.
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
            found = header.get("journal_format")
            if found != JOURNAL_FORMAT_VERSION:
                raise JournalMismatchError(
                    f"run journal {str(p)!r} is in journal format "
                    f"{found!r}, and this build reads only format "
                    f"{JOURNAL_FORMAT_VERSION}; delete the journal and "
                    f"rerun"
                )
            state.header = header
        elif kind == KIND_TASK:
            key_end = _KEY_PREFIX.size
            if len(payload) >= key_end:
                key_end += _KEY_PREFIX.unpack_from(payload)[0]
            if key_end > len(payload):
                raise JournalCorruptError(
                    str(p), "task frame shorter than its key",
                    offset=offset,
                )
            key = payload[_KEY_PREFIX.size:key_end].decode("utf-8", "replace")
            state.completed.setdefault(key, payload[key_end:])
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
    def create(cls, path: str | Path) -> "RunJournal":
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
            payload = json.dumps(
                {"journal_format": JOURNAL_FORMAT_VERSION}
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

    def append_task(self, key: str, summary_wire: bytes) -> None:
        """Durably record the encoded partition summary filed under
        ``key``."""
        raw = key.encode("utf-8")
        self._append(
            KIND_TASK,
            _KEY_PREFIX.pack(len(raw)) + raw + summary_wire,
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
    ``version-mismatch`` / ``corrupt``; an ``ok`` journal additionally
    reports whether it is committed, how many task summaries it holds,
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
    except JournalMismatchError as exc:
        report["status"] = "version-mismatch"
        report["detail"] = str(exc)
    except JournalCorruptError as exc:
        report["status"] = "corrupt"
        report["detail"] = exc.detail
        report["offset"] = exc.offset
    else:
        report.update(
            committed=state.committed,
            tasks_recorded=len(state.completed),
            torn=state.torn,
            torn_bytes=state.torn_bytes,
        )
        bits = [f"{len(state.completed)} task summaries durable"]
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
