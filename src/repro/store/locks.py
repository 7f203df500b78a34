"""Advisory file locks for store writers (single-host mutual exclusion).

A checkpoint save is an atomic directory swap and a journal append is an
fsync'd frame write — each is individually crash-safe, but two *writers*
racing on the same path (an update job and a ``merge`` landing on the
same output directory, say) could still interleave their swaps and
silently drop one side's work.  The store therefore takes an advisory
lock around every mutation:

* The lock is a sibling file ``<target>.lock`` created with
  ``O_CREAT | O_EXCL`` — the classic portable atomic-creation lock.  It
  never lives *inside* a checkpoint directory, so the checkpoint's
  on-disk format (exactly three files) is unchanged.
* The file body records ``pid`` and hostname.  A lock whose pid is no
  longer alive on this host is *stale* (its owner crashed before
  releasing) and is broken automatically; this is what keeps a crash
  from wedging every future writer, without any daemon or TTL.
* Locks are advisory: readers (``load_checkpoint``, resume replay) take
  no lock — the atomic swap already guarantees they never observe a
  mixed-version directory.  Only writers and ``merge`` inputs consult
  them.

``flock``/``fcntl`` are deliberately not used: their locks vanish when
any fd to the file closes and they do not survive across the process
pool's spawned workers; the exclusive-create protocol is the same one
``git`` uses for ``index.lock`` and behaves identically on every
platform this repo targets.
"""

from __future__ import annotations

import os
import socket
import time
from pathlib import Path

__all__ = [
    "FileLock",
    "LockHeldError",
    "lock_path_for",
    "read_lock_owner",
]

#: Suffix appended to the protected path to form the lock file name.
LOCK_SUFFIX = ".lock"


class LockHeldError(Exception):
    """Another live process holds the advisory lock on this path."""

    def __init__(self, target: str, owner_pid: int | None = None) -> None:
        detail = f" (held by pid {owner_pid})" if owner_pid else ""
        super().__init__(
            f"store lock busy: {target!r} is being written by another "
            f"process{detail}; retry when it finishes, or delete "
            f"{lock_path_for(target)!r} if its owner is gone"
        )
        self.target = str(target)
        self.owner_pid = owner_pid

    def __reduce__(self):
        return (self.__class__, (self.target, self.owner_pid))


def lock_path_for(target: str | os.PathLike[str]) -> str:
    """The lock file protecting ``target`` (a sibling, never inside it)."""
    return os.fspath(target).rstrip("/\\") + LOCK_SUFFIX


def read_lock_owner(target: str | os.PathLike[str]) -> int | None:
    """The pid recorded in ``target``'s lock file, or None if unlocked.

    Returns ``-1`` for a lock file that exists but is unreadable or
    malformed (treated as held: refusing is safer than clobbering).
    """
    try:
        body = Path(lock_path_for(target)).read_text("utf-8", "replace")
    except (FileNotFoundError, NotADirectoryError):
        return None
    except OSError:
        return -1
    try:
        return int(body.split()[0])
    except (IndexError, ValueError):
        return -1


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return True  # malformed owner: assume alive, refuse to break
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by another uid
        return True
    except OSError:  # pragma: no cover
        return True
    return True


def is_stale_lock(target: str | os.PathLike[str]) -> bool | None:
    """None if unlocked; True if the lock's owner pid is dead locally."""
    owner = read_lock_owner(target)
    if owner is None:
        return None
    return not _pid_alive(owner)


class FileLock:
    """Context manager acquiring the advisory lock on ``target``.

    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as d:
    ...     with FileLock(os.path.join(d, "ckpt")):
    ...         pass  # exclusive writer section
    """

    def __init__(
        self,
        target: str | os.PathLike[str],
        timeout_s: float = 0.0,
        poll_s: float = 0.05,
    ) -> None:
        self.target = os.fspath(target)
        self.lock_path = lock_path_for(target)
        self.timeout_s = timeout_s
        self.poll_s = poll_s
        self._held = False

    # ------------------------------------------------------------------

    def _try_acquire(self) -> bool:
        flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
        try:
            try:
                fd = os.open(self.lock_path, flags, 0o644)
            except FileNotFoundError:
                # The parent directory is missing: create it and retry
                # once.  A second ENOENT (a file system that refuses to
                # create it) propagates.
                os.makedirs(
                    os.path.dirname(self.lock_path) or ".", exist_ok=True
                )
                fd = os.open(self.lock_path, flags, 0o644)
        except FileExistsError:
            return False
        try:
            os.write(
                fd,
                f"{os.getpid()} {socket.gethostname()}\n".encode(
                    "utf-8", "replace"
                ),
            )
            os.fsync(fd)
        finally:
            os.close(fd)
        return True

    def _break_if_stale(self) -> bool:
        owner = read_lock_owner(self.target)
        if owner is None:
            return True  # vanished: retry the create
        if _pid_alive(owner):
            return False
        # Dead owner: remove its lock.  Two breakers may race here; both
        # unlinks target the same dead lock and the O_EXCL create after
        # decides a single winner, so the race is benign.
        try:
            os.unlink(self.lock_path)
        except FileNotFoundError:
            pass
        return True

    def acquire(self) -> "FileLock":
        deadline = time.monotonic() + self.timeout_s
        while True:
            if self._try_acquire():
                self._held = True
                return self
            if self._break_if_stale():
                continue
            if time.monotonic() >= deadline:
                raise LockHeldError(
                    self.target, read_lock_owner(self.target)
                )
            time.sleep(self.poll_s)

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            os.unlink(self.lock_path)
        except FileNotFoundError:  # pragma: no cover - broken as stale
            pass

    # ------------------------------------------------------------------

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()
