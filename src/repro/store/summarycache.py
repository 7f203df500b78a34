"""Cross-run, content-addressed partition-summary cache.

The map phase is a pure function: a split's :class:`PartitionSummary`
depends on nothing but the split's bytes (boundary probe and overshoot
included — :func:`repro.jsonio.splits.split_content_span`) and the
kernel configuration that typed them.  That purity is the whole load-
bearing wall here: key a persistent store by ``(content sha-256,
config signature)`` and a re-run over mostly-unchanged data can *replay*
the unchanged splits' summaries instead of re-typing their bytes.  The
driver probes the plan before dispatch, decodes hits straight into its
adoption accumulator (byte-identical schema and quarantine line
numbers), and ships only changed or new splits to workers — an
append-mostly re-run does map work proportional to the delta, not the
file.

Entries store the wire-format payload of :func:`encode_summary` with
*split-local* quarantine line numbers, exactly as a worker would have
returned it; the pipeline's rebase then treats hits and misses alike,
shifting line numbers by a prefix sum and naming the run's own source
in every quarantine entry (a hit may have been stored by a run over a
byte-identical split of another file).  The config signature folds in
everything that changes a summary for fixed bytes: permissive mode,
statistics mode, and the wire-format version itself.  Only byte splits
of regular files are cached: a pipe has no byte range to key.

Layout (content-addressed store, git-object style)::

    <root>/CACHE                      # marker + human-readable header
    <root>/objects/<d[:2]>/<d[2:]>-<signature>.sum

Durability and concurrency reuse the checkpoint hardening from PR 7:
entries are written atomically and durably (temp file + fsync + rename +
directory fsync), every entry is framed with a magic string, length and
payload checksum so torn or bit-flipped entries classify as *misses*
(recompute, never wrong results), and eviction runs under the same
advisory :class:`~repro.store.locks.FileLock` used by checkpoints.  The
cache is strictly best-effort: a held lock, a full disk or a corrupt
entry degrade to an uncached run, never to an error or a wrong schema.
The pipeline decodes every hit as it probes it, so an intact frame
whose payload does not decode (another wire version, say) is a miss
too, and :meth:`SummaryCache.discard` drops it for the recomputed
summary to replace.

Eviction is size-bounded LRU: hits bump an entry's mtime, and when the
store grows past ``max_bytes`` the oldest entries are removed until it
fits again.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

from repro.store.checkpoint import _fsync_dir, _write_file
from repro.store.locks import FileLock, LockHeldError, is_stale_lock

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CACHE_MARKER_NAME",
    "DEFAULT_MAX_BYTES",
    "SummaryCache",
    "config_signature",
    "fsck_summary_cache",
]

#: Bumped whenever the entry framing or key derivation changes; folded
#: into :func:`config_signature` so old entries become unreachable
#: (plain misses) instead of misdecoding.
CACHE_FORMAT_VERSION = 1

#: Marker file distinguishing a summary-cache directory from a
#: checkpoint directory (both are directories; ``repro fsck`` and
#: humans dispatch on this).
CACHE_MARKER_NAME = "CACHE"

#: Default size bound: generous for summaries (a 100k-record run's
#: entries total well under a megabyte) while guaranteeing a shared
#: cache directory cannot grow without bound.
DEFAULT_MAX_BYTES = 1 << 30

#: Entry framing: magic + 8-byte big-endian payload length + 32-byte
#: payload sha-256 + payload.  Anything that does not parse — short
#: file, wrong magic, length mismatch, checksum mismatch — is a miss.
_MAGIC = b"RSUMCACHE1\n"
_LEN_BYTES = 8
_CHECKSUM_BYTES = 32
_HEADER_BYTES = len(_MAGIC) + _LEN_BYTES + _CHECKSUM_BYTES

_ENTRY_SUFFIX = ".sum"


def config_signature(*, permissive: bool, stats: str = "off") -> str:
    """Kernel-config half of a cache key (16 hex chars).

    Two runs share cache entries only when every input to the map phase
    other than the bytes themselves is identical: strict-vs-permissive
    error handling (changes both quarantine contents and which records
    count), the statistics mode (an enriched summary carries a stats
    bundle a plain one lacks), and the wire format plus cache framing
    versions (an encoding change must not replay stale bytes).  Timing
    collection is not an input: a replayed summary drops its timings.
    """
    from repro.inference.kernel import WIRE_FORMAT_VERSION

    config = {
        "cache_format": CACHE_FORMAT_VERSION,
        "wire_format": WIRE_FORMAT_VERSION,
        "permissive": bool(permissive),
        "stats": stats,
    }
    blob = json.dumps(config, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _frame(payload: bytes) -> bytes:
    return b"".join((
        _MAGIC,
        len(payload).to_bytes(_LEN_BYTES, "big"),
        hashlib.sha256(payload).digest(),
        payload,
    ))


def _unframe(blob: bytes) -> "bytes | None":
    """Payload of a framed entry, or ``None`` for anything malformed."""
    if len(blob) < _HEADER_BYTES or not blob.startswith(_MAGIC):
        return None
    cursor = len(_MAGIC)
    length = int.from_bytes(blob[cursor:cursor + _LEN_BYTES], "big")
    cursor += _LEN_BYTES
    checksum = blob[cursor:cursor + _CHECKSUM_BYTES]
    payload = blob[cursor + _CHECKSUM_BYTES:]
    if len(payload) != length:
        return None
    if hashlib.sha256(payload).digest() != checksum:
        return None
    return payload


class SummaryCache:
    """Persistent ``(content digest, config signature) -> payload`` store.

    ``get``/``put`` never raise on storage trouble: unreadable, missing
    or corrupt entries are misses, and a failed store (lock held, disk
    error) is silently skipped — correctness always falls back to
    recomputing the split.  Only genuinely broken *usage* (a relative
    ``max_bytes < 1``) raises.
    """

    def __init__(
        self,
        root: str | Path,
        max_bytes: int = DEFAULT_MAX_BYTES,
        lock_timeout_s: float = 2.0,
    ) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.lock_timeout_s = lock_timeout_s

    # -- key layout -----------------------------------------------------

    def entry_path(self, digest: str, signature: str) -> Path:
        """Where ``(digest, signature)`` lives: two-level fan-out like
        git's object store, so one directory never holds every entry."""
        return (
            self.root / "objects" / digest[:2]
            / f"{digest[2:]}-{signature}{_ENTRY_SUFFIX}"
        )

    # -- read side ------------------------------------------------------

    def get(self, digest: str, signature: str) -> "bytes | None":
        """The stored payload, or ``None`` (miss) for absent/corrupt."""
        path = self.entry_path(digest, signature)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        payload = _unframe(blob)
        if payload is None:
            # Corrupt entry: drop it so it stops costing reads; the
            # caller recomputes either way.
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        try:
            # LRU touch: hits keep an entry young.
            os.utime(path)
        except OSError:
            pass
        return payload

    def discard(self, digest: str, signature: str) -> None:
        """Drop an entry whose payload turned out unusable (it failed to
        decode), so the next :meth:`put` stores a fresh one."""
        try:
            os.unlink(self.entry_path(digest, signature))
        except OSError:
            pass

    # -- write side -----------------------------------------------------

    def put(self, digest: str, signature: str, payload: bytes) -> bool:
        """Store one entry; returns ``True`` if it was newly written.

        Atomic and durable via the checkpoint writer (temp + fsync +
        rename + directory fsync); an existing entry is only touched.
        Any storage failure is swallowed — the cache is an accelerator,
        never a correctness dependency.
        """
        path = self.entry_path(digest, signature)
        try:
            if path.is_file():
                os.utime(path)
                return False
            self._ensure_layout()
            path.parent.mkdir(parents=True, exist_ok=True)
            _write_file(path.parent, path.name, _frame(payload))
        except OSError:
            return False
        self._evict_if_needed()
        return True

    def _ensure_layout(self) -> None:
        """Create the root, marker and objects directory on first use."""
        marker = self.root / CACHE_MARKER_NAME
        if marker.is_file():
            return
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "objects").mkdir(exist_ok=True)
        header = json.dumps(
            {"kind": "summary-cache", "format": CACHE_FORMAT_VERSION},
            sort_keys=True,
        ).encode("utf-8") + b"\n"
        _write_file(self.root, CACHE_MARKER_NAME, header)

    # -- eviction -------------------------------------------------------

    def _entries(self) -> "list[tuple[float, int, Path]]":
        """Every entry as ``(mtime, size, path)``, oldest first."""
        rows = []
        objects = self.root / "objects"
        if not objects.is_dir():
            return rows
        for path in objects.glob(f"*/*{_ENTRY_SUFFIX}"):
            try:
                stat = path.stat()
            except OSError:
                continue
            rows.append((stat.st_mtime, stat.st_size, path))
        rows.sort()
        return rows

    def size_bytes(self) -> int:
        """Total bytes of stored entries (framing included)."""
        return sum(size for _, size, _ in self._entries())

    def entry_count(self) -> int:
        """Number of stored entries."""
        return len(self._entries())

    def _evict_if_needed(self) -> None:
        """Remove oldest entries until the store fits ``max_bytes``.

        Runs under the store's advisory lock so two concurrent writers
        do not race the scan; if the lock is held, eviction is deferred
        to whoever holds it (or the next writer).
        """
        rows = self._entries()
        total = sum(size for _, size, _ in rows)
        if total <= self.max_bytes:
            return
        try:
            with FileLock(self.root, timeout_s=self.lock_timeout_s):
                for _, size, path in rows:
                    if total <= self.max_bytes:
                        break
                    try:
                        os.unlink(path)
                    except OSError:
                        continue
                    total -= size
                _fsync_dir(self.root)
        except (LockHeldError, OSError):
            return


def fsck_summary_cache(directory: str | Path) -> dict[str, Any]:
    """Classify the health of a summary-cache directory (``repro fsck``).

    Pure inspection, same report shape as the checkpoint and journal
    fscks: ``status`` is ``ok`` / ``not-found`` / ``corrupt`` (one or
    more entries failed their frame checksum — they will be treated as
    misses and dropped on next probe), ``orphans`` lists temp-file
    debris from crashed writers, and ``lock`` reports the advisory lock
    state (``none`` / ``held`` / ``stale``).
    """
    target = Path(directory)
    report: dict[str, Any] = {
        "path": str(target),
        "kind": "summary-cache",
        "status": "ok",
        "detail": "",
        "orphans": [],
        "lock": "none",
    }
    marker = target / CACHE_MARKER_NAME
    if not target.is_dir() or not marker.is_file():
        report["status"] = "not-found"
        report["detail"] = f"no summary cache at {target}"
        return report
    entries = 0
    total = 0
    corrupt: list[str] = []
    orphans: list[str] = []
    objects = target / "objects"
    if objects.is_dir():
        for path in sorted(objects.glob("*/*")):
            if path.name.endswith(".tmp"):
                orphans.append(str(path))
                continue
            if not path.name.endswith(_ENTRY_SUFFIX):
                continue
            try:
                blob = path.read_bytes()
            except OSError:
                corrupt.append(str(path))
                continue
            if _unframe(blob) is None:
                corrupt.append(str(path))
                continue
            entries += 1
            total += len(blob)
    report.update(entries=entries, bytes=total, corrupt_entries=corrupt)
    if corrupt:
        report["status"] = "corrupt"
        report["detail"] = (
            f"{len(corrupt)} corrupt entr"
            f"{'y' if len(corrupt) == 1 else 'ies'} "
            f"(treated as misses), {entries} intact"
        )
    else:
        report["detail"] = f"{entries} entries, {total} bytes"
    report["orphans"] = orphans
    stale = is_stale_lock(target)
    if stale is not None:
        report["lock"] = "stale" if stale else "held"
    return report
