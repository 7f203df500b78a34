"""Persistent, mergeable schema checkpoints (incremental maintenance).

The paper proves ``Fuse`` commutative and associative (Theorems 5.4-5.5)
precisely so that schemas can be maintained *incrementally*: the fused
state of everything seen so far is itself just another operand.  This
module gives that state a durable, versioned on-disk form so inference
stops being a one-shot batch job:

* :func:`save_checkpoint` persists a
  :class:`~repro.inference.kernel.PartitionSummary` — schema, record
  count, distinct top-level types — into a directory, alongside a
  manifest with the format version, counts, schema and distinct-set
  digests and source fingerprints.
* :func:`load_checkpoint` reads it back, verifying version and digests,
  and yields a summary that is *exactly* a partition summary: it can be
  appended to a fresh run's partials and ride the existing merge path
  (:func:`~repro.inference.kernel.merge_summaries_full`), the driver's
  one fold.
* :func:`merge_checkpoints` unions any number of checkpoints — the
  cross-shard schema union: shards infer independently, checkpoint, and
  their checkpoints merge in any order or grouping to the same schema.

Format 2 (what a save writes)::

    MANIFEST.json      format_version, counts, schema_sha256,
                       distinct_sha256, sources (+ stats_mode/stats_sha256)
    schema.type        the fused schema in the concrete type syntax
    distinct.digests   the distinct set: sorted raw 32-byte type digests
    statistics.json    the statistics bundle (stats-enriched runs only)

Only the *size* of the distinct set is ever read, so it is stored as
type digests (:func:`~repro.inference.kernel.type_digest`): a load
reads and checks them without parsing a type, and distinct counts stay
exact under the one assumption that sha-256 has no collision.  The
schema is still text (:func:`repro.core.printer.print_type` /
:func:`repro.core.type_parser.parse_type`, which round-trip exactly).
Format 1 stored the distinct set as printed types, one per line, in
``distinct.types``; it still loads (its types are parsed and digested)
and re-saves as format 2.  Every file is written deterministically —
canonical (sorted) type form, sorted digests, manifest keys sorted, no
timestamps — so checkpointing the same data twice, on any backend,
produces byte-identical directories (a golden-file test pins this).

A checkpoint of a zero-record dataset is valid and round-trips the empty
type ``(empty)``: fusing it into anything is a no-op, exactly as the
algebra demands of the neutral element.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import stat
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.core.errors import TypeSyntaxError
from repro.core.printer import print_type
from repro.core.type_parser import parse_type
from repro.core.types import Type
from repro.engine.faults import crash_point
from repro.inference.kernel import (
    DIGEST_BYTES,
    PartitionSummary,
    digest_types,
    merge_summaries_full,
    pack_digests,
    unpack_digests,
)
from repro.inference.statistics import StatsBundle
from repro.store.locks import FileLock, LockHeldError, is_stale_lock

__all__ = [
    "FORMAT_VERSION",
    "Checkpoint",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointFormatError",
    "CheckpointManifest",
    "CheckpointNotFoundError",
    "SourceFingerprint",
    "build_manifest",
    "checkpoint_exists",
    "fingerprint_source",
    "fsck_checkpoint",
    "load_checkpoint",
    "load_manifest",
    "merge_checkpoints",
    "save_checkpoint",
]

#: On-disk format version a save writes; bumped on any incompatible
#: layout change.  Format 2 stores the distinct set as digests.
FORMAT_VERSION = 2

#: Format versions a load reads.
_READ_FORMAT_VERSIONS = (1, FORMAT_VERSION)

#: File names inside a checkpoint directory.  ``STATS_FILE`` exists only
#: in checkpoints saved from a stats-enriched run (``stats_mode`` other
#: than ``"off"``); a stats-off manifest carries no stats keys.
#: ``DISTINCT_FILE`` holds format 1's distinct set, ``DIGEST_FILE``
#: format 2's.
MANIFEST_FILE = "MANIFEST.json"
SCHEMA_FILE = "schema.type"
DISTINCT_FILE = "distinct.types"
DIGEST_FILE = "distinct.digests"
STATS_FILE = "statistics.json"

#: How much of a source file the fingerprint hashes (a prefix: cheap and
#: deterministic, and together with the size enough to notice the common
#: mutations — truncation, replacement, append-with-rewrite).
_FINGERPRINT_BYTES = 1 << 16


class CheckpointError(Exception):
    """Base class for checkpoint store failures.

    Every class in the hierarchy reduces to ``(class, args)`` so an
    instance pickles back to an equal one (a caller may load checkpoints
    in a process pool of its own) even where ``__init__`` takes other
    arguments than the message — the same discipline as
    :mod:`repro.jsonio.errors`.
    """

    def __reduce__(self):
        return (self.__class__, self.args)


class CheckpointNotFoundError(CheckpointError):
    """The named directory does not hold a checkpoint."""


class CheckpointFormatError(CheckpointError):
    """The checkpoint exists but cannot be trusted.

    Raised for unknown format versions; its subclass
    :class:`CheckpointCorruptError` covers damage (torn writes, bad
    digests, unparseable files).
    """


class CheckpointCorruptError(CheckpointFormatError):
    """The checkpoint's files are damaged or contradict each other.

    The torn/corrupt class: unreadable or unparseable files, schema
    digest mismatches, count mismatches — anything ``repro fsck``
    classifies as ``corrupt`` rather than a mere version skew.  Carries
    the offending ``directory`` and a ``detail`` string structurally so
    callers (fsck, merge) can report the shard without parsing messages.
    """

    def __init__(self, directory: str, detail: str) -> None:
        super().__init__(f"corrupt checkpoint at {directory!r}: {detail}")
        self.directory = str(directory)
        self.detail = detail

    def __reduce__(self):
        return (self.__class__, (self.directory, self.detail))


@dataclass(frozen=True)
class SourceFingerprint:
    """Identity of one input file that contributed to a checkpoint.

    ``sha256`` digests the first 64 KiB of the file by default — a cheap
    prefix hash, not a full-content hash — so fingerprinting stays O(1)
    however large the source.  Combined with ``size`` it detects the
    usual ways a source diverges from what was ingested: truncation,
    replacement, append-with-rewrite.  What the prefix hash *cannot* see
    is an in-place mutation beyond the first 64 KiB at unchanged size —
    and a pure tail append changes only ``size``, so the hash alone
    never notices it.  Callers that need content-exact identity (audit
    trails, the delta accounting around the cross-run summary cache)
    pass ``full_sha256=True`` to :func:`fingerprint_source` and pay one
    O(size) streaming read instead.
    """

    path: str
    size: int
    sha256: str

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form for the manifest JSON."""
        return {"path": self.path, "size": self.size, "sha256": self.sha256}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SourceFingerprint":
        """Rebuild from the manifest JSON dict."""
        try:
            return cls(
                path=str(data["path"]),
                size=int(data["size"]),
                sha256=str(data["sha256"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointFormatError(
                f"malformed source fingerprint entry: {data!r}"
            ) from exc


def fingerprint_source(
    path: str | Path, full_sha256: bool = False
) -> SourceFingerprint:
    """Fingerprint one source file (size + sha256).

    By default the digest covers only the first 64 KiB — O(1) whatever
    the file size, but blind to changes past the prefix (see
    :class:`SourceFingerprint` for the tradeoff).  ``full_sha256=True``
    streams the whole file through the hash: O(size), and the resulting
    fingerprint distinguishes *any* content change, tail appends
    included.

    A pipe or other non-regular file is never opened: reading it would
    consume the data the run reads (and opening a FIFO whose writer is
    gone blocks), so its fingerprint is size 0 and the empty digest.
    """
    p = Path(path)
    st = p.stat()
    digest = hashlib.sha256()
    if not stat.S_ISREG(st.st_mode):
        return SourceFingerprint(str(p), 0, digest.hexdigest())
    with open(p, "rb") as handle:
        if full_sha256:
            while True:
                chunk = handle.read(1 << 20)
                if not chunk:
                    break
                digest.update(chunk)
        else:
            digest.update(handle.read(_FINGERPRINT_BYTES))
    return SourceFingerprint(str(p), st.st_size, digest.hexdigest())


@dataclass(frozen=True)
class CheckpointManifest:
    """The checkpoint's metadata record (``MANIFEST.json``).

    ``skipped_count`` is informational: quarantined records themselves
    live in NDJSON sidecars (see ``infer_ndjson_file``), not in the
    checkpoint, so only their cumulative count survives an update chain.
    """

    format_version: int
    record_count: int
    distinct_type_count: int
    skipped_count: int
    schema_sha256: str
    sources: tuple[SourceFingerprint, ...] = ()
    #: Statistics enrichment (both ``None`` unless the checkpoint was
    #: saved from a stats-carrying summary): the bundle's mode and the
    #: digest of its canonical ``statistics.json`` bytes.
    stats_mode: str | None = None
    stats_sha256: str | None = None
    #: sha-256 of the ``distinct.digests`` bytes (format 2; ``None`` in
    #: a format-1 manifest).
    distinct_sha256: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form, ready for deterministic JSON dumping.

        The stats keys appear only when the checkpoint carries a bundle,
        and ``distinct_sha256`` only in format 2, so a format-1 manifest
        reads back to the same dict.
        """
        data = {
            "format_version": self.format_version,
            "record_count": self.record_count,
            "distinct_type_count": self.distinct_type_count,
            "skipped_count": self.skipped_count,
            "schema_sha256": self.schema_sha256,
            "sources": [s.to_dict() for s in self.sources],
        }
        if self.distinct_sha256 is not None:
            data["distinct_sha256"] = self.distinct_sha256
        if self.stats_mode is not None:
            data["stats_mode"] = self.stats_mode
            data["stats_sha256"] = self.stats_sha256
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CheckpointManifest":
        """Rebuild from parsed manifest JSON, validating field shapes."""
        try:
            stats_mode = data.get("stats_mode")
            stats_sha256 = data.get("stats_sha256")
            distinct_sha256 = data.get("distinct_sha256")
            if (stats_mode is None) != (stats_sha256 is None):
                raise ValueError(
                    "stats_mode and stats_sha256 must appear together"
                )
            return cls(
                format_version=int(data["format_version"]),
                record_count=int(data["record_count"]),
                distinct_type_count=int(data["distinct_type_count"]),
                skipped_count=int(data.get("skipped_count", 0)),
                schema_sha256=str(data["schema_sha256"]),
                sources=tuple(
                    SourceFingerprint.from_dict(s)
                    for s in data.get("sources", [])
                ),
                stats_mode=None if stats_mode is None else str(stats_mode),
                stats_sha256=(
                    None if stats_sha256 is None else str(stats_sha256)
                ),
                distinct_sha256=(
                    None if distinct_sha256 is None
                    else str(distinct_sha256)
                ),
            )
        except CheckpointFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointFormatError(
                f"malformed checkpoint manifest: missing or invalid "
                f"field ({exc})"
            ) from exc


@dataclass(frozen=True)
class Checkpoint:
    """A checkpoint in memory: its manifest plus the summary it stores.

    ``path`` is the directory it was loaded from or saved to (``None``
    for a merge result that was not written out).
    """

    manifest: CheckpointManifest
    summary: PartitionSummary
    path: str | None = None

    @property
    def schema(self) -> Type:
        """The checkpointed fused schema."""
        return self.summary.schema

    @property
    def record_count(self) -> int:
        """Records folded into this checkpoint so far."""
        return self.summary.record_count


def _schema_bytes(schema: Type) -> bytes:
    """The deterministic on-disk form of the schema file."""
    return (print_type(schema) + "\n").encode("utf-8")


def _write_bytes(handle, data: bytes) -> None:
    """Single seam every checkpoint byte passes through.

    Module-level so fault-injection tests can monkeypatch it to raise
    ``ENOSPC``/``EIO`` mid-save and assert that no partial state is ever
    observable afterwards.
    """
    handle.write(data)


def _fsync_dir(path: Path) -> None:
    """fsync a directory so its entries (renames, creates) are durable."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_file(directory: Path, name: str, data: bytes) -> None:
    """Write one checkpoint file atomically *and durably*.

    Temp file + fsync + rename + parent-directory fsync: after this
    returns, the file either exists with exactly ``data`` or (on any
    failure) does not exist at all — the temp file is removed on the
    error path rather than left to litter the directory.
    """
    tmp = directory / (name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            _write_bytes(handle, data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, directory / name)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_dir(directory)


#: Infix marking a staging/retired directory left by ``save_checkpoint``
#: (``<name>.tmp-<token>``); cleaned up on the next save and reported by
#: :func:`fsck_checkpoint`.
_TMP_INFIX = ".tmp-"


def _clean_orphans(target: Path) -> None:
    """Remove debris a crashed or failed earlier save may have left.

    Covers both generations of the writer: stale ``*.tmp`` files inside
    the directory (the pre-swap writer's per-file temps) and sibling
    ``<name>.tmp-*`` staging/retired directories from an interrupted
    swap.  Called under the target's advisory lock, so no live writer's
    staging directory can be swept by accident.
    """
    if target.is_dir():
        for stray in target.glob("*.tmp"):
            try:
                stray.unlink()
            except OSError:
                pass
    parent = target.parent if str(target.parent) else Path(".")
    if not parent.is_dir():
        return
    for stray in parent.glob(target.name + _TMP_INFIX + "*"):
        try:
            if stray.is_dir() and not stray.is_symlink():
                shutil.rmtree(stray, ignore_errors=True)
            else:
                stray.unlink()
        except OSError:
            pass


def _normalize_sources(
    sources: Iterable[SourceFingerprint | str | Path],
) -> tuple[SourceFingerprint, ...]:
    """Fingerprint paths, dedupe by path (last wins), sort for determinism."""
    by_path: dict[str, SourceFingerprint] = {}
    for source in sources:
        if not isinstance(source, SourceFingerprint):
            source = fingerprint_source(source)
        by_path[source.path] = source
    return tuple(sorted(by_path.values(), key=lambda s: s.path))


def _stats_bytes(summary: PartitionSummary) -> bytes | None:
    """Canonical ``statistics.json`` bytes, or ``None`` when stats-free."""
    bundle = getattr(summary, "stats", None)
    return None if bundle is None else bundle.to_bytes()


def _scrub_partial_stats(summary: PartitionSummary) -> PartitionSummary:
    """Drop a stats bundle that does not cover every checkpointed record.

    Happens when an update folds fresh stats-enriched partitions into a
    pre-stats checkpoint: the bundle describes only the new records, and
    persisting it would misreport the history.  Dropping is always safe
    — stats are an enrichment, never part of the schema algebra.
    """
    bundle = getattr(summary, "stats", None)
    if bundle is not None and bundle.record_count != summary.record_count:
        return replace(summary, stats=None)
    return summary


def build_manifest(
    summary: PartitionSummary,
    sources: Iterable[SourceFingerprint | str | Path] = (),
    skipped_count: int | None = None,
) -> CheckpointManifest:
    """The manifest describing ``summary``; paths are fingerprinted.

    ``skipped_count`` defaults to the summary's own quarantine count;
    an update pass overrides it with the cumulative count carried over
    from the previous checkpoint.
    """
    return _manifest(
        summary, _schema_bytes(summary.schema),
        pack_digests(summary.digest_set()), sources, skipped_count,
    )


def _manifest(summary, schema_bytes, digest_bytes, sources, skipped_count):
    """:func:`build_manifest` over the schema and digest bytes a save
    already built."""
    stats_payload = _stats_bytes(summary)
    return CheckpointManifest(
        format_version=FORMAT_VERSION,
        record_count=summary.record_count,
        distinct_type_count=len(digest_bytes) // DIGEST_BYTES,
        skipped_count=(
            summary.skipped_count if skipped_count is None else skipped_count
        ),
        schema_sha256=hashlib.sha256(schema_bytes).hexdigest(),
        sources=_normalize_sources(sources),
        stats_mode=None if stats_payload is None else summary.stats.mode,
        stats_sha256=(
            None if stats_payload is None
            else hashlib.sha256(stats_payload).hexdigest()
        ),
        distinct_sha256=hashlib.sha256(digest_bytes).hexdigest(),
    )


def save_checkpoint(
    directory: str | Path,
    summary: PartitionSummary,
    sources: Iterable[SourceFingerprint | str | Path] = (),
    skipped_count: int | None = None,
    stats: Any | None = None,
) -> Checkpoint:
    """Persist ``summary`` into ``directory`` (created if needed).

    Existing checkpoint files in the directory are replaced atomically,
    manifest last, so a reader never observes a manifest describing
    files that are not yet in place.  Only the algebraic state travels:
    schema, record count and the distinct set, as digests (a summary
    holding interned types has them digested here).  The directory is
    always written in format 2, whatever format it held.  Per-run
    transients —
    quarantined record bodies, phase timings, split line/byte counters —
    stay with the run that produced them (the manifest keeps the
    cumulative ``skipped_count`` for observability).

    ``stats`` may be a :class:`~repro.engine.scheduler.SchedulerStats`;
    when given, ``checkpoints_saved`` is incremented.

    >>> import tempfile
    >>> from repro.inference.kernel import accumulate_partition
    >>> summary = accumulate_partition([{"a": 1}, {"a": 2.5}])
    >>> with tempfile.TemporaryDirectory() as d:
    ...     ckpt = save_checkpoint(d, summary)
    ...     reloaded = load_checkpoint(d)
    >>> reloaded.summary.schema == summary.schema
    True
    >>> reloaded.record_count
    2
    """
    target = Path(directory)
    parent = target.parent if str(target.parent) else Path(".")
    parent.mkdir(parents=True, exist_ok=True)
    if (
        target.is_dir()
        and any(target.iterdir())
        and not checkpoint_exists(target)
    ):
        raise CheckpointError(
            f"refusing to replace {str(target)!r}: directory is not empty "
            f"and holds no checkpoint (missing {MANIFEST_FILE})"
        )
    summary = _scrub_partial_stats(summary)
    schema_bytes = _schema_bytes(summary.schema)
    digest_bytes = pack_digests(summary.digest_set())
    stats_payload = _stats_bytes(summary)
    manifest = _manifest(
        summary, schema_bytes, digest_bytes, sources, skipped_count
    )
    manifest_bytes = (
        json.dumps(manifest.to_dict(), sort_keys=True, indent=2) + "\n"
    ).encode("utf-8")
    with FileLock(target):
        _clean_orphans(target)
        staging = Path(tempfile.mkdtemp(
            prefix=target.name + _TMP_INFIX, dir=parent
        ))
        try:
            _write_file(staging, SCHEMA_FILE, schema_bytes)
            _write_file(staging, DIGEST_FILE, digest_bytes)
            if stats_payload is not None:
                # Before the manifest, like every data file: a reader
                # that sees the manifest's stats digest must find the
                # bytes it describes already in place.
                _write_file(staging, STATS_FILE, stats_payload)
            _write_file(staging, MANIFEST_FILE, manifest_bytes)
            crash_point("checkpoint.pre_swap")
            _swap_into_place(staging, target, parent)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        crash_point("checkpoint.post_swap")
    if stats is not None:
        stats.checkpoints_saved += 1
    return Checkpoint(manifest=manifest, summary=summary, path=str(target))


def _swap_into_place(staging: Path, target: Path, parent: Path) -> None:
    """Install the fully-written ``staging`` directory as ``target``.

    One ``os.replace`` when ``target`` is absent or an empty directory
    (POSIX rename replaces an empty directory atomically).  Over an
    existing checkpoint, the old version is renamed aside first — the
    only non-atomic window, covered by the ``checkpoint.mid_swap`` crash
    point; a crash there leaves *no* ``target`` but both complete
    versions on disk under ``.tmp-`` names, which fsck reports and the
    next save sweeps.  A reader can therefore observe old bytes, new
    bytes, or not-found — never a mix of versions.
    """
    try:
        os.replace(staging, target)
    except OSError:
        if not target.is_dir():
            raise
        retired = Path(tempfile.mkdtemp(
            prefix=target.name + _TMP_INFIX + "retired-", dir=parent
        ))
        # mkdtemp created the placeholder only to reserve the name;
        # rename over it (empty dir) is the atomic retire.
        os.replace(target, retired)
        crash_point("checkpoint.mid_swap")
        os.replace(staging, target)
        shutil.rmtree(retired, ignore_errors=True)
    _fsync_dir(parent)


def checkpoint_exists(directory: str | Path) -> bool:
    """Whether ``directory`` holds a checkpoint (has a manifest)."""
    return (Path(directory) / MANIFEST_FILE).is_file()


def _read_file(directory: Path, name: str) -> bytes:
    """A checkpoint file's bytes.  Without its manifest a directory holds
    no checkpoint; beside the manifest, a missing data file is damage."""
    try:
        with open(directory / name, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        if name == MANIFEST_FILE:
            raise CheckpointNotFoundError(
                f"no checkpoint at {str(directory)!r}: missing {name}"
            ) from None
        raise CheckpointCorruptError(
            str(directory), f"the manifest is present but {name} is missing"
        ) from None


def load_manifest(directory: str | Path) -> CheckpointManifest:
    """Read and validate just the manifest of a checkpoint directory.

    Cheap (one small JSON file), so callers that only need metadata —
    source fingerprints, counts — can skip parsing the type files.
    Raises :class:`CheckpointNotFoundError` when no checkpoint is there
    and :class:`CheckpointFormatError` on a malformed manifest or an
    unknown format version.
    """
    target = Path(directory)
    if not target.is_dir():
        raise CheckpointNotFoundError(
            f"no checkpoint at {str(target)!r}: not a directory"
        )
    manifest_bytes = _read_file(target, MANIFEST_FILE)
    try:
        manifest_data = json.loads(manifest_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(
            str(target), f"unreadable manifest: {exc}"
        ) from exc
    if not isinstance(manifest_data, dict):
        raise CheckpointCorruptError(
            str(target), "manifest is not a JSON object"
        )
    try:
        manifest = CheckpointManifest.from_dict(manifest_data)
    except CheckpointCorruptError:
        raise
    except CheckpointFormatError as exc:
        # from_dict has no path context of its own; add it here so an
        # error always names the directory it came from.
        raise CheckpointCorruptError(str(target), str(exc)) from exc
    if manifest.format_version not in _READ_FORMAT_VERSIONS:
        raise CheckpointFormatError(
            f"checkpoint at {str(target)!r} has format version "
            f"{manifest.format_version}; this build reads versions "
            f"{' and '.join(map(str, _READ_FORMAT_VERSIONS))}"
        )
    if manifest.format_version > 1 and manifest.distinct_sha256 is None:
        raise CheckpointCorruptError(
            str(target), "format-2 manifest lacks distinct_sha256"
        )
    return manifest


def load_checkpoint(
    directory: str | Path, stats: Any | None = None
) -> Checkpoint:
    """Load and verify the checkpoint stored in ``directory``.

    Verification covers the format version, the manifest's JSON shape,
    the schema digest (the schema file must be exactly the bytes the
    manifest was computed over), and the distinct set: in format 2 the
    digest file must hash to the manifest's ``distinct_sha256``, hold a
    whole number of 32-byte digests in strictly increasing order, and
    hold as many as the manifest counts.  A format-1 distinct-types file
    is parsed and digested, and its count of unique digests must equal
    the manifest's.  Either way the summary carries the set as
    ``distinct_digests``.

    Raises :class:`CheckpointNotFoundError` when ``directory`` holds no
    manifest, :class:`CheckpointFormatError` for a format version this
    build does not read, and :class:`CheckpointCorruptError` for any
    damage — a data file missing beside the manifest included.
    """
    target = Path(directory)
    manifest = load_manifest(target)
    pool: dict = {}  # see parse_type

    schema_bytes = _read_file(target, SCHEMA_FILE)
    digest = hashlib.sha256(schema_bytes).hexdigest()
    if digest != manifest.schema_sha256:
        raise CheckpointCorruptError(
            str(target),
            f"schema digest mismatch: manifest says "
            f"{manifest.schema_sha256[:12]}…, file hashes to {digest[:12]}…",
        )
    try:
        schema = parse_type(schema_bytes.decode("utf-8").strip(), pool)
    except (UnicodeDecodeError, TypeSyntaxError) as exc:
        raise CheckpointCorruptError(
            str(target), f"unparseable schema: {exc}"
        ) from exc

    if manifest.format_version == 1:
        digests = _load_format1_distinct(target, pool)
    else:
        digests = _load_distinct_digests(target, manifest)
    if len(digests) != manifest.distinct_type_count:
        raise CheckpointCorruptError(
            str(target),
            f"distinct-type count mismatch: manifest says "
            f"{manifest.distinct_type_count}, file holds {len(digests)}",
        )

    bundle = None
    if manifest.stats_mode is not None:
        stats_payload = _read_file(target, STATS_FILE)
        stats_digest = hashlib.sha256(stats_payload).hexdigest()
        if stats_digest != manifest.stats_sha256:
            raise CheckpointCorruptError(
                str(target),
                f"statistics digest mismatch: manifest says "
                f"{manifest.stats_sha256[:12]}…, file hashes to "
                f"{stats_digest[:12]}…",
            )
        try:
            bundle = StatsBundle.from_bytes(stats_payload)
        except ValueError as exc:
            raise CheckpointCorruptError(
                str(target), f"unparseable statistics file: {exc}"
            ) from exc
        if bundle.mode != manifest.stats_mode:
            raise CheckpointCorruptError(
                str(target),
                f"statistics mode mismatch: manifest says "
                f"{manifest.stats_mode!r}, file holds {bundle.mode!r}",
            )
        if bundle.record_count != manifest.record_count:
            raise CheckpointCorruptError(
                str(target),
                f"statistics record count mismatch: manifest says "
                f"{manifest.record_count}, bundle covers "
                f"{bundle.record_count}",
            )

    summary = PartitionSummary(
        schema=schema,
        record_count=manifest.record_count,
        stats=bundle,
        distinct_digests=digests,
    )
    if stats is not None:
        stats.checkpoints_loaded += 1
        stats.checkpoint_records_merged += summary.record_count
    return Checkpoint(manifest=manifest, summary=summary, path=str(target))


def _load_distinct_digests(
    target: Path, manifest: CheckpointManifest
) -> "frozenset[bytes]":
    """Format 2's distinct set, checked against the manifest's digest."""
    digest_bytes = _read_file(target, DIGEST_FILE)
    digest = hashlib.sha256(digest_bytes).hexdigest()
    if digest != manifest.distinct_sha256:
        raise CheckpointCorruptError(
            str(target),
            f"distinct-digest file mismatch: manifest says "
            f"{manifest.distinct_sha256[:12]}…, file hashes to "
            f"{digest[:12]}…",
        )
    try:
        return unpack_digests(digest_bytes)
    except ValueError as exc:
        raise CheckpointCorruptError(
            str(target), f"malformed {DIGEST_FILE}: {exc}"
        ) from exc


def _load_format1_distinct(target: Path, pool: dict) -> "frozenset[bytes]":
    """Format 1's distinct set: one printed type per line, parsed and
    digested (sharing the schema's parse pool)."""
    distinct_bytes = _read_file(target, DISTINCT_FILE)
    try:
        # "\n" is the only terminator the writer emitted; a record key
        # may hold U+2028 or another character str.splitlines() breaks at.
        lines = distinct_bytes.decode("utf-8").split("\n")
        types = [parse_type(line, pool) for line in lines if line.strip()]
    except (UnicodeDecodeError, TypeSyntaxError) as exc:
        raise CheckpointCorruptError(
            str(target), f"unparseable distinct-types file: {exc}"
        ) from exc
    return frozenset(digest_types(types))


def _load_merge_input(directory: str | Path) -> Checkpoint:
    """Load one merge input: failures always name the shard.

    A bare digest or version error from a 30-shard merge is useless
    without knowing *which* shard to quarantine; this wrapper re-raises
    every store error with the offending input path in front, preserving
    the class (so fsck classification still works).
    """
    try:
        return load_checkpoint(directory)
    except CheckpointCorruptError as exc:
        raise CheckpointCorruptError(
            exc.directory, f"cannot merge this shard: {exc.detail}"
        ) from exc
    except CheckpointNotFoundError as exc:
        raise CheckpointNotFoundError(
            f"cannot merge shard {str(directory)!r}: {exc}"
        ) from exc
    except CheckpointFormatError as exc:
        raise CheckpointFormatError(
            f"cannot merge shard {str(directory)!r}: {exc}"
        ) from exc


def merge_checkpoints(
    inputs: Sequence[str | Path | Checkpoint],
    out: str | Path | None = None,
) -> Checkpoint:
    """Union any number of checkpoints into one (cross-shard schema merge).

    Every component of the merge is associative and commutative —
    schemas fuse, record counts add, distinct sets union as digests —
    so shards (of either format) may be merged in any order or grouping
    and the result is the schema a single pass over all the shards'
    data would have produced (Theorem 5.5).  Each shard is loaded once,
    in-line, and the loaded summaries enter the kernel's one reduce
    (:func:`~repro.inference.kernel.merge_summaries_full`).

    With ``out``, the merged checkpoint is saved there (its manifest
    unions the inputs' source fingerprints) and the returned
    :class:`Checkpoint` points at it; otherwise the result stays in
    memory with ``path=None``.
    """
    if not inputs:
        raise CheckpointError("merge_checkpoints needs at least one input")
    paths = [c for c in inputs if not isinstance(c, Checkpoint)]
    for path in paths:
        # Advisory writer exclusion: refuse to read a shard some live
        # process is mid-save on (a stale lock from a crashed writer is
        # ignored — the swap left the directory consistent either way).
        if is_stale_lock(path) is False:
            raise LockHeldError(os.fspath(path))
    checkpoints = [
        item if isinstance(item, Checkpoint) else _load_merge_input(item)
        for item in inputs
    ]
    sources = [s for c in checkpoints for s in c.manifest.sources]
    skipped = sum(c.manifest.skipped_count for c in checkpoints)

    merged = merge_summaries_full([c.summary for c in checkpoints])

    if out is not None:
        return save_checkpoint(
            out, merged, sources=sources, skipped_count=skipped
        )
    # Same coverage rule as the saved path: a bundle contributed by only
    # some shards must not describe the whole union.
    merged = _scrub_partial_stats(merged)
    return Checkpoint(
        manifest=build_manifest(merged, sources, skipped_count=skipped),
        summary=merged,
        path=None,
    )


def fsck_checkpoint(directory: str | Path) -> dict[str, Any]:
    """Classify the health of a checkpoint directory (``repro fsck``).

    Pure inspection — nothing is repaired or deleted.  The report says
    what a load would conclude (``ok`` / ``not-found`` /
    ``version-mismatch`` / ``corrupt``), lists swap debris a crashed
    writer may have left (``orphans`` — removed automatically by the
    next :func:`save_checkpoint`), and reports the advisory lock state
    (``none`` / ``held`` / ``stale``).
    """
    target = Path(directory)
    report: dict[str, Any] = {
        "path": str(target),
        "kind": "checkpoint",
        "status": "ok",
        "detail": "",
        "orphans": [],
        "lock": "none",
    }
    try:
        ckpt = load_checkpoint(target)
        report["detail"] = (
            f"format {ckpt.manifest.format_version}, "
            f"{ckpt.record_count} records, "
            f"{ckpt.manifest.distinct_type_count} distinct types, "
            f"schema {ckpt.manifest.schema_sha256[:12]}"
        )
        if ckpt.manifest.stats_mode is not None:
            report["detail"] += f", stats {ckpt.manifest.stats_mode}"
            report["stats_mode"] = ckpt.manifest.stats_mode
        report["schema_sha256"] = ckpt.manifest.schema_sha256
        report["format_version"] = ckpt.manifest.format_version
    except CheckpointNotFoundError as exc:
        report["status"] = "not-found"
        report["detail"] = str(exc)
    except CheckpointCorruptError as exc:
        report["status"] = "corrupt"
        report["detail"] = exc.detail
    except CheckpointFormatError as exc:
        report["status"] = "version-mismatch"
        report["detail"] = str(exc)
    orphans = []
    if target.is_dir():
        orphans.extend(str(p) for p in sorted(target.glob("*.tmp")))
    parent = target.parent if str(target.parent) else Path(".")
    if parent.is_dir():
        orphans.extend(
            str(p) for p in sorted(parent.glob(target.name + _TMP_INFIX + "*"))
        )
    report["orphans"] = orphans
    stale = is_stale_lock(target)
    if stale is not None:
        report["lock"] = "stale" if stale else "held"
    return report
