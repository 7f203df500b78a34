"""Persistent schema state: checkpoint save/load/merge.

The store turns the one-shot reproducer into a restartable, shardable
service primitive: a run's fused summary persists as a versioned on-disk
checkpoint, a later run fuses new data *into* it instead of recomputing
from scratch (``infer_ndjson_file(..., update_from=..., checkpoint_to=
...)``), and checkpoints from independent shards union with
:func:`merge_checkpoints` — all of it exact by the fusion algebra's
commutativity/associativity (paper Theorems 5.4-5.5).

See :mod:`repro.store.checkpoint` for the on-disk format.
"""

from repro.store.checkpoint import (
    FORMAT_VERSION,
    Checkpoint,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointManifest,
    CheckpointNotFoundError,
    SourceFingerprint,
    build_manifest,
    checkpoint_exists,
    fingerprint_source,
    fsck_checkpoint,
    load_checkpoint,
    load_manifest,
    merge_checkpoints,
    save_checkpoint,
)
from repro.store.journal import (
    JournalCorruptError,
    JournalError,
    JournalMismatchError,
    JournalNotFoundError,
    JournalState,
    RunJournal,
    fsck_journal,
    read_journal,
)
from repro.store.locks import FileLock, LockHeldError
from repro.store.summarycache import (
    CACHE_FORMAT_VERSION,
    CACHE_MARKER_NAME,
    SummaryCache,
    config_signature,
    fsck_summary_cache,
)

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CACHE_MARKER_NAME",
    "FORMAT_VERSION",
    "Checkpoint",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointFormatError",
    "CheckpointManifest",
    "CheckpointNotFoundError",
    "FileLock",
    "JournalCorruptError",
    "JournalError",
    "JournalMismatchError",
    "JournalNotFoundError",
    "JournalState",
    "LockHeldError",
    "RunJournal",
    "SourceFingerprint",
    "SummaryCache",
    "build_manifest",
    "checkpoint_exists",
    "config_signature",
    "fingerprint_source",
    "fsck_checkpoint",
    "fsck_journal",
    "fsck_summary_cache",
    "load_checkpoint",
    "load_manifest",
    "merge_checkpoints",
    "read_journal",
    "save_checkpoint",
]
