"""Checkpoint-store hardening: corruption classes, atomic swap, orphans,
locks, fault injection, fsck.

The store's contract after this hardening: a reader sees the old
checkpoint, the new checkpoint, or not-found — never a mix; a failed or
crashed save leaves nothing a later save will not sweep; and every
failure mode is classified (`CheckpointCorruptError` vs plain format
skew) so ``repro fsck`` and ``merge`` can report it precisely.
"""

from __future__ import annotations

import errno
import json
import os
import pickle
import shutil
from pathlib import Path

import pytest

from repro.inference.kernel import accumulate_partition
from repro.store.checkpoint import (
    DIGEST_FILE,
    DISTINCT_FILE,
    MANIFEST_FILE,
    SCHEMA_FILE,
    STATS_FILE,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointNotFoundError,
    fsck_checkpoint,
    load_checkpoint,
    merge_checkpoints,
    save_checkpoint,
)
from repro.store.locks import FileLock, LockHeldError, lock_path_for

#: A format-1 checkpoint (``distinct.types``), written before format 2.
GOLDEN_FORMAT1 = Path(__file__).resolve().parents[1] / "golden" / "checkpoint"


def summary_for(values):
    return accumulate_partition(values)


@pytest.fixture
def saved(tmp_path):
    directory = tmp_path / "ckpt"
    save_checkpoint(directory, summary_for([{"a": 1}, {"a": 2, "b": "x"}]))
    return directory


class TestCorruptClassification:
    def test_unparseable_manifest(self, saved):
        (saved / MANIFEST_FILE).write_text("{not json")
        with pytest.raises(CheckpointCorruptError) as excinfo:
            load_checkpoint(saved)
        assert excinfo.value.directory == str(saved)

    def test_digest_mismatch(self, saved):
        schema_file = saved / "schema.type"
        schema_file.write_text("{tampered: Str}")
        with pytest.raises(CheckpointCorruptError, match="digest"):
            load_checkpoint(saved)

    def test_unparseable_schema(self, saved):
        # Keep the digest consistent so the parse failure is what trips.
        import hashlib

        garbage = b"not a type @@@"
        (saved / "schema.type").write_bytes(garbage)
        manifest = json.loads((saved / MANIFEST_FILE).read_text())
        manifest["schema_sha256"] = hashlib.sha256(garbage).hexdigest()
        (saved / MANIFEST_FILE).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointCorruptError, match="unparseable"):
            load_checkpoint(saved)

    def test_version_mismatch_is_not_corrupt(self, saved):
        manifest = json.loads((saved / MANIFEST_FILE).read_text())
        manifest["format_version"] = 99
        (saved / MANIFEST_FILE).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointFormatError) as excinfo:
            load_checkpoint(saved)
        assert not isinstance(excinfo.value, CheckpointCorruptError)

    def test_corrupt_is_a_format_error(self):
        # Callers catching the old class keep working.
        assert issubclass(CheckpointCorruptError, CheckpointFormatError)


class TestErrorPickling:
    """Satellite: the hierarchy survives process-pool return paths."""

    @pytest.mark.parametrize("exc", [
        CheckpointError("boom"),
        CheckpointNotFoundError("gone"),
        CheckpointFormatError("version skew"),
        CheckpointCorruptError("/ckpt", "digest mismatch"),
    ])
    def test_round_trip(self, exc):
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is type(exc)
        assert str(clone) == str(exc)

    def test_corrupt_fields_survive(self):
        clone = pickle.loads(
            pickle.dumps(CheckpointCorruptError("/c", "bad digest"))
        )
        assert clone.directory == "/c"
        assert clone.detail == "bad digest"


class TestAtomicSwap:
    def test_save_over_existing_replaces_fully(self, saved):
        before = load_checkpoint(saved)
        save_checkpoint(saved, summary_for([{"z": True}]))
        after = load_checkpoint(saved)
        assert after.summary.schema != before.summary.schema
        assert after.record_count == 1
        # Exactly the three checkpoint files; no leftovers inside.
        assert sorted(p.name for p in saved.iterdir()) == [
            MANIFEST_FILE, "distinct.digests", "schema.type",
        ]

    def test_no_tmp_siblings_after_save(self, saved):
        save_checkpoint(saved, summary_for([{"z": 1}]))
        strays = [
            p.name for p in saved.parent.iterdir()
            if p.name.startswith(saved.name + ".tmp-")
        ]
        assert strays == []

    def test_refuses_non_checkpoint_directory(self, tmp_path):
        target = tmp_path / "precious"
        target.mkdir()
        (target / "data.txt").write_text("do not clobber")
        with pytest.raises(CheckpointError, match="refusing to replace"):
            save_checkpoint(target, summary_for([{"a": 1}]))
        assert (target / "data.txt").read_text() == "do not clobber"


class TestOrphanCleanup:
    """Satellite: stale ``*.tmp`` debris is swept by the next save."""

    def test_inner_tmp_files_swept(self, saved):
        stray = saved / "schema.type.tmp"
        stray.write_text("half-written")
        save_checkpoint(saved, summary_for([{"a": 1}]))
        assert not stray.exists()

    def test_sibling_staging_dirs_swept(self, saved):
        orphan_dir = saved.parent / (saved.name + ".tmp-deadbeef")
        orphan_dir.mkdir()
        (orphan_dir / "schema.type").write_text("{}")
        orphan_file = saved.parent / (saved.name + ".tmp-cafe")
        orphan_file.write_text("x")
        save_checkpoint(saved, summary_for([{"a": 1}]))
        assert not orphan_dir.exists()
        assert not orphan_file.exists()


class TestLocking:
    def test_save_blocked_by_held_lock(self, saved):
        with FileLock(saved):
            with pytest.raises(LockHeldError):
                save_checkpoint(saved, summary_for([{"a": 1}]))

    def test_save_breaks_stale_lock(self, saved):
        with open(lock_path_for(saved), "w") as handle:
            handle.write("999999999 nowhere\n")
        save_checkpoint(saved, summary_for([{"a": 1}]))
        assert not os.path.exists(lock_path_for(saved))

    def test_merge_rejects_locked_input(self, saved, tmp_path):
        out = tmp_path / "merged"
        with FileLock(saved):
            with pytest.raises(LockHeldError):
                merge_checkpoints([saved], out=out)


    def test_missing_parent_is_created_once(self, tmp_path):
        target = tmp_path / "new" / "ckpt"
        with FileLock(target):
            assert os.path.exists(lock_path_for(target))
        assert not os.path.exists(lock_path_for(target))

    def test_enoent_after_creating_the_parent_raises(self, tmp_path,
                                                     monkeypatch):
        """A parent the file system will not create files in (as under
        ``/proc``) is one ``FileNotFoundError``, not a recursion."""
        calls = []

        def no_such_entry(path, *args, **kwargs):
            calls.append(path)
            raise OSError(errno.ENOENT, "No such file or directory", path)

        monkeypatch.setattr(os, "open", no_such_entry)
        with pytest.raises(FileNotFoundError):
            FileLock(tmp_path / "ckpt").acquire()
        assert len(calls) == 2


class TestMergeShardNaming:
    """Satellite: merge failures name the offending shard."""

    def make_pair(self, tmp_path):
        a = tmp_path / "shard-a"
        b = tmp_path / "shard-b"
        save_checkpoint(a, summary_for([{"a": 1}]))
        save_checkpoint(b, summary_for([{"b": "x"}]))
        return a, b

    def test_corrupt_shard_named(self, tmp_path):
        a, b = self.make_pair(tmp_path)
        (b / "schema.type").write_text("{tampered: Str}")
        with pytest.raises(CheckpointCorruptError, match="shard-b"):
            merge_checkpoints([a, b], out=tmp_path / "out")

    def test_version_mismatch_shard_named(self, tmp_path):
        a, b = self.make_pair(tmp_path)
        manifest = json.loads((b / MANIFEST_FILE).read_text())
        manifest["format_version"] = 99
        (b / MANIFEST_FILE).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointFormatError, match="shard-b"):
            merge_checkpoints([a, b], out=tmp_path / "out")

    def test_missing_shard_named(self, tmp_path):
        a, _ = self.make_pair(tmp_path)
        with pytest.raises(CheckpointNotFoundError, match="nowhere"):
            merge_checkpoints([a, tmp_path / "nowhere"], out=tmp_path / "out")


class TestWriteFaults:
    """Satellite: ENOSPC/EIO during save leaves no partial state."""

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EIO])
    def test_failed_save_preserves_previous(
        self, saved, monkeypatch, code
    ):
        before = load_checkpoint(saved)

        def exploding(handle, data):
            handle.write(data[:len(data) // 2])
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr("repro.store.checkpoint._write_bytes", exploding)
        with pytest.raises(OSError) as excinfo:
            save_checkpoint(saved, summary_for([{"z": 1}]))
        assert excinfo.value.errno == code
        monkeypatch.undo()
        # The previous checkpoint is untouched and loadable …
        after = load_checkpoint(saved)
        assert after.summary.schema == before.summary.schema
        # … no staging or temp debris remains, and the lock is free.
        strays = [
            p.name for p in saved.parent.iterdir()
            if p.name.startswith(saved.name + ".tmp-")
        ]
        assert strays == []
        assert not os.path.exists(lock_path_for(saved))
        save_checkpoint(saved, summary_for([{"z": 1}]))

    def test_failed_fresh_save_leaves_nothing(self, tmp_path, monkeypatch):
        target = tmp_path / "fresh"

        def exploding(handle, data):
            raise OSError(errno.ENOSPC, "no space")

        monkeypatch.setattr("repro.store.checkpoint._write_bytes", exploding)
        with pytest.raises(OSError):
            save_checkpoint(target, summary_for([{"a": 1}]))
        monkeypatch.undo()
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []


class TestFsck:
    def test_ok(self, saved):
        report = fsck_checkpoint(saved)
        assert report["status"] == "ok"
        assert report["kind"] == "checkpoint"
        assert report["lock"] == "none"
        assert report["orphans"] == []
        assert len(report["schema_sha256"]) == 64

    def test_not_found(self, tmp_path):
        assert fsck_checkpoint(tmp_path / "nope")["status"] == "not-found"

    @pytest.mark.parametrize(
        "name", [SCHEMA_FILE, DIGEST_FILE, DISTINCT_FILE, STATS_FILE]
    )
    def test_missing_data_file_is_corrupt(self, tmp_path, name):
        # The manifest is there, so checkpoint_exists() says yes: a load
        # must report damage, not a missing checkpoint.
        target = tmp_path / "ckpt"
        if name == DISTINCT_FILE:
            shutil.copytree(GOLDEN_FORMAT1, target)
        else:
            save_checkpoint(
                target,
                accumulate_partition([{"a": 1}], stats_mode="basic"),
            )
        (target / name).unlink()
        report = fsck_checkpoint(target)
        assert report["status"] == "corrupt"
        assert name in report["detail"]
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(target)

    def test_corrupt(self, saved):
        (saved / "schema.type").write_text("{tampered: Str}")
        report = fsck_checkpoint(saved)
        assert report["status"] == "corrupt"
        assert "digest" in report["detail"]

    def test_version_mismatch(self, saved):
        manifest = json.loads((saved / MANIFEST_FILE).read_text())
        manifest["format_version"] = 99
        (saved / MANIFEST_FILE).write_text(json.dumps(manifest))
        assert fsck_checkpoint(saved)["status"] == "version-mismatch"

    def test_orphans_reported(self, saved):
        (saved / "schema.type.tmp").write_text("x")
        sibling = saved.parent / (saved.name + ".tmp-1234")
        sibling.mkdir()
        orphans = fsck_checkpoint(saved)["orphans"]
        assert any(o.endswith("schema.type.tmp") for o in orphans)
        assert any(o.endswith(".tmp-1234") for o in orphans)

    def test_lock_states(self, saved):
        with FileLock(saved):
            assert fsck_checkpoint(saved)["lock"] == "held"
        with open(lock_path_for(saved), "w") as handle:
            handle.write("999999999 nowhere\n")
        assert fsck_checkpoint(saved)["lock"] == "stale"
