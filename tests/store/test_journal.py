"""Run-journal tests: frame codec, torn tails, corruption, locks, fsck.

The journal's contract is exact: an append that returned is durable, a
torn tail (the crash's own half-written frame) is silently dropped, and
any *interior* damage is a hard :class:`JournalCorruptError` — the
reader never skips frames it cannot vouch for.  Task frames are filed
under string keys (the pipeline's are content digests plus a config
signature); the journal itself does not interpret them.
"""

from __future__ import annotations

import errno
import json
import os
import pickle
import struct

import pytest

from repro.store.journal import (
    JOURNAL_FORMAT_VERSION,
    JOURNAL_MAGIC,
    KIND_HEADER,
    JournalCorruptError,
    JournalError,
    JournalMismatchError,
    JournalNotFoundError,
    RunJournal,
    _frame,
    fsck_journal,
    read_journal,
)
from repro.store.locks import (
    FileLock,
    LockHeldError,
    is_stale_lock,
    lock_path_for,
    read_lock_owner,
)

@pytest.fixture
def journal_path(tmp_path):
    return tmp_path / "run.journal"


def write_journal(path, entries, commit=None):
    with RunJournal.create(path) as journal:
        for key, payload in entries:
            journal.append_task(key, payload)
        if commit is not None:
            journal.append_commit(commit)


def write_foreign_journal(path, journal_format):
    """A journal whose header names another journal format."""
    header = json.dumps({"journal_format": journal_format}).encode()
    path.write_bytes(JOURNAL_MAGIC + _frame(KIND_HEADER, header))


class TestRoundTrip:
    def test_create_and_read_back(self, journal_path):
        write_journal(journal_path, [("a", b"alpha"), ("c-\u00e9", b"gamma")])
        state = read_journal(journal_path)
        assert state.header == {"journal_format": JOURNAL_FORMAT_VERSION}
        assert state.completed == {"a": b"alpha", "c-\u00e9": b"gamma"}
        assert not state.committed
        assert not state.torn

    def test_commit_frame(self, journal_path):
        write_journal(
            journal_path, [("a", b"x")], commit={"schema_sha256": "beef"}
        )
        state = read_journal(journal_path)
        assert state.committed
        assert state.commit == {"schema_sha256": "beef"}

    def test_first_write_wins_on_duplicate_index(self, journal_path):
        write_journal(journal_path, [("b", b"first"), ("b", b"second")])
        assert read_journal(journal_path).completed == {"b": b"first"}

    def test_binary_payloads_survive(self, journal_path):
        payload = bytes(range(256)) * 3
        write_journal(journal_path, [("", payload)])
        assert read_journal(journal_path).completed[""] == payload

    def test_create_refuses_existing_file(self, journal_path):
        write_journal(journal_path, [])
        with pytest.raises(JournalError, match="already exists"):
            RunJournal.create(journal_path)

    def test_missing_file(self, journal_path):
        with pytest.raises(JournalNotFoundError):
            read_journal(journal_path)

    def test_closed_journal_rejects_appends(self, journal_path):
        journal = RunJournal.create(journal_path)
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.append_task("a", b"x")


class TestTornTail:
    """Damage that reaches EOF is the crash's own half-write: tolerated."""

    def truncated(self, journal_path, drop):
        data = journal_path.read_bytes()
        journal_path.write_bytes(data[:-drop])

    @pytest.mark.parametrize("drop", [1, 3, 8, 12])
    def test_truncated_tail_is_dropped(self, journal_path, drop):
        write_journal(journal_path, [("a", b"alpha"), ("b", b"beta")])
        self.truncated(journal_path, drop)
        state = read_journal(journal_path)
        assert state.torn
        assert state.torn_bytes > 0
        # The earlier frame must survive intact.
        assert state.completed["a"] == b"alpha"

    def test_garbage_tail_bytes_are_torn(self, journal_path):
        write_journal(journal_path, [("a", b"alpha")])
        with open(journal_path, "ab") as handle:
            handle.write(b"\x07")  # lone junk byte: incomplete header
        state = read_journal(journal_path)
        assert state.torn and state.torn_bytes == 1
        assert state.completed == {"a": b"alpha"}

    def test_corrupt_final_payload_is_torn(self, journal_path):
        write_journal(journal_path, [("a", b"alpha"), ("b", b"beta")])
        data = bytearray(journal_path.read_bytes())
        data[-1] ^= 0xFF  # flip a byte inside the last frame's payload
        journal_path.write_bytes(bytes(data))
        state = read_journal(journal_path)
        assert state.torn
        assert state.completed == {"a": b"alpha"}

    def test_open_resume_truncates_torn_tail(self, journal_path):
        write_journal(journal_path, [("a", b"alpha")])
        good_size = journal_path.stat().st_size
        with open(journal_path, "ab") as handle:
            handle.write(b"torn!")
        journal, state = RunJournal.open_resume(journal_path)
        try:
            assert state.torn
        finally:
            journal.close()
        assert journal_path.stat().st_size == good_size
        assert not read_journal(journal_path).torn

    def test_resume_appends_after_torn_truncation(self, journal_path):
        write_journal(journal_path, [("a", b"alpha")])
        with open(journal_path, "ab") as handle:
            handle.write(b"\x00" * 5)
        journal, state = RunJournal.open_resume(journal_path)
        with journal:
            journal.append_task("b", b"beta")
        assert read_journal(journal_path).completed == {
            "a": b"alpha", "b": b"beta",
        }


class TestCorruption:
    """Damage with valid bytes after it is NOT a torn tail: hard error."""

    def test_midfile_payload_damage(self, journal_path):
        write_journal(journal_path, [("a", b"alpha" * 10), ("b", b"beta")])
        data = bytearray(journal_path.read_bytes())
        # Flip a byte in the middle of the file (inside frame 0's payload,
        # well before the final frame).
        data[len(data) // 2] ^= 0xFF
        journal_path.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError, match="mid-file damage"):
            read_journal(journal_path)

    def test_bad_magic(self, journal_path):
        journal_path.write_bytes(b"NOTAJRNL" + b"\x00" * 32)
        with pytest.raises(JournalCorruptError, match="bad magic"):
            read_journal(journal_path)

    def test_header_missing(self, journal_path):
        journal_path.write_bytes(JOURNAL_MAGIC)
        with pytest.raises(JournalCorruptError, match="no complete header"):
            read_journal(journal_path)

    def test_unknown_frame_kind(self, journal_path):
        write_journal(journal_path, [])
        import zlib

        payload = b"?"
        frame = struct.pack(
            "<BII", ord("Z"), len(payload), zlib.crc32(payload)
        ) + payload
        with open(journal_path, "ab") as handle:
            handle.write(frame)
            # Another valid-looking byte after it so it is not a torn tail.
        with open(journal_path, "ab") as handle:
            handle.write(frame)
        with pytest.raises(JournalCorruptError, match="unknown frame kind"):
            read_journal(journal_path)

    def test_version_mismatch(self, journal_path):
        """Another build's journal is intact, not corrupt: refused as a
        mismatch that names its format."""
        write_foreign_journal(journal_path, 99)
        with pytest.raises(JournalMismatchError,
                           match="journal format 99") as info:
            read_journal(journal_path)
        assert "delete the journal and rerun" in str(info.value)

    def test_corrupt_error_carries_offset(self, journal_path):
        write_journal(journal_path, [("a", b"alpha" * 10), ("b", b"beta")])
        data = bytearray(journal_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        journal_path.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError) as excinfo:
            read_journal(journal_path)
        assert excinfo.value.offset >= len(JOURNAL_MAGIC)
        assert excinfo.value.path == str(journal_path)


class TestErrorPickling:
    """Journal errors cross process-pool boundaries intact (satellite 2)."""

    @pytest.mark.parametrize("exc", [
        JournalError("boom"),
        JournalNotFoundError("gone"),
        JournalCorruptError("/j", "bad crc", 42),
        JournalMismatchError("another journal format"),
        LockHeldError("/some/path", owner_pid=123),
    ])
    def test_round_trip(self, exc):
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is type(exc)
        assert str(clone) == str(exc)

    def test_corrupt_error_fields_survive(self):
        clone = pickle.loads(pickle.dumps(JournalCorruptError("/j", "x", 7)))
        assert (clone.path, clone.detail, clone.offset) == ("/j", "x", 7)


class TestLocks:
    def test_lock_is_sibling_file(self, tmp_path):
        target = tmp_path / "run.journal"
        assert lock_path_for(target) == str(target) + ".lock"

    def test_acquire_release(self, tmp_path):
        target = tmp_path / "t"
        with FileLock(target):
            assert read_lock_owner(target) == os.getpid()
            assert is_stale_lock(target) is False
        assert read_lock_owner(target) is None

    def test_second_acquire_fails_fast(self, tmp_path):
        target = tmp_path / "t"
        with FileLock(target):
            with pytest.raises(LockHeldError) as excinfo:
                FileLock(target).acquire()
            assert excinfo.value.owner_pid == os.getpid()

    def test_stale_lock_is_broken(self, tmp_path):
        target = tmp_path / "t"
        # A pid that cannot be alive: max pid space is bounded well below.
        with open(lock_path_for(target), "w") as handle:
            handle.write("999999999 nowhere\n")
        assert is_stale_lock(target) is True
        with FileLock(target):
            assert read_lock_owner(target) == os.getpid()

    def test_journal_writer_holds_lock(self, journal_path):
        journal = RunJournal.create(journal_path)
        try:
            assert read_lock_owner(journal_path) == os.getpid()
            with pytest.raises(LockHeldError):
                RunJournal.open_resume(journal_path)
        finally:
            journal.close()
        assert read_lock_owner(journal_path) is None
        journal, _ = RunJournal.open_resume(journal_path)
        journal.close()


class TestFsck:
    def test_ok_report(self, journal_path):
        write_journal(
            journal_path, [("a", b"a"), ("b", b"b")],
            commit={"schema_sha256": "deadbeef"},
        )
        report = fsck_journal(journal_path)
        assert report["status"] == "ok"
        assert report["kind"] == "journal"
        assert report["committed"] is True
        assert report["tasks_recorded"] == 2
        assert "2 task summaries durable" in report["detail"]

    def test_not_found(self, journal_path):
        assert fsck_journal(journal_path)["status"] == "not-found"

    def test_corrupt_report_carries_offset(self, journal_path):
        write_journal(journal_path, [("a", b"alpha" * 9), ("b", b"beta")])
        data = bytearray(journal_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        journal_path.write_bytes(bytes(data))
        report = fsck_journal(journal_path)
        assert report["status"] == "corrupt"
        assert report["offset"] >= 0

    def test_torn_tail_reported_not_fatal(self, journal_path):
        write_journal(journal_path, [("a", b"a")])
        with open(journal_path, "ab") as handle:
            handle.write(b"xx")
        report = fsck_journal(journal_path)
        assert report["status"] == "ok"
        assert report["torn"] is True
        assert "torn tail" in report["detail"]

    def test_held_lock_reported(self, journal_path):
        journal = RunJournal.create(journal_path)
        try:
            assert fsck_journal(journal_path)["lock"] == "held"
        finally:
            journal.close()
        assert fsck_journal(journal_path)["lock"] == "none"


class TestWriteFaults:
    """ENOSPC/EIO mid-append must not leave a partial frame visible
    (satellite 4): the reader sees only whole frames, and the original
    errno surfaces.
    """

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EIO])
    def test_failed_append_leaves_whole_frames(
        self, journal_path, monkeypatch, code
    ):
        write_journal(journal_path, [("a", b"alpha")])
        journal, state = RunJournal.open_resume(journal_path)

        def exploding(handle, data):
            # Half the frame reaches the file object, then the device
            # fails — worse than a clean error before any write.
            handle.write(data[:len(data) // 2])
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr("repro.store.journal._write_bytes", exploding)
        with pytest.raises(OSError) as excinfo:
            journal.append_task("b", b"beta" * 20)
        assert excinfo.value.errno == code
        monkeypatch.undo()
        journal.close()
        # The partial frame is a torn tail: dropped, frame 0 intact.
        state = read_journal(journal_path)
        assert state.completed == {"a": b"alpha"}
        # And a resume truncates it and carries on.
        journal, _ = RunJournal.open_resume(journal_path)
        with journal:
            journal.append_task("b", b"beta")
        assert read_journal(journal_path).completed == {
            "a": b"alpha", "b": b"beta",
        }

    def test_failed_create_leaves_no_file(self, journal_path, monkeypatch):
        def exploding(handle, data):
            raise OSError(errno.ENOSPC, "no space")

        monkeypatch.setattr("repro.store.journal._write_bytes", exploding)
        with pytest.raises(OSError):
            RunJournal.create(journal_path)
        assert not journal_path.exists()
        assert read_lock_owner(journal_path) is None
