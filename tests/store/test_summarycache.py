"""Unit tests for the content-addressed summary cache store.

The cache's contract is *best-effort acceleration, never wrong results*:
entries round-trip byte-exactly, anything malformed (truncated,
bit-flipped, wrong magic) reads as a miss, storage trouble degrades to
uncached behaviour, and the store never grows past its size bound.
"""

import os
import pickle

import pytest

from repro.core.printer import print_type
from repro.engine.context import Context
from repro.inference.kernel import decode_summary
from repro.inference.pipeline import infer_ndjson_file
from repro.store.locks import FileLock
from repro.store.summarycache import (
    CACHE_MARKER_NAME,
    SummaryCache,
    _frame,
    _unframe,
    config_signature,
    fsck_summary_cache,
)
from tests.conftest import make_corpus, write_corpus

DIGEST = "ab" + "cd" * 31  # 64 hex chars, like a real sha-256
OTHER = "ef" + "01" * 31
SIG = "0123456789abcdef"


class TestRoundTrip:
    def test_put_get_roundtrip(self, tmp_path):
        cache = SummaryCache(tmp_path / "cache")
        assert cache.get(DIGEST, SIG) is None
        assert cache.put(DIGEST, SIG, b"payload-bytes") is True
        assert cache.get(DIGEST, SIG) == b"payload-bytes"

    def test_put_existing_is_a_noop(self, tmp_path):
        cache = SummaryCache(tmp_path / "cache")
        cache.put(DIGEST, SIG, b"first")
        assert cache.put(DIGEST, SIG, b"second") is False
        # Content addressing: same key means same bytes, so the first
        # write wins and nothing is overwritten.
        assert cache.get(DIGEST, SIG) == b"first"

    def test_keys_are_independent(self, tmp_path):
        cache = SummaryCache(tmp_path / "cache")
        cache.put(DIGEST, SIG, b"a")
        cache.put(OTHER, SIG, b"b")
        cache.put(DIGEST, "f" * 16, b"c")
        assert cache.get(DIGEST, SIG) == b"a"
        assert cache.get(OTHER, SIG) == b"b"
        assert cache.get(DIGEST, "f" * 16) == b"c"

    def test_marker_written_on_first_put(self, tmp_path):
        root = tmp_path / "cache"
        cache = SummaryCache(root)
        cache.put(DIGEST, SIG, b"x")
        assert (root / CACHE_MARKER_NAME).is_file()

    def test_get_on_missing_directory_is_a_miss(self, tmp_path):
        cache = SummaryCache(tmp_path / "never-created")
        assert cache.get(DIGEST, SIG) is None
        assert not (tmp_path / "never-created").exists()


class TestCorruption:
    def _entry(self, cache):
        return cache.entry_path(DIGEST, SIG)

    def test_bit_flip_is_a_miss_and_entry_dropped(self, tmp_path):
        cache = SummaryCache(tmp_path / "cache")
        cache.put(DIGEST, SIG, b"payload-bytes")
        path = self._entry(cache)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0x40
        path.write_bytes(bytes(blob))
        assert cache.get(DIGEST, SIG) is None
        assert not path.exists()  # corrupt entries stop costing reads

    def test_truncation_is_a_miss(self, tmp_path):
        cache = SummaryCache(tmp_path / "cache")
        cache.put(DIGEST, SIG, b"payload-bytes")
        path = self._entry(cache)
        path.write_bytes(path.read_bytes()[:-4])
        assert cache.get(DIGEST, SIG) is None

    def test_short_file_is_a_miss(self, tmp_path):
        cache = SummaryCache(tmp_path / "cache")
        cache.put(DIGEST, SIG, b"payload-bytes")
        self._entry(cache).write_bytes(b"RS")
        assert cache.get(DIGEST, SIG) is None

    def test_wrong_magic_is_a_miss(self, tmp_path):
        cache = SummaryCache(tmp_path / "cache")
        cache.put(DIGEST, SIG, b"payload-bytes")
        path = self._entry(cache)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert cache.get(DIGEST, SIG) is None

    def test_recovery_after_corruption(self, tmp_path):
        cache = SummaryCache(tmp_path / "cache")
        cache.put(DIGEST, SIG, b"payload-bytes")
        self._entry(cache).write_bytes(b"garbage")
        assert cache.get(DIGEST, SIG) is None
        assert cache.put(DIGEST, SIG, b"payload-bytes") is True
        assert cache.get(DIGEST, SIG) == b"payload-bytes"


class TestUndecodableHits:
    """An intact frame whose payload does not decode is a miss too: the
    run recomputes that split, stores it again, and its output does not
    change."""

    @pytest.mark.parametrize("damage", ["foreign-version", "truncated"])
    def test_entry_is_recomputed_and_restored(self, tmp_path, damage):
        data = tmp_path / "data.ndjson"
        write_corpus(data, make_corpus(300, seed=5))
        cache_dir = tmp_path / "cache"

        def run():
            with Context(parallelism=2, backend="thread") as ctx:
                result = infer_ndjson_file(
                    data, context=ctx, num_partitions=4,
                    min_split_bytes=1, summary_cache=cache_dir,
                )
            return result, ctx.scheduler.stats

        cold, _ = run()
        splits = sorted(cache_dir.glob("objects/*/*.sum"))
        victim = splits[0]
        payload = _unframe(victim.read_bytes())
        if damage == "foreign-version":
            payload = pickle.dumps((99,) + pickle.loads(payload)[1:])
        else:
            payload = payload[:len(payload) // 2]
        victim.write_bytes(_frame(payload))

        warm, stats = run()
        assert print_type(warm.schema) == print_type(cold.schema)
        assert (warm.record_count, warm.distinct_type_count) == (
            cold.record_count, cold.distinct_type_count,
        )
        assert (stats.cache_hits, stats.cache_misses) == (len(splits) - 1, 1)
        assert stats.cache_stores == 1
        restored = decode_summary(_unframe(victim.read_bytes()))
        assert restored.record_count > 0


class TestEviction:
    def test_store_stays_within_max_bytes(self, tmp_path):
        cache = SummaryCache(tmp_path / "cache", max_bytes=400)
        for i in range(10):
            cache.put(f"{i:02d}" + "aa" * 31, SIG, b"x" * 64)
        assert cache.size_bytes() <= 400
        assert 0 < cache.entry_count() < 10

    def test_oldest_entries_evict_first(self, tmp_path):
        cache = SummaryCache(tmp_path / "cache", max_bytes=1 << 20)
        old = "00" + "aa" * 31
        new = "11" + "bb" * 31
        cache.put(old, SIG, b"x" * 64)
        cache.put(new, SIG, b"y" * 64)
        # Age the first entry far into the past, then force eviction by
        # shrinking the budget to exactly two entries' worth.
        old_path = cache.entry_path(old, SIG)
        entry_size = old_path.stat().st_size
        os.utime(old_path, (1, 1))
        cache.max_bytes = 2 * entry_size
        cache.put("22" + "cc" * 31, SIG, b"z" * 64)
        assert cache.get(old, SIG) is None
        assert cache.get(new, SIG) == b"y" * 64

    def test_rejects_nonpositive_budget(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            SummaryCache(tmp_path / "cache", max_bytes=0)


class TestLocking:
    def test_held_lock_defers_eviction_not_stores(self, tmp_path):
        root = tmp_path / "cache"
        cache = SummaryCache(root, max_bytes=100, lock_timeout_s=0.0)
        cache.put(DIGEST, SIG, b"x" * 64)
        with FileLock(root):
            # Over budget and the lock is held elsewhere: the store
            # itself must still land (best-effort), eviction waits.
            assert cache.put(OTHER, SIG, b"y" * 64) is True
        assert cache.get(OTHER, SIG) == b"y" * 64


class TestConfigSignature:
    def test_every_knob_changes_the_signature(self):
        base = dict(permissive=False)
        signatures = {config_signature(**base)}
        for knob, value in [
            ("permissive", True),
            ("stats", "basic"),
            ("stats", "sketches"),
        ]:
            signatures.add(config_signature(**{**base, knob: value}))
        assert len(signatures) == 4

    def test_signature_is_deterministic(self):
        kwargs = dict(permissive=True)
        assert config_signature(**kwargs) == config_signature(**kwargs)

    @pytest.mark.parametrize("stats,signature", [
        ("off", "2a2f1f24cdeceb70"),
        ("sketches", "bced18becaa11cf0"),
    ])
    def test_signatures_of_the_two_lane_builds(self, stats, signature):
        """The signatures of a stats-off and a stats run, which builds
        with two parse lanes ran on different lanes.  They sign only the
        cache and wire formats, ``permissive`` and ``stats``: a change
        here makes every cache entry miss once."""
        assert config_signature(permissive=False, stats=stats) == signature


class TestFsck:
    def test_missing_directory(self, tmp_path):
        report = fsck_summary_cache(tmp_path / "nope")
        assert report["kind"] == "summary-cache"
        assert report["status"] == "not-found"

    def test_directory_without_marker(self, tmp_path):
        (tmp_path / "plain").mkdir()
        assert fsck_summary_cache(tmp_path / "plain")["status"] == "not-found"

    def test_healthy_cache(self, tmp_path):
        cache = SummaryCache(tmp_path / "cache")
        cache.put(DIGEST, SIG, b"abc")
        cache.put(OTHER, SIG, b"defg")
        report = fsck_summary_cache(tmp_path / "cache")
        assert report["status"] == "ok"
        assert report["entries"] == 2
        assert report["corrupt_entries"] == []
        assert report["lock"] == "none"

    def test_corrupt_entry_reported(self, tmp_path):
        cache = SummaryCache(tmp_path / "cache")
        cache.put(DIGEST, SIG, b"abc")
        path = cache.entry_path(DIGEST, SIG)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        report = fsck_summary_cache(tmp_path / "cache")
        assert report["status"] == "corrupt"
        assert report["corrupt_entries"] == [str(path)]

    def test_tmp_debris_reported_as_orphans(self, tmp_path):
        cache = SummaryCache(tmp_path / "cache")
        cache.put(DIGEST, SIG, b"abc")
        debris = cache.entry_path(DIGEST, SIG).parent / "crashed.sum.tmp"
        debris.write_bytes(b"partial")
        report = fsck_summary_cache(tmp_path / "cache")
        assert report["status"] == "ok"
        assert report["orphans"] == [str(debris)]

    def test_held_lock_reported(self, tmp_path):
        root = tmp_path / "cache"
        cache = SummaryCache(root)
        cache.put(DIGEST, SIG, b"abc")
        with FileLock(root):
            assert fsck_summary_cache(root)["lock"] == "held"
        assert fsck_summary_cache(root)["lock"] == "none"
