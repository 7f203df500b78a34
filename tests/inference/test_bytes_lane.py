"""The bytes lane must be indistinguishable from strict — adversarially.

ISSUE 8's contract: ``parse_lane="bytes"`` (mmap block scan, batched
zero-decode typing, duplicate-line type cache) may only ever be *faster*
than the other lanes, never different.  These tests drive the lane
through the encodings and poisons most likely to expose a divergence —
multibyte characters straddling scan-chunk boundaries, lone surrogate
escapes, BOMs, non-ASCII whitespace, huge integers, non-standard
constants, duplicate keys, malformed records — and assert the schema
(sha-256 of its printed form), the record counts and every quarantine
entry (line numbers included) are identical to a strict run, across both
split modes and both backends.  The duplicate-line cache gets its own
soundness checks: bounded growth, insert-only-after-success, and
generation-tagged invalidation alongside the warm worker state.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.printer import print_type
from repro.core.types import NUM, STR
from repro.engine import Context
from repro.inference.kernel import (
    PartitionAccumulator,
    accumulate_ndjson_batch,
    accumulate_ndjson_partition,
    decode_summary,
    encode_summary,
    merge_summary_group,
    warm_state_for,
)
from repro.inference.pipeline import infer_ndjson_file
from repro.inference.typestream import (
    BytesBatchTyper,
    FastLaneMiss,
    LineTypeCache,
    resolve_lane,
)
from repro.jsonio.splits import FileSplit, plan_splits
from repro.store.journal import JournalMismatchError

# Each corpus is raw file bytes: the adversarial cases live at the byte
# level (BOMs, encodings, terminators), below what text fixtures can say.
CORPORA = {
    "plain": b'{"a": 1}\n{"b": [1, "x", true, null]}\n{"a": 1}\n',
    "multibyte": (
        '{"caf\u00e9": "\U0001F600"}\n{"\u4e2d\u6587": "\u00e9"}\n' * 40
    ).encode("utf-8"),
    "lone_surrogate": b'{"s": "\\ud800"}\n{"a": 1}\n{"s": "\\ud800"}\n',
    "paired_surrogate": b'{"emoji": "\\ud83d\\ude00"}\n{"a": 1}\n',
    "bom_leading": b'\xef\xbb\xbf{"a": 1}\n{"b": 2}\n',
    "bom_midline": b'{"a": 1}\n\xef\xbb\xbf{"b": 2}\n',
    "poison": (
        b'{"a": 1}\n{broken\n{"dup": 1, "dup": 2}\n'
        b'{"a": 1}\nInfinity\nNaN\n[1, 2,]\n'
    ),
    "whitespace": (
        b'  {"padded": 1}  \n\n   \n\t\n{"a": 1}\n'
        b'\xc2\xa0\n'            # NBSP-only line: Unicode blank, not ASCII
        b'\x1c{"a": 1}\n'        # information separator: str.strip() eats it
    ),
    "crlf": b'{"a": 1}\r\n{"b": 2}\r\n{broken\r\n{"a": 1}\r\n',
    "lone_cr": b'{"a": 1}\r{"b": 2}\r',
    "unterminated": b'{"a": 1}\n{"b": 2}',
    "record_smuggle": b'{"a": 1}, {"b": 2}\n{"a": 1}\n',
    "empty": b"",
    "blank_only": b"\n\n\n",
}


def _signature(run):
    schema_sha = hashlib.sha256(print_type(run.schema).encode()).hexdigest()
    return (
        schema_sha,
        run.record_count,
        run.distinct_type_count,
        tuple(
            (b.path, b.line_number, b.error, b.text)
            for b in run.bad_records
        ),
    )


def _infer(path, lane, split_mode, backend=None, parallelism=None):
    ctx = None
    try:
        if backend is not None:
            ctx = Context(parallelism=parallelism or 2, backend=backend)
        return infer_ndjson_file(
            path, context=ctx, permissive=True, parse_lane=lane,
            split_mode=split_mode,
            num_partitions=3 if ctx is not None else None,
        )
    finally:
        if ctx is not None:
            ctx.stop()


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("name", sorted(CORPORA))
    @pytest.mark.parametrize("split_mode", ["lines", "bytes"])
    def test_bytes_lane_matches_strict(self, tmp_path, name, split_mode):
        path = tmp_path / f"{name}.ndjson"
        path.write_bytes(CORPORA[name])
        strict = _infer(str(path), "strict", split_mode)
        fast = _infer(str(path), "bytes", split_mode)
        assert _signature(fast) == _signature(strict), name

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_poison_matches_sequential_strict(
        self, tmp_path, backend
    ):
        path = tmp_path / "poison.ndjson"
        path.write_bytes(CORPORA["poison"] * 30)
        strict = _infer(str(path), "strict", "bytes")
        for split_mode in ("lines", "bytes"):
            fast = _infer(str(path), "bytes", split_mode, backend=backend)
            assert _signature(fast) == _signature(strict), split_mode

    def test_multibyte_straddling_batch_boundaries(self, tmp_path):
        # Tiny scanner batches force multibyte sequences and record
        # boundaries across batch seams; the joined-batch decode must
        # still be byte-exact.
        path = tmp_path / "mb.ndjson"
        path.write_bytes(CORPORA["multibyte"])
        size = path.stat().st_size
        acc = PartitionAccumulator()
        typer = BytesBatchTyper(acc)
        from repro.jsonio.blockscan import SplitBlockScanner

        observed = 0
        for _, batch in SplitBlockScanner(
            FileSplit(str(path), 0, size), batch_bytes=13
        ):
            for t in typer.type_lines(batch):
                if t is not None:
                    acc.observe(t)
                    observed += 1
        strict = _infer(str(path), "strict", "bytes")
        assert observed == strict.record_count
        assert print_type(acc.schema) == print_type(strict.schema)

    def test_huge_int_matches_the_fast_lane(self, tmp_path):
        # CPython's int-conversion digit limit splits the lanes on
        # >4300-digit integers: the strict tokenizer calls ``int()`` and
        # raises a bare ValueError, while the hook lanes never
        # materialise the number at all (``parse_int`` maps the literal
        # straight to Num) — a divergence that predates this lane.  The
        # bytes lane must side with the established fast lane: its
        # batched decode hits the same ValueError, funnels it through
        # FastLaneMiss, and the per-line hook fallback accepts.
        path = tmp_path / "bigint.ndjson"
        path.write_bytes(
            ("{\"n\": " + "9" * 5000 + "}\n").encode() + b'{"a": 1}\n'
        )
        for split_mode in ("lines", "bytes"):
            fast = _infer(str(path), "fast", split_mode)
            byte = _infer(str(path), "bytes", split_mode)
            assert _signature(byte) == _signature(fast)
            with pytest.raises(ValueError):
                _infer(str(path), "strict", split_mode)

    def test_strict_mode_error_identical(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_bytes(b'{"a": 1}\n' * 100 + b"{broken\n")
        errors = {}
        for lane in ("strict", "bytes"):
            for split_mode in ("lines", "bytes"):
                with pytest.raises(Exception) as info:
                    infer_ndjson_file(
                        str(path), parse_lane=lane, split_mode=split_mode
                    )
                errors[(lane, split_mode)] = str(info.value)
        assert len(set(errors.values())) == 1, errors


class TestLineTypeCache:
    def test_probe_insert_and_counters(self, tmp_path):
        path = tmp_path / "dups.ndjson"
        path.write_bytes(b'{"a": 1}\n{"b": "x"}\n' * 500)
        size = path.stat().st_size
        cold = accumulate_ndjson_batch(
            [FileSplit(str(path), 0, size)], permissive=True,
            parse_lane="bytes", warm_generation=101,
        )
        warm = accumulate_ndjson_batch(
            [FileSplit(str(path), 0, size)], permissive=True,
            parse_lane="bytes", warm_generation=101,
        )
        assert cold.dedup_hits == 0 and cold.dedup_misses == 1000
        assert warm.dedup_hits == 1000 and warm.dedup_misses == 0
        assert warm.dedup_bytes_avoided == size - 1000  # terminators
        assert (cold.schema, cold.record_count) == (
            warm.schema, warm.record_count
        )
        assert len(warm_state_for(101).line_cache) == 2

    def test_generation_invalidation_drops_cache(self, tmp_path):
        path = tmp_path / "x.ndjson"
        path.write_bytes(b'{"a": 1}\n' * 10)
        size = path.stat().st_size
        accumulate_ndjson_batch(
            [FileSplit(str(path), 0, size)], parse_lane="bytes",
            warm_generation=201,
        )
        assert len(warm_state_for(201).line_cache) == 1
        fresh = accumulate_ndjson_batch(
            [FileSplit(str(path), 0, size)], parse_lane="bytes",
            warm_generation=202,
        )
        assert fresh.dedup_hits == 0 and fresh.dedup_misses == 10

    def test_bounded_clear_on_full(self):
        cache = LineTypeCache(cap_entries=3)
        for i in range(10):
            cache.insert(b"line%d" % i, NUM)
        assert len(cache) <= 3
        cache = LineTypeCache(cap_bytes=10)
        cache.insert(b"aaaaaaaaaa", NUM)  # exactly at the byte cap
        cache.insert(b"b", STR)           # full: clears, then holds b
        assert len(cache) == 1 and cache.data[b"b"] is STR

    def test_rejects_nonpositive_caps(self):
        with pytest.raises(ValueError):
            LineTypeCache(cap_entries=0)
        with pytest.raises(ValueError):
            LineTypeCache(cap_bytes=0)

    def test_failed_batch_commits_nothing(self):
        acc = PartitionAccumulator()
        cache = LineTypeCache()
        typer = BytesBatchTyper(acc, line_cache=cache)
        with pytest.raises(FastLaneMiss):
            typer.type_lines([b'{"good": 1}', b"{broken"])
        assert len(cache) == 0
        assert typer.hits == 0 and typer.misses == 0


class TestWireFormatV2:
    def test_roundtrip_preserves_dedup_counters(self, tmp_path):
        path = tmp_path / "x.ndjson"
        path.write_bytes(b'{"a": 1}\n' * 5)
        summary = accumulate_ndjson_batch(
            [FileSplit(str(path), 0, path.stat().st_size)],
            parse_lane="bytes", warm_generation=301,
        )
        assert summary.dedup_misses == 5
        decoded = decode_summary(encode_summary(summary))
        assert decoded == summary
        assert decoded.dedup_hits == summary.dedup_hits
        assert decoded.dedup_misses == summary.dedup_misses
        assert decoded.dedup_bytes_avoided == summary.dedup_bytes_avoided

    def test_merge_sums_dedup_counters(self, tmp_path):
        path = tmp_path / "x.ndjson"
        path.write_bytes(b'{"a": 1}\n' * 8)
        size = path.stat().st_size
        parts = [
            accumulate_ndjson_batch(
                [split], parse_lane="bytes", warm_generation=302
            )
            for split in plan_splits(str(path), 2, min_split_bytes=1)
        ]
        merged = merge_summary_group(parts)
        assert merged.dedup_hits == sum(p.dedup_hits for p in parts)
        assert merged.dedup_misses == sum(p.dedup_misses for p in parts)
        assert merged.dedup_bytes_avoided == sum(
            p.dedup_bytes_avoided for p in parts
        )


class TestJournalAndResume:
    def test_resume_replays_to_identical_schema(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_bytes(b'{"a": 1}\n{"b": [true, null]}\n' * 200)
        journal = tmp_path / "run.journal"
        first = infer_ndjson_file(
            str(path), parse_lane="bytes", split_mode="bytes",
            journal_path=str(journal),
        )
        resumed = infer_ndjson_file(
            str(path), parse_lane="bytes", split_mode="bytes",
            journal_path=str(journal), resume=True,
        )
        assert print_type(resumed.schema) == print_type(first.schema)
        assert resumed.record_count == first.record_count

    def test_journal_binds_parse_lane(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_bytes(b'{"a": 1}\n' * 50)
        journal = tmp_path / "run.journal"
        infer_ndjson_file(
            str(path), parse_lane="bytes", split_mode="bytes",
            journal_path=str(journal),
        )
        with pytest.raises(JournalMismatchError):
            infer_ndjson_file(
                str(path), parse_lane="fast", split_mode="bytes",
                journal_path=str(journal), resume=True,
            )


class TestLaneResolution:
    def test_bytes_is_opt_in(self):
        assert resolve_lane("bytes") == "bytes"
        assert resolve_lane("auto") != "bytes"
        assert resolve_lane("fast") != "bytes"

    def test_smuggled_batch_separators_rejected(self):
        # A line that is two JSON documents joined by a comma would decode
        # to extra array elements in the joined batch; the count check
        # must hand the batch to per-line arbitration, never accept it.
        acc = PartitionAccumulator()
        typer = BytesBatchTyper(acc)
        with pytest.raises(FastLaneMiss):
            typer.type_lines([b'{"a": 1}, {"b": 2}'])
        with pytest.raises(FastLaneMiss):
            typer.type_lines([b"1, 2, 3"])

    def test_dedup_telemetry_reaches_scheduler_stats(self, tmp_path):
        path = tmp_path / "x.ndjson"
        path.write_bytes(b'{"a": 1}\n' * 100)
        ctx = Context(parallelism=1, backend="thread")
        try:
            infer_ndjson_file(
                str(path), context=ctx, parse_lane="bytes",
                split_mode="bytes",
            )
            infer_ndjson_file(
                str(path), context=ctx, parse_lane="bytes",
                split_mode="bytes",
            )
            stats = ctx.scheduler.stats
            assert stats.dedup_line_hits >= 100
            assert stats.dedup_line_misses >= 1
            assert stats.dedup_bytes_avoided > 0
        finally:
            ctx.stop()
