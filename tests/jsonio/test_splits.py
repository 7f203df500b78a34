"""Unit and property tests for byte-range input splits (repro.jsonio.splits).

The correctness bar is *text-mode equivalence*: reading a file through any
:func:`plan_splits` plan must yield exactly the lines (and physical line
numbers) that :func:`repro.jsonio.ndjson.iter_numbered_lines` produces,
whatever mix of ``\\n`` / ``\\r\\n`` / lone ``\\r`` terminators, blank
lines, multibyte UTF-8 and boundary placements the file contains.
"""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.jsonio import splits
from repro.jsonio.ndjson import BadRecord, iter_numbered_lines
from repro.jsonio.splits import (
    DEFAULT_MIN_SPLIT_BYTES,
    FileSplit,
    SplitLineReader,
    count_lines_before,
    digest_splits,
    plan_splits,
    rebase_bad_records,
    split_content_span,
)


def write_bytes(tmp_path, data: bytes):
    path = tmp_path / "data.ndjson"
    path.write_bytes(data)
    return path


def read_via_splits(path, num_splits: int, min_split_bytes: int = 1):
    """All (absolute_line_number, text) pairs via a split plan, plus the
    per-split readers for count assertions."""
    readers = []
    out = []
    base = 0
    for split in plan_splits(path, num_splits, min_split_bytes):
        reader = SplitLineReader(split)
        for local, text in reader:
            out.append((base + local, text))
        base += reader.line_count
        readers.append(reader)
    return out, readers


def reference_lines(path):
    """Text-mode ground truth: numbered, stripped, non-blank lines."""
    return list(iter_numbered_lines(path))


def physical_line_count(path):
    with open(path, "r", encoding="utf-8") as handle:
        return sum(1 for _ in handle)


class TestPlanSplits:
    def test_covers_file_exactly_and_disjointly(self, tmp_path):
        path = write_bytes(tmp_path, b"x" * 1000)
        splits = plan_splits(path, 7, min_split_bytes=1)
        assert len(splits) == 7
        assert splits[0].offset == 0
        assert splits[-1].end == 1000
        for left, right in zip(splits, splits[1:]):
            assert left.end == right.offset
        assert [s.index for s in splits] == list(range(7))

    def test_sizes_within_one_byte(self, tmp_path):
        path = write_bytes(tmp_path, b"x" * 1003)
        sizes = {s.length for s in plan_splits(path, 4, min_split_bytes=1)}
        assert max(sizes) - min(sizes) <= 1

    def test_empty_file_yields_empty_plan(self, tmp_path):
        path = write_bytes(tmp_path, b"")
        assert plan_splits(path, 4) == []

    def test_min_split_bytes_caps_split_count(self, tmp_path):
        path = write_bytes(tmp_path, b"x" * 100)
        assert len(plan_splits(path, 8, min_split_bytes=30)) == 3
        assert len(plan_splits(path, 8, min_split_bytes=1000)) == 1

    def test_default_min_split_is_one_mebibyte(self, tmp_path):
        path = write_bytes(tmp_path, b"x" * 4096)
        assert DEFAULT_MIN_SPLIT_BYTES == 1 << 20
        assert len(plan_splits(path, 16)) == 1

    def test_validation(self, tmp_path):
        path = write_bytes(tmp_path, b"x")
        with pytest.raises(ValueError):
            plan_splits(path, 0)
        with pytest.raises(ValueError):
            plan_splits(path, 2, min_split_bytes=0)

    @given(
        size=st.integers(min_value=1, max_value=5000),
        num=st.integers(min_value=1, max_value=40),
        floor=st.integers(min_value=1, max_value=200),
    )
    def test_plan_properties(self, tmp_path_factory, size, num, floor):
        path = tmp_path_factory.mktemp("plan") / "f"
        path.write_bytes(b"x" * size)
        splits = plan_splits(path, num, min_split_bytes=floor)
        assert 1 <= len(splits) <= num
        assert splits[0].offset == 0
        assert splits[-1].end == size
        assert sum(s.length for s in splits) == size
        for left, right in zip(splits, splits[1:]):
            assert left.end == right.offset
        if len(splits) > 1:
            assert all(s.length >= floor for s in splits[:-1])


class TestSplitLineReader:
    CASES = [
        b'{"a":1}\n{"b":2}\n',
        b'{"a":1}\r\n{"b":2}\r\n',
        b'{"a":1}\r{"b":2}\r',
        b'{"a":1}\n\n\n{"b":2}\n',
        b'{"a":1}\r\n\r\n{"b":2}',
        b'{"a":1}\n{"b":2}',  # no trailing newline
        '{"k":"ééé"}\n{"k":"日本語"}\n'.encode("utf-8"),
        b"\n\r\n\r",  # only blank lines
        b'{"a":1}',
        b"",
    ]

    @pytest.mark.parametrize("data", CASES)
    @pytest.mark.parametrize("num_splits", [1, 2, 3, 5, 16])
    def test_matches_text_mode_reference(self, tmp_path, data, num_splits):
        path = write_bytes(tmp_path, data)
        got, _ = read_via_splits(path, num_splits)
        assert got == reference_lines(path)

    @pytest.mark.parametrize("data", CASES)
    def test_every_boundary_position(self, tmp_path, data):
        """Two-split plans at *every* possible boundary byte: terminators
        and multibyte sequences straddling the edge must not lose,
        duplicate, or renumber a line."""
        path = write_bytes(tmp_path, data)
        expect = reference_lines(path)
        for cut in range(len(data) + 1):
            splits = [
                FileSplit(str(path), 0, cut, 0),
                FileSplit(str(path), cut, len(data) - cut, 1),
            ]
            got = []
            base = 0
            for split in splits:
                reader = SplitLineReader(split)
                got.extend((base + n, t) for n, t in reader)
                base += reader.line_count
            assert got == expect, f"boundary at byte {cut}"

    def test_line_counts_sum_to_physical_lines(self, tmp_path):
        data = b'{"a":1}\r\n\r\n{"b":2}\rx\n{"c":3}'
        path = write_bytes(tmp_path, data)
        _, readers = read_via_splits(path, 4)
        assert sum(r.line_count for r in readers) == physical_line_count(path)

    def test_bytes_read_covers_the_file(self, tmp_path):
        data = b'{"a":1}\n{"bbbb":2}\n{"c":3}\n'
        path = write_bytes(tmp_path, data)
        _, readers = read_via_splits(path, 3)
        # Boundary probes overlap, but collectively every byte is read.
        assert sum(r.bytes_read for r in readers) >= len(data)

    def test_empty_split_yields_nothing(self, tmp_path):
        path = write_bytes(tmp_path, b'{"a":1}\n')
        assert list(SplitLineReader(FileSplit(str(path), 3, 0, 0))) == []

    @given(
        lines=st.lists(
            st.text(
                alphabet=st.characters(
                    blacklist_categories=("Cs", "Cc"),
                    blacklist_characters="\r\n",
                ),
                max_size=12,
            ),
            max_size=20,
        ),
        terminators=st.lists(
            st.sampled_from(["\n", "\r\n", "\r"]), min_size=20, max_size=20
        ),
        trailing=st.booleans(),
        num_splits=st.integers(min_value=1, max_value=12),
    )
    def test_fuzz_matches_text_mode(
        self, tmp_path_factory, lines, terminators, trailing, num_splits
    ):
        parts = []
        for i, line in enumerate(lines):
            parts.append(line)
            if i < len(lines) - 1 or trailing:
                parts.append(terminators[i])
        data = "".join(parts).encode("utf-8")
        path = tmp_path_factory.mktemp("fuzz") / "f.ndjson"
        path.write_bytes(data)
        got, readers = read_via_splits(path, num_splits)
        assert got == reference_lines(path)
        assert sum(r.line_count for r in readers) == physical_line_count(path)


class TestSplitLineReaderAcrossBlocks(TestSplitLineReader):
    """Every reader case again, with the read block shrunk to a few
    bytes: a block boundary then falls inside nearly every line, so the
    carried partial line, a ``\r`` ending one block before its ``\n``,
    multibyte UTF-8 split over two blocks and lines longer than a block
    all occur (a real file meets them once per 64 KiB)."""

    @pytest.fixture(autouse=True, params=[1, 2, 3, 7],
                    ids=lambda size: f"block{size}")
    def block(self, request, monkeypatch):
        monkeypatch.setattr(splits, "_BLOCK", request.param)
        return request.param


class TestCountLinesBefore:
    def test_matches_prefix_sum_at_every_offset(self, tmp_path):
        data = b'{"a":1}\r\n\r\n{"b":2}\rtail'
        path = write_bytes(tmp_path, data)
        for offset in range(len(data) + 1):
            reader = SplitLineReader(FileSplit(str(path), 0, offset, 0))
            for _ in reader:
                pass
            assert count_lines_before(path, offset) == reader.line_count

    def test_zero_offset(self, tmp_path):
        path = write_bytes(tmp_path, b"x\n")
        assert count_lines_before(path, 0) == 0


class TestRebaseBadRecords:
    BAD = BadRecord(
        "f.ndjson",
        3,
        "unexpected token 'eof' (f.ndjson, line 3, column 11)",
        '{"broken":',
    )

    def test_shifts_line_number_and_error_text(self):
        (out,) = rebase_bad_records([self.BAD], base=40, source="f.ndjson")
        assert out.line_number == 43
        assert out.error == (
            "unexpected token 'eof' (f.ndjson, line 43, column 11)"
        )
        assert (out.path, out.text) == (self.BAD.path, self.BAD.text)

    def test_base_zero_is_identity(self):
        assert rebase_bad_records(
            [self.BAD], base=0, source="f.ndjson"
        ) == (self.BAD,)

    def test_reanchors_to_the_source(self):
        # A cache hit stored by a run over another file names that file;
        # the record and its error text must name this run's source.
        (out,) = rebase_bad_records([self.BAD], base=2, source="g/b.ndjson")
        assert out == BadRecord(
            "g/b.ndjson", 5,
            "unexpected token 'eof' (g/b.ndjson, line 5, column 11)",
            self.BAD.text,
        )

    def test_mismatched_location_left_alone(self):
        # A message whose embedded line number is not the record's local
        # line (e.g. quoted record text) must not be rewritten.
        bad = BadRecord("f", 2, "weird (f, line 9, column 1)", "x")
        (out,) = rebase_bad_records([bad], base=10, source="f")
        assert out.line_number == 12
        assert out.error == "weird (f, line 9, column 1)"

    def test_error_without_location_suffix(self):
        bad = BadRecord("f", 1, "something else entirely", "x")
        (out,) = rebase_bad_records([bad], base=5, source="f")
        assert out.line_number == 6
        assert out.error == "something else entirely"


#: Newline-free pieces stitched together with every terminator below.
PIECES = [
    b'{"a": 1}',
    b"",
    b'{"caf\xc3\xa9": "\xf0\x9f\x98\x80"}',  # multibyte UTF-8
    b"   ",
    b'{"b": [1, 2]}',
    b"",
    b'{"tail": true}',
]


def _corpus(terminator: bytes, final_terminator: bool) -> bytes:
    data = terminator.join(PIECES)
    return data + terminator if final_terminator else data


class TestContentSpan:
    """``split_content_span`` must be the exact dependency closure.

    The cross-run summary cache keys a split by the hash of this span, so
    two properties carry all the correctness weight: the span covers
    every byte the reader consumes (otherwise a stale summary could
    replay after a relevant byte changed), and nothing more than the
    boundary probe (otherwise irrelevant churn would evict good
    entries).
    """

    @pytest.mark.parametrize("terminator", [b"\n", b"\r\n", b"\r"])
    @pytest.mark.parametrize("final_terminator", [True, False])
    def test_span_matches_consumption_at_every_offset(
        self, tmp_path, terminator, final_terminator
    ):
        path = tmp_path / "data.ndjson"
        data = _corpus(terminator, final_terminator)
        path.write_bytes(data)
        size = len(data)
        for offset in range(size):
            for length in (1, 3, size // 2, size - offset):
                if length <= 0 or offset + length > size:
                    continue
                split = FileSplit(str(path), offset, length)
                reader = SplitLineReader(split)
                for _ in reader:
                    pass
                start, stop = split_content_span(data, split)
                # Exactly the consumed range plus the boundary probe.
                assert start == max(0, offset - 1), (offset, length)
                assert stop == offset + reader.bytes_read, (offset, length)

    @pytest.mark.parametrize("terminator", [b"\n", b"\r\n", b"\r"])
    def test_digest_splits_keys_match_span_hashes(self, tmp_path, terminator):
        path = tmp_path / "data.ndjson"
        data = _corpus(terminator, True) * 10
        path.write_bytes(data)
        splits = plan_splits(str(path), 4, min_split_bytes=1)
        digests = digest_splits(str(path), splits)
        assert len(digests) == len(splits)
        for split, digest in zip(splits, digests):
            start, stop = split_content_span(data, split)
            assert digest == hashlib.sha256(data[start:stop]).hexdigest()

    def test_digest_changes_only_for_spanned_bytes(self, tmp_path):
        path = tmp_path / "data.ndjson"
        lines = b"".join(b'{"i": %04d}\n' % i for i in range(64))
        path.write_bytes(lines)
        splits = plan_splits(str(path), 4, min_split_bytes=1, stable=True)
        assert len(splits) == 4
        before = digest_splits(str(path), splits)
        # Flip one byte strictly inside split 2 (away from both edges).
        mutated = bytearray(lines)
        target = splits[2].offset + splits[2].length // 2
        mutated[target] = ord("9") if mutated[target] != ord("9") else ord("8")
        path.write_bytes(bytes(mutated))
        after = digest_splits(str(path), splits)
        changed = [i for i in range(4) if before[i] != after[i]]
        assert changed == [2]

    def test_stable_planning_keeps_prefix_boundaries_on_append(
        self, tmp_path
    ):
        path = tmp_path / "data.ndjson"
        lines = b"".join(b'{"i": %04d}\n' % i for i in range(600))
        path.write_bytes(lines)
        before = plan_splits(str(path), 4, min_split_bytes=1024, stable=True)
        path.write_bytes(lines + b'{"i": 9999}\n' * 6)
        after = plan_splits(str(path), 4, min_split_bytes=1024, stable=True)
        # Every fully-covered prefix split keeps its exact boundaries
        # (only the tail split grows), so its cache digest survives.
        for a, b in zip(before[:-1], after):
            assert (a.offset, a.length) == (b.offset, b.length)
