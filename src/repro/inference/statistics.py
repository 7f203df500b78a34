"""Mergeable per-path statistics that ride the partition-summary monoid.

The paper's fusion algebra works because partition summaries merge
commutatively and associatively (Theorems 5.4-5.5).  JSONoid (Mior,
2023) observes that the same monoid structure can carry rich per-node
statistics — presence counts, value ranges, distinct-value sketches —
as long as every statistic is itself a commutative monoid under
``merge``.  This module supplies that layer:

- :class:`KindCounter` — per-path counts of each JSON kind (presence /
  absence falls out of comparing a child path's total against the
  parent record count).
- :class:`NumericRange` — numeric min/max.  Deliberately *no* sum or
  mean: float addition is not associative, and a non-associative
  statistic would break split-invariance.  Totals are kept only for
  integer-valued quantities (lengths, sizes), where addition is exact.
- :class:`RangeStat` — count/min/max/total over non-negative integers
  (string lengths, array lengths, type sizes).
- :class:`HyperLogLog` — pure-python distinct-value sketch
  (register-wise ``max`` merge).
- :class:`BloomFilter` — membership sketch for low-cardinality values
  (bitwise ``or`` merge, no false negatives).
- :class:`PathStats` / :class:`StatsBundle` — the per-path composite
  and the per-summary bundle that the kernel threads through
  ``PartitionSummary``, the wire format, and checkpoints.

Every statistic implements the :class:`MergeableStatistic` protocol
(``update``/``merge``/``to_wire``/``from_wire``), ``merge`` never
mutates its operands, and the identity element is a freshly
constructed (empty) instance.  ``StatsBundle.to_bytes`` is canonical
(sorted keys, fixed separators) so persisted statistics are
byte-deterministic under any partitioning of the same records.

Determinism notes baked into the encodings:

- numeric bounds are normalised to ``float`` where exact (``-0.0``
  collapses to ``0.0``) so that ``min``/``max`` ties between ``0``,
  ``0.0`` and ``-0.0`` cannot leak partition order into the bytes;
- ints too large for ``float`` are kept exact as ints;
- NaN never updates a range (JSON cannot produce one; in-memory
  callers passing NaN get a count but no bound).
"""

from __future__ import annotations

import base64
import json
import math
from hashlib import blake2b
from typing import Any, Iterable, Protocol, runtime_checkable

from repro.core.kinds import Kind

__all__ = [
    "STATS_MODES",
    "MergeableStatistic",
    "KindCounter",
    "NumericRange",
    "RangeStat",
    "HyperLogLog",
    "BloomFilter",
    "ValueSketches",
    "PathStats",
    "StatsBundle",
    "resolve_stats_mode",
    "merge_stats",
    "stats_if_complete",
]

#: Recognised values for the ``stats`` mode switch.  ``off`` keeps the
#: hot path statistics-free, ``basic`` collects counters and ranges,
#: ``sketches`` adds the HyperLogLog + Bloom value sketches.
STATS_MODES = ("off", "basic", "sketches")

#: Version tag carried inside ``StatsBundle.to_wire`` tuples.
STATS_WIRE_VERSION = 1

#: Version tag carried inside ``StatsBundle.to_bytes`` documents.
STATS_BYTES_VERSION = 1


def resolve_stats_mode(mode: str) -> str:
    """Validate a ``stats`` mode string and return it.

    Raises ``ValueError`` for anything outside :data:`STATS_MODES`.
    """
    if mode not in STATS_MODES:
        raise ValueError(
            f"unknown stats mode {mode!r} (expected one of {', '.join(STATS_MODES)})"
        )
    return mode


@runtime_checkable
class MergeableStatistic(Protocol):
    """A statistic that forms a commutative monoid under ``merge``.

    ``update`` folds one observation in-place; ``merge`` combines two
    instances into a *new* one without mutating either operand; a
    freshly constructed instance is the identity element.  ``to_wire``
    must be a pure function of the observed multiset of values — never
    of observation or merge order — so that any partitioning of the
    same records serialises identically.
    """

    def update(self, value: Any) -> None: ...

    def merge(self, other: "MergeableStatistic") -> "MergeableStatistic": ...

    def to_wire(self) -> Any: ...


# ---------------------------------------------------------------------------
# value canonicalisation + hashing


def _value_key(value: Any) -> bytes:
    """Type-tagged canonical bytes for a scalar JSON value.

    Equal JSON values must map to equal keys regardless of which
    partition observed them, so sketches agree under any split.
    Numbers compare across int/float in JSON (``1 == 1.0``), so
    integral floats in the exact range collapse to the int encoding.
    """
    if value is None:
        return b"z"
    if value is True:
        return b"t"
    if value is False:
        return b"f"
    if isinstance(value, str):
        return b"s" + value.encode("utf-8", "surrogatepass")
    if isinstance(value, int):
        return b"i" + str(value).encode("ascii")
    if isinstance(value, float):
        if value.is_integer() and abs(value) <= 2**53:
            return b"i" + str(int(value)).encode("ascii")
        return b"n" + repr(value).encode("ascii")
    raise TypeError(f"not a scalar JSON value: {type(value).__name__}")


def _hash64(key: bytes) -> int:
    """Deterministic 64-bit hash (stable across processes and runs)."""
    return int.from_bytes(blake2b(key, digest_size=8).digest(), "big")


def _canonical_bound(value: Any) -> Any:
    """Normalise a numeric bound for deterministic min/max storage.

    Returns a float when the value is exactly representable (with
    ``-0.0`` collapsed to ``0.0``), the original int when it is too
    large for a float, and ``None`` for NaN (excluded from ranges).
    """
    if isinstance(value, float) and value != value:  # NaN
        return None
    try:
        f = float(value)
    except OverflowError:
        return value  # huge int: keep exact
    if isinstance(value, int) and f != value:
        return value  # float would round: keep exact
    if f == 0.0:
        return 0.0  # collapse -0.0
    return f


def _bound_min(a: Any, b: Any) -> Any:
    # ``min`` keeps the first operand on ties; both operands are
    # canonical so ties are identical objects-by-value and order is moot.
    return a if b is None else b if a is None else min(a, b)


def _bound_max(a: Any, b: Any) -> Any:
    return a if b is None else b if a is None else max(a, b)


# ---------------------------------------------------------------------------
# counters and ranges


class KindCounter:
    """Counts observations of each JSON kind at one path."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def update(self, value: Kind) -> None:
        self.add(value.name, 1)

    def add(self, name: str, times: int) -> None:
        """Count ``times`` observations of the kind called ``name``."""
        self.counts[name] = self.counts.get(name, 0) + times

    def get(self, kind: Kind) -> int:
        return self.counts.get(kind.name, 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def merge(self, other: "KindCounter") -> "KindCounter":
        out = KindCounter()
        out.counts = dict(self.counts)
        for name, n in other.counts.items():
            out.counts[name] = out.counts.get(name, 0) + n
        return out

    def copy(self) -> "KindCounter":
        out = KindCounter()
        out.counts = dict(self.counts)
        return out

    def to_wire(self) -> Any:
        return tuple(sorted(self.counts.items()))

    @classmethod
    def from_wire(cls, wire: Any) -> "KindCounter":
        out = cls()
        out.counts = {str(name): int(n) for name, n in wire}
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KindCounter) and self.counts == other.counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KindCounter({self.counts!r})"


class NumericRange:
    """Min/max over numeric values.

    No sum or mean: float addition is not associative, so a float total
    would make the merge order observable and break split-invariance.
    """

    __slots__ = ("count", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.minimum: Any = None
        self.maximum: Any = None

    def update(self, value: Any) -> None:
        self.add(value, 1)

    def add(self, value: Any, times: int) -> None:
        """Fold ``times`` observations of one value."""
        self.count += times
        bound = _canonical_bound(value)
        if bound is None:
            return
        self.minimum = _bound_min(self.minimum, bound)
        self.maximum = _bound_max(self.maximum, bound)

    def merge(self, other: "NumericRange") -> "NumericRange":
        out = NumericRange()
        out.count = self.count + other.count
        out.minimum = _bound_min(self.minimum, other.minimum)
        out.maximum = _bound_max(self.maximum, other.maximum)
        return out

    def copy(self) -> "NumericRange":
        out = NumericRange()
        out.count = self.count
        out.minimum = self.minimum
        out.maximum = self.maximum
        return out

    def to_wire(self) -> Any:
        return (self.count, self.minimum, self.maximum)

    @classmethod
    def from_wire(cls, wire: Any) -> "NumericRange":
        out = cls()
        out.count, out.minimum, out.maximum = wire
        out.count = int(out.count)
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NumericRange)
            and self.count == other.count
            and self.minimum == other.minimum
            and self.maximum == other.maximum
            # 0 == 0.0 but their JSON spellings differ; require type
            # agreement so equality implies byte equality.
            and type(self.minimum) is type(other.minimum)
            and type(self.maximum) is type(other.maximum)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NumericRange(count={self.count}, min={self.minimum}, max={self.maximum})"


class RangeStat:
    """count/min/max/total over non-negative integers.

    Used for string lengths, array lengths and type sizes, where the
    total is an exact int sum and the mean (``total / count``) is a
    derived value computed only at presentation time.
    """

    __slots__ = ("count", "minimum", "maximum", "total")

    def __init__(self) -> None:
        self.count = 0
        self.minimum = 0
        self.maximum = 0
        self.total = 0

    def update(self, value: int) -> None:
        self.add(value, 1)

    def add(self, value: int, times: int) -> None:
        """Fold ``times`` observations of one value."""
        if self.count == 0:
            self.minimum = value
            self.maximum = value
        else:
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value
        self.count += times
        self.total += value * times

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "RangeStat") -> "RangeStat":
        if not other.count:
            return self.copy()
        if not self.count:
            return other.copy()
        out = RangeStat()
        out.count = self.count + other.count
        out.minimum = min(self.minimum, other.minimum)
        out.maximum = max(self.maximum, other.maximum)
        out.total = self.total + other.total
        return out

    def copy(self) -> "RangeStat":
        out = RangeStat()
        out.count = self.count
        out.minimum = self.minimum
        out.maximum = self.maximum
        out.total = self.total
        return out

    def to_wire(self) -> Any:
        return (self.count, self.minimum, self.maximum, self.total)

    @classmethod
    def from_wire(cls, wire: Any) -> "RangeStat":
        out = cls()
        out.count, out.minimum, out.maximum, out.total = (int(v) for v in wire)
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RangeStat)
            and self.count == other.count
            and self.minimum == other.minimum
            and self.maximum == other.maximum
            and self.total == other.total
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RangeStat(count={self.count}, min={self.minimum}, "
            f"max={self.maximum}, total={self.total})"
        )


# ---------------------------------------------------------------------------
# sketches


#: HyperLogLog precision: m = 2**p registers.  p=12 gives a typical
#: relative error of 1.04 / sqrt(4096) ≈ 1.6%, comfortably inside the
#: 5% bound the accuracy tests assert.
HLL_PRECISION = 12


class HyperLogLog:
    """Pure-python HyperLogLog distinct-value sketch.

    Flajolet et al. 2007 with the small-range linear-counting
    correction.  The hash is a keyed-nothing blake2b, so estimates are
    identical across processes, platforms and runs; merge is a
    register-wise ``max``, which is commutative, associative and
    idempotent.
    """

    __slots__ = ("p", "registers")

    def __init__(self, p: int = HLL_PRECISION) -> None:
        self.p = p
        self.registers = bytearray(1 << p)

    def update(self, value: Any) -> None:
        self.add_hash(_hash64(_value_key(value)))

    def add_hash(self, h: int) -> None:
        idx = h >> (64 - self.p)
        tail = h & ((1 << (64 - self.p)) - 1)
        rank = (64 - self.p) - tail.bit_length() + 1
        if rank > self.registers[idx]:
            self.registers[idx] = rank

    def estimate(self) -> float:
        m = 1 << self.p
        alpha = 0.7213 / (1.0 + 1.079 / m)
        total = 0.0
        for r in self.registers:
            total += 2.0 ** -r
        estimate = alpha * m * m / total
        if estimate <= 2.5 * m:
            zeros = self.registers.count(0)
            if zeros:
                estimate = m * math.log(m / zeros)
        return estimate

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        if self.p != other.p:
            raise ValueError(
                f"cannot merge HyperLogLog sketches of precision {self.p} and {other.p}"
            )
        # The register-wise max as one big-int pass: with H holding 0x80
        # in every byte, ((A | H) - B) & H keeps a byte's 0x80 exactly
        # where a >= b (no byte borrows from its neighbour while every
        # register is below 128, which from_wire enforces), and spreading
        # each flag over its byte selects a or b.
        n = len(self.registers)
        a = int.from_bytes(self.registers, "little")
        b = int.from_bytes(other.registers, "little")
        high = int.from_bytes(b"\x80" * n, "little")
        ge = (((a | high) - b) & high) >> 7
        mask = (ge << 8) - ge
        out = HyperLogLog(self.p)
        out.registers = bytearray(
            ((a & mask) | (b & ~mask)).to_bytes(n, "little")
        )
        return out

    def copy(self) -> "HyperLogLog":
        out = HyperLogLog(self.p)
        out.registers = bytearray(self.registers)
        return out

    def to_wire(self) -> Any:
        return (self.p, bytes(self.registers))

    @classmethod
    def from_wire(cls, wire: Any) -> "HyperLogLog":
        p, registers = wire
        out = cls(int(p))
        registers = bytes(registers)
        if len(registers) != 1 << out.p:
            raise ValueError("HyperLogLog register block has the wrong length")
        if registers.translate(None, bytes(range(66 - out.p))):
            # A register above 65 - p, the largest rank add_hash writes
            # (merge relies on every register staying below 128).
            # Deleting the valid ranks is one C pass; max() is 15x slower.
            raise ValueError(
                f"HyperLogLog register above the largest rank {65 - out.p}"
            )
        out.registers = bytearray(registers)
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HyperLogLog)
            and self.p == other.p
            and self.registers == other.registers
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HyperLogLog(p={self.p}, ~{self.estimate():.0f} distinct)"


#: Bloom filter geometry: 8192 bits / 4 hashes keeps the false-positive
#: rate under ~2% up to roughly 1k distinct values — the
#: "low-cardinality membership" regime the sketch is for.
BLOOM_BITS = 8192
BLOOM_HASHES = 4


class BloomFilter:
    """Bloom filter over scalar values (bitwise ``or`` merge).

    No false negatives ever; false positives bounded by the geometry
    (see :data:`BLOOM_BITS`).  Uses double hashing (Kirsch-Mitzenmacher)
    from a single 16-byte blake2b digest, so membership bits are a pure
    function of the value.
    """

    __slots__ = ("m_bits", "k", "bits")

    def __init__(self, m_bits: int = BLOOM_BITS, k: int = BLOOM_HASHES) -> None:
        self.m_bits = m_bits
        self.k = k
        self.bits = bytearray(m_bits // 8)

    def _positions(self, key: bytes) -> Iterable[int]:
        digest = blake2b(key, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:], "big") | 1
        m = self.m_bits
        return ((h1 + i * h2) % m for i in range(self.k))

    def update(self, value: Any) -> None:
        bits = self.bits
        for pos in self._positions(_value_key(value)):
            bits[pos >> 3] |= 1 << (pos & 7)

    def might_contain(self, value: Any) -> bool:
        bits = self.bits
        return all(
            bits[pos >> 3] & (1 << (pos & 7))
            for pos in self._positions(_value_key(value))
        )

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        if self.m_bits != other.m_bits or self.k != other.k:
            raise ValueError("cannot merge Bloom filters with different geometry")
        n = len(self.bits)
        out = BloomFilter(self.m_bits, self.k)
        out.bits = bytearray((
            int.from_bytes(self.bits, "little")
            | int.from_bytes(other.bits, "little")
        ).to_bytes(n, "little"))
        return out

    def copy(self) -> "BloomFilter":
        out = BloomFilter(self.m_bits, self.k)
        out.bits = bytearray(self.bits)
        return out

    def to_wire(self) -> Any:
        return (self.m_bits, self.k, bytes(self.bits))

    @classmethod
    def from_wire(cls, wire: Any) -> "BloomFilter":
        m_bits, k, bits = wire
        out = cls(int(m_bits), int(k))
        bits = bytes(bits)
        if len(bits) != out.m_bits // 8:
            raise ValueError("Bloom filter bit block has the wrong length")
        out.bits = bytearray(bits)
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BloomFilter)
            and self.m_bits == other.m_bits
            and self.k == other.k
            and self.bits == other.bits
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        set_bits = sum(bin(b).count("1") for b in self.bits)
        return f"BloomFilter(m={self.m_bits}, k={self.k}, set={set_bits})"


class ValueSketches:
    """HyperLogLog + Bloom pair over the scalar values at one path."""

    __slots__ = ("hll", "bloom")

    def __init__(self) -> None:
        self.hll = HyperLogLog()
        self.bloom = BloomFilter()

    def update(self, value: Any) -> None:
        self.update_all((value,))

    def update_all(self, values: Iterable[Any]) -> None:
        """Sketch each of ``values``.

        One loop with :func:`_hash64`, :meth:`HyperLogLog.add_hash` and
        :meth:`BloomFilter._positions` written out inline: the same
        digests, registers and bits, without five calls per value.
        """
        hll, bloom = self.hll, self.bloom
        registers = hll.registers
        shift = 64 - hll.p
        mask = (1 << shift) - 1
        bits, m, k = bloom.bits, bloom.m_bits, bloom.k
        from_bytes = int.from_bytes
        for value in values:
            key = _value_key(value)
            h = from_bytes(blake2b(key, digest_size=8).digest(), "big")
            rank = shift - (h & mask).bit_length() + 1
            if rank > registers[h >> shift]:
                registers[h >> shift] = rank
            digest = blake2b(key, digest_size=16).digest()
            h1 = from_bytes(digest[:8], "big")
            h2 = from_bytes(digest[8:], "big") | 1
            for i in range(k):
                pos = (h1 + i * h2) % m
                bits[pos >> 3] |= 1 << (pos & 7)

    def merge(self, other: "ValueSketches") -> "ValueSketches":
        out = ValueSketches()
        out.hll = self.hll.merge(other.hll)
        out.bloom = self.bloom.merge(other.bloom)
        return out

    def copy(self) -> "ValueSketches":
        out = ValueSketches()
        out.hll = self.hll.copy()
        out.bloom = self.bloom.copy()
        return out

    def to_wire(self) -> Any:
        return (self.hll.to_wire(), self.bloom.to_wire())

    @classmethod
    def from_wire(cls, wire: Any) -> "ValueSketches":
        hll_wire, bloom_wire = wire
        out = cls()
        out.hll = HyperLogLog.from_wire(hll_wire)
        out.bloom = BloomFilter.from_wire(bloom_wire)
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ValueSketches)
            and self.hll == other.hll
            and self.bloom == other.bloom
        )


# ---------------------------------------------------------------------------
# per-path composite and the bundle


class PathStats:
    """All statistics tracked at one document path."""

    __slots__ = ("kinds", "numbers", "strings", "arrays", "values")

    def __init__(self, sketches: bool) -> None:
        self.kinds = KindCounter()
        self.numbers = NumericRange()
        self.strings = RangeStat()
        self.arrays = RangeStat()
        self.values: ValueSketches | None = ValueSketches() if sketches else None

    def merge(self, other: "PathStats", sketches: bool) -> "PathStats":
        out = PathStats(False)
        out.kinds = self.kinds.merge(other.kinds)
        out.numbers = self.numbers.merge(other.numbers)
        out.strings = self.strings.merge(other.strings)
        out.arrays = self.arrays.merge(other.arrays)
        if sketches and self.values is not None and other.values is not None:
            out.values = self.values.merge(other.values)
        return out

    def copy(self, sketches: bool) -> "PathStats":
        out = PathStats(False)
        out.kinds = self.kinds.copy()
        out.numbers = self.numbers.copy()
        out.strings = self.strings.copy()
        out.arrays = self.arrays.copy()
        if sketches and self.values is not None:
            out.values = self.values.copy()
        return out

    def to_wire(self) -> Any:
        return (
            self.kinds.to_wire(),
            self.numbers.to_wire(),
            self.strings.to_wire(),
            self.arrays.to_wire(),
            None if self.values is None else self.values.to_wire(),
        )

    @classmethod
    def from_wire(cls, wire: Any) -> "PathStats":
        kinds, numbers, strings, arrays, values = wire
        out = cls(False)
        out.kinds = KindCounter.from_wire(kinds)
        out.numbers = NumericRange.from_wire(numbers)
        out.strings = RangeStat.from_wire(strings)
        out.arrays = RangeStat.from_wire(arrays)
        if values is not None:
            out.values = ValueSketches.from_wire(values)
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PathStats)
            and self.kinds == other.kinds
            and self.numbers == other.numbers
            and self.strings == other.strings
            and self.arrays == other.arrays
            and self.values == other.values
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PathStats(kinds={self.kinds.counts!r})"


#: Distinct ``(class, value)`` pairs one trie node holds before it folds
#: them into its :class:`PathStats`.  Repeats inside a window cost one
#: dict increment; the bound keeps the values a window holds alive, and
#: with them worker memory, small.
WINDOW = 128

#: The kind each exact JSON class counts as (an array's window entry is
#: ``(list, length)``, whatever its class).
_KIND_NAMES: dict[type, str] = {
    type(None): "NULL", bool: "BOOL", int: "NUM", float: "NUM", str: "STR",
    list: "ARRAY",
}


def _kind_name(cls: type) -> str:
    """Kind of a scalar class, subclasses of the JSON builtins included."""
    name = _KIND_NAMES.get(cls)
    if name is not None:
        return name
    # bool is final, so a subclass of int is a number.
    for base in (int, float, str):
        if issubclass(cls, base):
            return _KIND_NAMES[base]
    raise TypeError(f"cannot compute statistics for {cls.__name__}")


class _PathNode:
    """One node of a bundle's observation trie.

    A node is one document path as reached through one chain of record
    keys and ``[*]`` steps; its :class:`PathStats` is shared by every
    node whose path reads the same (``{"a.b": 1}`` and
    ``{"a": {"b": 1}}`` both address ``$.a.b``).  Observations wait in
    ``window``, keyed by exact class and value (``True``, ``1`` and
    ``1.0`` are three entries), with their multiplicity; ``records``
    counts record observations.  :meth:`fold` moves them into the stats.
    """

    __slots__ = ("path", "stats", "fields", "items", "records", "window")

    def __init__(self, path: str, stats: PathStats) -> None:
        self.path = path
        self.stats = stats
        self.fields: dict[str, _PathNode] = {}
        self.items: _PathNode | None = None
        self.records = 0
        self.window: dict[tuple[type, Any], int] = {}

    def fold(self) -> None:
        """Fold the pending observations, each distinct pair once."""
        if self.records:
            self.stats.kinds.add("RECORD", self.records)
            self.records = 0
        _fold_pairs(self.stats, self.window.items())
        self.window.clear()


def _fold_pairs(stats: PathStats, pairs: Iterable[tuple[tuple[type, Any], int]]) -> None:
    # Counts and length totals take the multiplicity; bounds and
    # sketches are idempotent, so one update stands for every repeat.
    kinds = stats.kinds
    scalars = []
    for (cls, value), times in pairs:
        kind = _KIND_NAMES.get(cls) or _kind_name(cls)
        kinds.add(kind, times)
        if kind == "STR":
            stats.strings.add(len(value), times)
        elif kind == "NUM":
            stats.numbers.add(value, times)
        elif kind == "ARRAY":
            stats.arrays.add(value, times)
            continue
        scalars.append(value)
    if stats.values is not None:
        stats.values.update_all(scalars)


class StatsBundle:
    """Per-summary statistics: one :class:`PathStats` per document path.

    Paths use the same addressing as the presence reports: the root
    value is ``$``, record members are ``parent.key`` and array
    elements are ``parent[*]``.  ``observe`` walks one record;
    ``merge`` combines two bundles without mutating either; the empty
    bundle of the same mode is the identity element.  Merging a
    ``basic`` bundle with a ``sketches`` bundle degrades to ``basic``
    (sketches over a partial record set would silently under-count) —
    the degradation is itself associative, so merge order still cannot
    be observed.
    """

    __slots__ = (
        "mode", "record_count", "type_sizes", "_paths", "_nodes", "_pending",
    )

    def __init__(self, mode: str = "basic") -> None:
        if mode not in STATS_MODES or mode == "off":
            raise ValueError(f"StatsBundle mode must be 'basic' or 'sketches', got {mode!r}")
        self.mode = mode
        self.record_count = 0
        #: Range over ``Type.size`` of every observed record — exact
        #: int totals, so succinctness tables no longer need the values.
        self.type_sizes = RangeStat()
        self._paths: dict[str, PathStats] = {}
        #: The observation trie, root first; built by :meth:`observe`.
        self._nodes: list[_PathNode] = []
        #: Whether some node may hold observations not yet folded.
        self._pending = False

    @property
    def paths(self) -> dict[str, PathStats]:
        """Path -> :class:`PathStats`, every observation folded in."""
        if self._pending:
            self.flush()
        return self._paths

    @property
    def sketches(self) -> bool:
        return self.mode == "sketches"

    @property
    def path_count(self) -> int:
        return len(self.paths)

    # -- observation --------------------------------------------------

    def observe(self, value: Any, type_size: int) -> None:
        """Walk one record down the observation trie.

        Each node's window collects the record's values at that path;
        :meth:`flush` (which every reader runs first) folds them.
        """
        self.record_count += 1
        self.type_sizes.update(type_size)
        self._pending = True
        nodes = self._nodes
        root = nodes[0] if nodes else self._node("$")
        cls = value.__class__
        if cls is dict:
            self._record(root, value)
        elif cls is list:
            self._array(root, value)
        else:
            self._other(root, value)

    def flush(self) -> None:
        """Fold every pending observation into :attr:`paths`."""
        for node in self._nodes:
            if node.records or node.window:
                node.fold()
        self._pending = False

    def _node(self, path: str) -> _PathNode:
        # The one place a path string is built: the first time a trie
        # node is reached.
        stats = self._paths.get(path)
        if stats is None:
            stats = self._paths[path] = PathStats(self.mode == "sketches")
        node = _PathNode(path, stats)
        self._nodes.append(node)
        return node

    # _record and _array inline the scalar step: most nodes are scalars.

    def _record(self, node: _PathNode, record: dict) -> None:
        node.records += 1
        fields = node.fields
        for key, value in record.items():
            child = fields.get(key)
            if child is None:
                child = fields[key] = self._node(f"{node.path}.{key}")
            cls = value.__class__
            if cls is dict:
                self._record(child, value)
            elif cls is list:
                self._array(child, value)
            elif cls in _KIND_NAMES:
                window = child.window
                pair = (cls, value)
                window[pair] = window.get(pair, 0) + 1
                if len(window) >= WINDOW:
                    child.fold()
            else:
                self._other(child, value)

    def _array(self, node: _PathNode, array: list) -> None:
        window = node.window
        pair = (list, len(array))
        window[pair] = window.get(pair, 0) + 1
        if len(window) >= WINDOW:
            node.fold()
        if not array:
            return
        child = node.items
        if child is None:
            child = node.items = self._node(f"{node.path}[*]")
        window = child.window
        for value in array:
            cls = value.__class__
            if cls is dict:
                self._record(child, value)
            elif cls is list:
                self._array(child, value)
            elif cls in _KIND_NAMES:
                pair = (cls, value)
                window[pair] = window.get(pair, 0) + 1
                if len(window) >= WINDOW:
                    child.fold()
            else:
                self._other(child, value)

    def _other(self, node: _PathNode, value: Any) -> None:
        """A scalar at the root, or a value of a subclass of the JSON
        builtins (which only :meth:`PartitionAccumulator.add` passes).

        Both are rare, so a scalar is folded at once: a subclass may
        not hash, and a non-JSON value raises here, not at a read.
        """
        if isinstance(value, dict):
            self._record(node, value)
        elif isinstance(value, list):
            self._array(node, value)
        else:
            _fold_pairs(node.stats, [((value.__class__, value), 1)])

    # -- monoid -------------------------------------------------------

    def merge(self, other: "StatsBundle") -> "StatsBundle":
        mode = self.mode if self.mode == other.mode else "basic"
        sketches = mode == "sketches"
        out = StatsBundle(mode)
        out.record_count = self.record_count + other.record_count
        out.type_sizes = self.type_sizes.merge(other.type_sizes)
        paths = out._paths
        mine, theirs = self.paths, other.paths
        for path, node in mine.items():
            other_node = theirs.get(path)
            if other_node is None:
                paths[path] = node.copy(sketches)
            else:
                paths[path] = node.merge(other_node, sketches)
        for path, node in theirs.items():
            if path not in mine:
                paths[path] = node.copy(sketches)
        return out

    def copy(self) -> "StatsBundle":
        out = StatsBundle(self.mode)
        out.record_count = self.record_count
        out.type_sizes = self.type_sizes.copy()
        sketches = self.sketches
        out._paths = {path: node.copy(sketches) for path, node in self.paths.items()}
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StatsBundle)
            and self.mode == other.mode
            and self.record_count == other.record_count
            and self.type_sizes == other.type_sizes
            and self.paths == other.paths
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StatsBundle(mode={self.mode!r}, records={self.record_count}, "
            f"paths={len(self.paths)})"
        )

    def __getstate__(self) -> Any:
        # The slots as pickled before the trie existed; the trie is
        # rebuilt by the next observe.
        return None, {
            "mode": self.mode,
            "record_count": self.record_count,
            "type_sizes": self.type_sizes,
            "paths": self.paths,
        }

    def __setstate__(self, state: Any) -> None:
        slots = state[1]
        self.__init__(slots["mode"])
        self.record_count = slots["record_count"]
        self.type_sizes = slots["type_sizes"]
        self._paths = slots["paths"]

    # -- wire (pickle-friendly tuples for summary payloads) ----------

    def to_wire(self) -> Any:
        paths = self.paths
        return (
            STATS_WIRE_VERSION,
            self.mode,
            self.record_count,
            self.type_sizes.to_wire(),
            tuple((path, paths[path].to_wire()) for path in sorted(paths)),
        )

    @classmethod
    def from_wire(cls, wire: Any) -> "StatsBundle":
        version, mode, record_count, type_sizes, paths = wire
        if version != STATS_WIRE_VERSION:
            raise ValueError(f"unsupported stats wire version {version!r}")
        out = cls(mode)
        out.record_count = int(record_count)
        out.type_sizes = RangeStat.from_wire(type_sizes)
        out._paths = {str(path): PathStats.from_wire(node) for path, node in paths}
        return out

    # -- bytes (canonical JSON for checkpoint persistence) -----------

    def to_bytes(self) -> bytes:
        """Canonical JSON encoding — identical bytes for identical stats."""
        doc = {
            "format_version": STATS_BYTES_VERSION,
            "mode": self.mode,
            "record_count": self.record_count,
            "type_sizes": self.type_sizes.to_wire(),
            "paths": {path: _path_to_json(node) for path, node in self.paths.items()},
        }
        return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "StatsBundle":
        try:
            doc = json.loads(data.decode("utf-8"))
            if doc["format_version"] != STATS_BYTES_VERSION:
                raise ValueError(
                    f"unsupported statistics format version {doc['format_version']!r}"
                )
            out = cls(doc["mode"])
            out.record_count = int(doc["record_count"])
            out.type_sizes = RangeStat.from_wire(doc["type_sizes"])
            out._paths = {
                path: _path_from_json(node) for path, node in doc["paths"].items()
            }
        except ValueError:
            raise
        except Exception as exc:
            raise ValueError(f"malformed statistics document: {exc}") from exc
        return out


def _path_to_json(node: PathStats) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "kinds": dict(sorted(node.kinds.counts.items())),
        "numbers": list(node.numbers.to_wire()),
        "strings": list(node.strings.to_wire()),
        "arrays": list(node.arrays.to_wire()),
    }
    if node.values is not None:
        doc["hll"] = {
            "p": node.values.hll.p,
            "registers": base64.b64encode(bytes(node.values.hll.registers)).decode("ascii"),
        }
        doc["bloom"] = {
            "m": node.values.bloom.m_bits,
            "k": node.values.bloom.k,
            "bits": base64.b64encode(bytes(node.values.bloom.bits)).decode("ascii"),
        }
    return doc


def _path_from_json(doc: dict[str, Any]) -> PathStats:
    node = PathStats(False)
    node.kinds = KindCounter.from_wire(tuple(doc["kinds"].items()))
    node.numbers = NumericRange.from_wire(tuple(doc["numbers"]))
    node.strings = RangeStat.from_wire(tuple(doc["strings"]))
    node.arrays = RangeStat.from_wire(tuple(doc["arrays"]))
    if "hll" in doc:
        values = ValueSketches()
        values.hll = HyperLogLog.from_wire(
            (doc["hll"]["p"], base64.b64decode(doc["hll"]["registers"]))
        )
        values.bloom = BloomFilter.from_wire(
            (doc["bloom"]["m"], doc["bloom"]["k"], base64.b64decode(doc["bloom"]["bits"]))
        )
        node.values = values
    return node


# ---------------------------------------------------------------------------
# module helpers used by the kernel / pipeline / store


def create_stats_bundle(mode: str) -> StatsBundle | None:
    """Return a fresh bundle for ``mode``, or ``None`` when ``off``."""
    resolve_stats_mode(mode)
    return None if mode == "off" else StatsBundle(mode)


def merge_stats(a: StatsBundle | None, b: StatsBundle | None) -> StatsBundle | None:
    """None-aware bundle merge: ``None`` (stats absent) is absorbing
    only in the sense of carrying nothing — the other operand's bundle
    passes through unchanged (copied, never aliased)."""
    if a is None:
        return None if b is None else b.copy()
    if b is None:
        return a.copy()
    return a.merge(b)


def stats_if_complete(stats: StatsBundle | None, record_count: int) -> StatsBundle | None:
    """Drop a bundle that does not cover every merged record.

    Merging a stats-carrying summary with a stats-less one (e.g.
    ``infer --update`` on top of a pre-stats checkpoint) yields a
    bundle whose ``record_count`` trails the summary's; persisting it
    would present partial statistics as complete.  Callers use this
    guard before exposing or saving a merged bundle.
    """
    if stats is not None and stats.record_count == record_count:
        return stats
    return None
