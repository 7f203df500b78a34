"""Partitioned datasets with lazy transformations — a miniature RDD.

The paper's implementation runs on Spark; this module provides the same
programming model in-process: an immutable, partitioned collection with lazy
narrow transformations (``map``, ``filter``, ``flat_map``,
``map_partitions``), one wide transformation (``reduce_by_key``) and eager
actions (``collect``, ``count``, ``reduce``, ``tree_reduce``,
``aggregate``...).  Lineage is a chain of parent references; computing a
partition walks the chain down to the source data.

Only what the schema-inference workload needs is implemented, but it is
implemented honestly: partitions are computed independently and in parallel
on the context's scheduler, and ``tree_reduce`` performs the balanced
reduction whose safety is exactly the associativity theorem (Theorem 5.5)
of the paper.
"""

from __future__ import annotations

import copy
import random
import threading
from collections import Counter
from typing import Any, Callable, Generic, Hashable, Iterable, Iterator, TypeVar

__all__ = ["RDD"]

T = TypeVar("T")
U = TypeVar("U")
K = TypeVar("K")
V = TypeVar("V")


class RDD(Generic[T]):
    """An immutable partitioned dataset.

    Instances are created through :class:`repro.engine.context.Context`
    (``parallelize``, ``text_file``, ``ndjson_file``) or by transforming an
    existing RDD; user code never calls the constructor directly.
    """

    def __init__(self, context: "Any", num_partitions: int) -> None:
        self.context = context
        self._num_partitions = num_partitions
        self._cache: list[list[T]] | None = None
        self._cache_lock = threading.Lock()

    # ------------------------------------------------------------------
    # partition computation

    @property
    def num_partitions(self) -> int:
        """Number of partitions the dataset is split into."""
        return self._num_partitions

    def compute_partition(self, index: int) -> list[T]:
        """Materialise partition ``index`` (respecting any cached copy)."""
        if self._cache is not None:
            return self._cache[index]
        return self._compute(index)

    def _compute(self, index: int) -> list[T]:  # pragma: no cover - abstract
        raise NotImplementedError

    def cache(self) -> "RDD[T]":
        """Materialise all partitions now and serve future computations
        from memory — the moral equivalent of Spark's ``persist()``.

        Thread-safe: concurrent callers materialise the partitions once
        (double-checked lock; without it two threads can both observe an
        unset cache and compute every partition twice).
        """
        if self._cache is None:
            with self._cache_lock:
                if self._cache is None:
                    self._cache = self._run_per_partition(
                        self.compute_partition
                    )
        return self

    def unpersist(self) -> "RDD[T]":
        """Drop any cached partitions."""
        self._cache = None
        return self

    def _run_per_partition(self, task: Callable[[int], U]) -> list[U]:
        return self.context.scheduler.run(task, range(self.num_partitions))

    # ------------------------------------------------------------------
    # narrow transformations (lazy)

    def map(self, fn: Callable[[T], U]) -> "RDD[U]":
        """Element-wise transformation — the paper's Map phase primitive."""
        return _MapPartitionsRDD(self, lambda part, _i: [fn(x) for x in part])

    def filter(self, predicate: Callable[[T], bool]) -> "RDD[T]":
        """Keep the elements satisfying ``predicate``."""
        return _MapPartitionsRDD(
            self, lambda part, _i: [x for x in part if predicate(x)]
        )

    def flat_map(self, fn: Callable[[T], Iterable[U]]) -> "RDD[U]":
        """Map then flatten one level."""
        return _MapPartitionsRDD(
            self, lambda part, _i: [y for x in part for y in fn(x)]
        )

    def map_partitions(
        self, fn: Callable[[list[T]], Iterable[U]]
    ) -> "RDD[U]":
        """Transform whole partitions at once (``fn`` sees the full list)."""
        return _MapPartitionsRDD(self, lambda part, _i: list(fn(part)))

    def map_partitions_with_index(
        self, fn: Callable[[int, list[T]], Iterable[U]]
    ) -> "RDD[U]":
        """Like :meth:`map_partitions`, also passing the partition index."""
        return _MapPartitionsRDD(self, lambda part, i: list(fn(i, part)))

    def glom(self) -> "RDD[list[T]]":
        """Turn each partition into a single list element."""
        return _MapPartitionsRDD(self, lambda part, _i: [list(part)])

    def key_by(self, fn: Callable[[T], K]) -> "RDD[tuple[K, T]]":
        """Pair every element with a computed key."""
        return self.map(lambda x: (fn(x), x))

    def union(self, other: "RDD[T]") -> "RDD[T]":
        """Concatenate two datasets partition-wise (no shuffle)."""
        return _UnionRDD(self, other)

    def sample(self, fraction: float, seed: int = 0) -> "RDD[T]":
        """Bernoulli sample: keep each element with probability ``fraction``.

        Deterministic for a given ``seed`` and partitioning (each partition
        derives its own RNG), like Spark's ``sample`` without replacement.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")

        def sample_partition(index: int, part: list[T]) -> list[T]:
            rng = random.Random(f"sample:{seed}:{index}")
            return [x for x in part if rng.random() < fraction]

        return self.map_partitions_with_index(sample_partition)

    def zip_with_index(self) -> "RDD[tuple[T, int]]":
        """Pair every element with its global index (two passes, no shuffle).

        The first pass counts partition lengths; the second offsets each
        partition — the same trade-off Spark's ``zipWithIndex`` makes.
        """
        lengths = self._run_per_partition(
            lambda i: len(self.compute_partition(i))
        )
        offsets = [0]
        for length in lengths[:-1]:
            offsets.append(offsets[-1] + length)

        def index_partition(index: int, part: list[T]) -> list[tuple[T, int]]:
            base = offsets[index]
            return [(x, base + i) for i, x in enumerate(part)]

        return self.map_partitions_with_index(index_partition)

    def coalesce(self, num_partitions: int) -> "RDD[T]":
        """Reduce the partition count by concatenating adjacent partitions."""
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        return _CoalesceRDD(self, min(num_partitions, self.num_partitions))

    # ------------------------------------------------------------------
    # wide transformation

    def reduce_by_key(
        self: "RDD[tuple[K, V]]",
        fn: Callable[[V, V], V],
        num_partitions: int | None = None,
    ) -> "RDD[tuple[K, V]]":
        """Combine values sharing a key with an associative function.

        Performs a map-side combine per input partition (like Spark), then a
        hash shuffle into ``num_partitions`` output partitions.
        """
        return _ShuffledRDD(self, fn, num_partitions or self.num_partitions)

    def distinct(self) -> "RDD[T]":
        """Deduplicate elements (requires hashability); uses the shuffle."""
        paired: RDD[tuple[T, None]] = self.map(lambda x: (x, None))
        reduced = paired.reduce_by_key(lambda a, _b: a)
        return reduced.map(lambda kv: kv[0])

    # ------------------------------------------------------------------
    # actions (eager)

    def collect(self) -> list[T]:
        """Materialise the whole dataset in partition order."""
        parts = self._run_per_partition(self.compute_partition)
        return [x for part in parts for x in part]

    def count(self) -> int:
        """Number of elements."""
        lengths = self._run_per_partition(
            lambda i: len(self.compute_partition(i))
        )
        return sum(lengths)

    def take(self, n: int) -> list[T]:
        """The first ``n`` elements in partition order."""
        out: list[T] = []
        for index in range(self.num_partitions):
            if len(out) >= n:
                break
            out.extend(self.compute_partition(index))
        return out[:n]

    def first(self) -> T:
        """The first element; raises ``ValueError`` on an empty dataset."""
        got = self.take(1)
        if not got:
            raise ValueError("RDD is empty")
        return got[0]

    def reduce(self, fn: Callable[[T, T], T]) -> T:
        """Reduce with an associative, commutative binary function.

        Each partition is reduced in parallel, then the per-partition
        results are folded on the driver.  Empty datasets raise
        ``ValueError`` (as in Spark).
        """
        partials = self._partition_reductions(fn)
        if not partials:
            raise ValueError("reduce of an empty RDD")
        result = partials[0]
        for partial in partials[1:]:
            result = fn(result, partial)
        return result

    def tree_reduce(self, fn: Callable[[T, T], T], depth: int | None = None) -> T:
        """Balanced reduction of the per-partition results.

        This is the shape of computation whose correctness rests on
        associativity (paper Theorem 5.5): partial results are combined
        pairwise in parallel rounds rather than in one sequential fold.
        ``depth`` bounds the number of rounds (``None`` = fully balanced).
        """
        partials = self._partition_reductions(fn)
        if not partials:
            raise ValueError("tree_reduce of an empty RDD")
        rounds = 0
        while len(partials) > 1 and (depth is None or rounds < depth):
            pairs = [
                tuple(partials[i:i + 2]) for i in range(0, len(partials), 2)
            ]
            partials = self.context.scheduler.run(
                lambda pair: pair[0] if len(pair) == 1 else fn(*pair), pairs
            )
            rounds += 1
        result = partials[0]
        for partial in partials[1:]:
            result = fn(result, partial)
        return result

    def fold(self, zero: T, fn: Callable[[T, T], T]) -> T:
        """Reduce with a neutral element; empty datasets return ``zero``."""
        partials = self._partition_reductions(fn)
        result = zero
        for partial in partials:
            result = fn(result, partial)
        return result

    def aggregate(
        self,
        zero: U,
        seq_op: Callable[[U, T], U],
        comb_op: Callable[[U, U], U],
    ) -> U:
        """Spark-style two-operator aggregation.

        ``seq_op`` folds elements into a per-partition accumulator starting
        from ``zero``; ``comb_op`` merges the per-partition accumulators.
        Each partition gets its own deep copy of ``zero`` (as in Spark,
        where the zero value is shipped per task), so mutating accumulators
        in ``seq_op`` is safe.
        """
        def per_partition(index: int) -> U:
            acc = copy.deepcopy(zero)
            for x in self.compute_partition(index):
                acc = seq_op(acc, x)
            return acc

        partials = self._run_per_partition(per_partition)
        result = copy.deepcopy(zero)
        for partial in partials:
            result = comb_op(result, partial)
        return result

    def count_by_value(self: "RDD[Hashable]") -> Counter:
        """Histogram of element occurrences."""
        return self.aggregate(
            Counter(),
            lambda acc, x: _counter_add(acc, x),
            lambda a, b: a + b,
        )

    def _partition_reductions(self, fn: Callable[[T, T], T]) -> list[T]:
        """Reduce each non-empty partition in parallel."""
        def per_partition(index: int) -> list[T]:
            part = self.compute_partition(index)
            if not part:
                return []
            result = part[0]
            for x in part[1:]:
                result = fn(result, x)
            return [result]

        nested = self._run_per_partition(per_partition)
        return [x for sub in nested for x in sub]

    def __iter__(self) -> Iterator[T]:
        for index in range(self.num_partitions):
            yield from self.compute_partition(index)

    def save_ndjson(self, directory: "Any") -> list[str]:
        """Write the dataset as NDJSON part files, one per partition.

        Produces ``part-00000.ndjson`` ... in ``directory`` (created if
        missing), like Spark's ``saveAsTextFile`` layout.  Returns the
        written paths in partition order.  Elements must be JSON values.
        """
        import os

        from repro.jsonio.ndjson import write_ndjson

        os.makedirs(directory, exist_ok=True)

        def write_partition(index: int) -> str:
            path = os.path.join(
                str(directory), f"part-{index:05d}.ndjson"
            )
            write_ndjson(path, self.compute_partition(index))
            return path

        return self._run_per_partition(write_partition)

    # ------------------------------------------------------------------
    # lineage inspection

    def _parents(self) -> list["RDD"]:
        """Direct lineage parents (overridden by derived RDDs)."""
        return []

    def _describe(self) -> str:
        """One-line description of this node for :meth:`debug_string`."""
        return f"{type(self).__name__.lstrip('_')}[{self.num_partitions}]"

    def debug_string(self) -> str:
        """Render the lineage chain, in the spirit of Spark's
        ``toDebugString``: one line per ancestor, indented by depth.

        >>> from repro.engine.context import Context
        >>> with Context(parallelism=1) as ctx:
        ...     rdd = ctx.parallelize([1, 2], 2).map(str).filter(len)
        ...     print(rdd.debug_string())
        MapPartitionsRDD[2]
          MapPartitionsRDD[2]
            ParallelizedRDD[2]
        """
        lines: list[str] = []

        def walk(node: "RDD", depth: int) -> None:
            cached = " (cached)" if node._cache is not None else ""
            lines.append("  " * depth + node._describe() + cached)
            for parent in node._parents():
                walk(parent, depth + 1)

        walk(self, 0)
        return "\n".join(lines)


def _counter_add(acc: Counter, x: Hashable) -> Counter:
    acc[x] += 1
    return acc


class _MapPartitionsRDD(RDD[U]):
    """Narrow dependency: partition ``i`` depends only on parent's ``i``."""

    def __init__(
        self, parent: RDD[T], fn: Callable[[list[T], int], list[U]]
    ) -> None:
        super().__init__(parent.context, parent.num_partitions)
        self._parent = parent
        self._fn = fn

    def _compute(self, index: int) -> list[U]:
        return self._fn(self._parent.compute_partition(index), index)

    def _parents(self) -> list[RDD]:
        return [self._parent]


class _UnionRDD(RDD[T]):
    """Concatenation of the partitions of two parents."""

    def __init__(self, left: RDD[T], right: RDD[T]) -> None:
        super().__init__(left.context, left.num_partitions + right.num_partitions)
        self._left = left
        self._right = right

    def _compute(self, index: int) -> list[T]:
        if index < self._left.num_partitions:
            return self._left.compute_partition(index)
        return self._right.compute_partition(index - self._left.num_partitions)

    def _parents(self) -> list[RDD]:
        return [self._left, self._right]


class _CoalesceRDD(RDD[T]):
    """Concatenates contiguous runs of parent partitions (no shuffle)."""

    def __init__(self, parent: RDD[T], num_partitions: int) -> None:
        super().__init__(parent.context, num_partitions)
        self._parent = parent
        n, k = parent.num_partitions, num_partitions
        bounds = [round(i * n / k) for i in range(k + 1)]
        self._ranges = list(zip(bounds, bounds[1:]))

    def _compute(self, index: int) -> list[T]:
        start, stop = self._ranges[index]
        out: list[T] = []
        for parent_index in range(start, stop):
            out.extend(self._parent.compute_partition(parent_index))
        return out

    def _parents(self) -> list[RDD]:
        return [self._parent]


class _ShuffledRDD(RDD[tuple[K, V]]):
    """Hash shuffle with map-side combine, backing ``reduce_by_key``."""

    def __init__(
        self,
        parent: RDD[tuple[K, V]],
        fn: Callable[[V, V], V],
        num_partitions: int,
    ) -> None:
        super().__init__(parent.context, num_partitions)
        self._parent = parent
        self._fn = fn
        self._buckets: list[list[dict[K, V]]] | None = None
        self._map_side_lock = threading.Lock()

    def _map_side(self) -> list[list[dict[K, V]]]:
        """Run the map side once: per parent partition, combine locally and
        split the combined dict into one bucket per output partition.

        Guarded by a lock: several reduce-side partitions may be computed
        concurrently and must share a single map-side pass.
        """
        with self._map_side_lock:
            return self._map_side_locked()

    def _map_side_locked(self) -> list[list[dict[K, V]]]:
        if self._buckets is not None:
            return self._buckets

        fn = self._fn
        n_out = self.num_partitions

        def per_partition(index: int) -> list[dict[K, V]]:
            combined: dict[K, V] = {}
            for key, value in self._parent.compute_partition(index):
                if key in combined:
                    combined[key] = fn(combined[key], value)
                else:
                    combined[key] = value
            buckets: list[dict[K, V]] = [dict() for _ in range(n_out)]
            for key, value in combined.items():
                buckets[hash(key) % n_out][key] = value
            return buckets

        self._buckets = self.context.scheduler.run(
            per_partition, range(self._parent.num_partitions)
        )
        return self._buckets

    def _compute(self, index: int) -> list[tuple[K, V]]:
        fn = self._fn
        merged: dict[K, V] = {}
        for bucket_row in self._map_side():
            for key, value in bucket_row[index].items():
                if key in merged:
                    merged[key] = fn(merged[key], value)
                else:
                    merged[key] = value
        return list(merged.items())

    def _parents(self) -> list[RDD]:
        return [self._parent]
