"""The engine entry point, in the style of Spark's ``SparkContext``.

A :class:`Context` owns a scheduler and creates source RDDs::

    with Context(parallelism=4) as ctx:
        schema = (ctx.parallelize(records, num_partitions=8)
                     .map(infer_type)
                     .tree_reduce(fuse))
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence, TypeVar

from repro.engine.accumulators import CounterAccumulator
from repro.engine.faults import FaultPlan
from repro.engine.rdd import RDD
from repro.engine.scheduler import RetryPolicy, Scheduler
from repro.jsonio.errors import JsonError
from repro.jsonio.ndjson import iter_lines
from repro.jsonio.parser import loads
from repro.jsonio.splits import (
    DEFAULT_MIN_SPLIT_BYTES,
    iter_split_lines,
    plan_splits,
)

__all__ = ["Context", "SequenceView", "split_evenly"]

T = TypeVar("T")


class SequenceView(Sequence[T]):
    """A zero-copy window ``[start, stop)`` over an underlying sequence.

    :func:`split_evenly` hands these out instead of sliced copies, so
    partitioning an N-element dataset allocates O(partitions) objects
    instead of duplicating all N references.  The view is read-only and
    *aliases* the base sequence — mutating the base afterwards shows
    through, like :class:`memoryview`.

    Pickling materialises the window into a plain list: a view shipped to
    a worker process carries only its own slice, never the whole base
    sequence.  Equality compares element-wise against any sequence, so
    views interoperate with lists in comparisons and tests.
    """

    __slots__ = ("_base", "_start", "_stop")

    def __init__(self, base: Sequence[T], start: int, stop: int) -> None:
        self._base = base
        self._start = start
        self._stop = max(start, stop)

    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return [self._base[self._start + i]
                        for i in range(start, stop, step)]
            return SequenceView(
                self._base, self._start + start, self._start + stop
            )
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("SequenceView index out of range")
        return self._base[self._start + index]

    def __iter__(self) -> Iterator[T]:
        base = self._base
        for i in range(self._start, self._stop):
            yield base[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Sequence, SequenceView)) and not isinstance(
            other, (str, bytes)
        ):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))

    def __reduce__(self):
        # Ship only the window's elements across a process boundary (or
        # into any other pickle), reconstructed as a plain list.
        return (list, (list(self),))


def split_evenly(
    items: Sequence[T], num_partitions: int
) -> list[SequenceView[T]]:
    """Split ``items`` into ``num_partitions`` contiguous, balanced chunks.

    Sizes differ by at most one element; trailing partitions may be empty
    when there are fewer items than partitions.  Accepts any sequence and
    returns lazy :class:`SequenceView` windows — no element is copied, so
    splitting a million-record list costs a few dozen objects.  The views
    alias ``items``; do not mutate it while they are in use.

    >>> split_evenly([1, 2, 3, 4, 5, 6], 3)
    [[1, 2], [3, 4], [5, 6]]
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    n = len(items)
    bounds = [round(i * n / num_partitions) for i in range(num_partitions + 1)]
    return [SequenceView(items, a, b) for a, b in zip(bounds, bounds[1:])]


class _ParallelizedRDD(RDD[T]):
    """Source RDD over in-memory data, pre-split into partitions."""

    def __init__(
        self, context: "Context", partitions: list[Sequence[T]]
    ) -> None:
        super().__init__(context, len(partitions))
        self._partitions = partitions

    def _compute(self, index: int) -> list[T]:
        return self._partitions[index]


class _SplitFileRDD(RDD[str]):
    """Source RDD over a file's byte-range splits: one split per partition.

    The driver holds only :class:`~repro.jsonio.splits.FileSplit`
    descriptors; each partition opens the file and reads its own byte
    range when computed — on the engine's workers, in parallel — so no
    line text ever lives at the driver.
    """

    def __init__(self, context: "Context", splits: list) -> None:
        super().__init__(context, len(splits))
        self._splits = splits

    def _compute(self, index: int) -> list[str]:
        return [text for _, text in iter_split_lines(self._splits[index])]


class Context:
    """Driver-side entry point: creates source RDDs and owns the scheduler.

    ``retry_policy`` configures the scheduler's fault tolerance (retries,
    backoff, per-task timeouts, pool-rebuild budget); ``fault_plan``
    threads a deterministic fault injector through every dispatch — the
    default is no injection.  See :mod:`repro.engine.scheduler` and
    :mod:`repro.engine.faults`.

    Worker pools persist across jobs until :meth:`stop`.  The workers
    only map: each inference task types its partition through a fresh
    accumulator, and the partial summaries fold at the driver.
    """

    def __init__(
        self,
        parallelism: int | None = None,
        backend: str = "thread",
        retry_policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.scheduler = Scheduler(
            parallelism,
            backend=backend,
            retry_policy=retry_policy,
            fault_plan=fault_plan,
        )

    @property
    def backend(self) -> str:
        """Execution backend of the scheduler (``"thread"`` or ``"process"``)."""
        return self.scheduler.backend

    @property
    def retry_policy(self) -> RetryPolicy:
        """The scheduler's retry policy."""
        return self.scheduler.retry_policy

    @property
    def default_parallelism(self) -> int:
        """Default number of partitions for new source RDDs."""
        return self.scheduler.parallelism

    def parallelize(
        self, data: Iterable[T], num_partitions: int | None = None
    ) -> RDD[T]:
        """Distribute an in-memory collection over ``num_partitions``."""
        items = list(data)
        n = num_partitions or self.default_parallelism
        return _ParallelizedRDD(self, split_evenly(items, n))

    def from_partitions(self, partitions: Iterable[Iterable[T]]) -> RDD[T]:
        """Build an RDD from an explicit partition layout.

        Used by the partition-isolated strategy (paper Section 6.2 /
        Table 8), where the caller controls exactly what each partition
        holds.
        """
        return _ParallelizedRDD(self, [list(p) for p in partitions])

    def text_file(
        self,
        path: str | Path,
        num_partitions: int | None = None,
        split_mode: str = "lines",
        min_split_bytes: int = DEFAULT_MIN_SPLIT_BYTES,
    ) -> RDD[str]:
        """One element per non-blank line of ``path``.

        ``split_mode="lines"`` (default) reads the file at the driver and
        distributes the lines.  ``split_mode="bytes"`` plans byte-range
        splits from the file size alone (see
        :func:`repro.jsonio.splits.plan_splits`) and each partition reads
        its own range when computed — the driver never materialises the
        file, and partition computation parallelises the I/O.
        """
        if split_mode == "bytes":
            splits = plan_splits(
                path,
                num_partitions or self.default_parallelism,
                min_split_bytes,
            )
            return _SplitFileRDD(self, splits)
        if split_mode != "lines":
            raise ValueError(
                f"unknown split_mode {split_mode!r}; expected 'lines' or "
                "'bytes'"
            )
        return self.parallelize(iter_lines(path), num_partitions)

    def ndjson_file(
        self,
        path: str | Path,
        num_partitions: int | None = None,
        permissive: bool = False,
        skipped: CounterAccumulator | None = None,
        split_mode: str = "lines",
    ) -> RDD[Any]:
        """One parsed JSON record per line of ``path``.

        Parsing happens inside the partitions (i.e. in parallel), not at
        RDD-creation time; ``split_mode="bytes"`` additionally moves the
        file *reading* into the partitions (see :meth:`text_file`).  With
        ``permissive=True`` malformed lines are dropped instead of
        failing the job; pass a ``skipped`` accumulator to count them.
        (Accumulator updates require the thread backend to be visible
        driver-side; the file pipeline
        :func:`repro.inference.pipeline.infer_ndjson_file` carries
        quarantine counts through partition summaries instead and works
        on every backend.)
        """
        lines = self.text_file(path, num_partitions, split_mode=split_mode)
        if not permissive:
            return lines.map(loads)
        return lines.map_quarantined(
            loads, skipped=skipped, errors=(JsonError,)
        )

    def merge_checkpoints(
        self,
        inputs: "Sequence[str | Path | Any]",
        out: str | Path | None = None,
    ) -> "Any":
        """Union schema checkpoints on this context's scheduler.

        The distributed face of :func:`repro.store.merge_checkpoints`:
        checkpoint loads (parsing the stored type files) run as parallel
        tasks, and the loaded summaries fold at the driver — safe in any
        order by associativity and commutativity (Theorems 5.4-5.5).
        Loads, saves and reused record counts are accounted in
        :class:`~repro.engine.scheduler.SchedulerStats`.
        With ``out``, the merged checkpoint is saved there.  Returns the
        merged :class:`~repro.store.Checkpoint`.
        """
        # Imported lazily: the store imports the inference kernel, which
        # sits above this module in the package layering.
        from repro.store.checkpoint import merge_checkpoints

        return merge_checkpoints(
            inputs,
            out=out,
            scheduler=self.scheduler,
            stats=self.scheduler.stats,
        )

    def stop(self) -> None:
        """Shut the scheduler down; the context may be reused afterwards."""
        self.scheduler.shutdown()

    def __enter__(self) -> "Context":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
