"""Shared accumulators, in the style of Spark's ``Accumulator``.

Tasks running on the scheduler's worker threads can add to an accumulator;
the driver reads the total after the action completes.  Used by the
RDD pipelines to count records and parse failures without a second pass
over the data.
"""

from __future__ import annotations

import threading
from typing import Callable, Generic, TypeVar

__all__ = ["Accumulator", "CounterAccumulator"]

T = TypeVar("T")


class Accumulator(Generic[T]):
    """A write-only-from-tasks, read-from-driver accumulator.

    ``combine`` must be associative and commutative — the same contract the
    paper's fusion operator satisfies, and for the same reason: updates
    arrive in a nondeterministic order.
    """

    def __init__(self, zero: T, combine: Callable[[T, T], T]) -> None:
        self._value = zero
        self._combine = combine
        self._lock = threading.Lock()

    def add(self, update: T) -> None:
        """Merge ``update`` into the accumulator (thread-safe)."""
        with self._lock:
            self._value = self._combine(self._value, update)

    @property
    def value(self) -> T:
        """Current accumulated value."""
        with self._lock:
            return self._value


class CounterAccumulator(Accumulator[int]):
    """The common integer-sum accumulator."""

    def __init__(self) -> None:
        super().__init__(0, lambda a, b: a + b)

    def increment(self, by: int = 1) -> None:
        """Add ``by`` (default 1) to the counter."""
        self.add(by)
