"""Deterministic fault injection for the engine (chaos testing without luck).

Real clusters lose workers and hit flaky tasks; a scheduler that claims to
recover from those must be *testable* without relying on actual
nondeterministic crashes.  This module provides a seedable, fully
deterministic injector that the scheduler consults on every task dispatch:

* :class:`Fault` — one planned incident, keyed by ``(partition, attempt)``:
  raise a transient exception, kill the worker process, or delay the task.
* :class:`FaultPlan` — an immutable, picklable set of faults.  Because a
  fault fires for one specific attempt number only, a retrying scheduler
  always converges: the retry runs the same task at ``attempt + 1``, where
  the plan (by construction) is silent.
* :exc:`TransientError` / :exc:`FaultInjected` — the marker hierarchy the
  scheduler's retry classifier treats as retryable.

Plans can be built explicitly, generated pseudo-randomly from a seed
(:meth:`FaultPlan.random_plan`), or read from the ``REPRO_FAULT_SEED`` /
``REPRO_FAULT_RATE`` environment variables (:meth:`FaultPlan.from_env`) —
which is how the CI fault-injection job turns the whole recovery machinery
on for a test run.  The default everywhere is :meth:`FaultPlan.none`, a
plan with no faults, whose :meth:`~FaultPlan.apply` is a no-op.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping

__all__ = [
    "CRASH_EXIT_CODE",
    "CRASH_POINT_ENV",
    "FAULT_KINDS",
    "Fault",
    "FaultInjected",
    "FaultPlan",
    "TransientError",
    "WORKER_KILL_EXIT_CODE",
    "crash_due",
    "crash_point",
    "reset_crash_points",
]

#: Supported fault kinds.
FAULT_KINDS = ("fail", "kill", "delay")

#: Exit code a killed worker process dies with (visible in core dumps /
#: process tables when debugging an injected run).
WORKER_KILL_EXIT_CODE = 73

#: Exit code a process dies with at a planned :func:`crash_point` — distinct
#: from :data:`WORKER_KILL_EXIT_CODE` so a crash-matrix harness can tell a
#: planned driver crash from an injected worker kill.
CRASH_EXIT_CODE = 66

#: Environment variable naming the crash point to fire:
#: ``"name"`` or ``"name:occurrence"`` (1-based; default 1).
CRASH_POINT_ENV = "REPRO_CRASH_POINT"


class TransientError(Exception):
    """Base class for errors the scheduler should treat as retryable.

    User tasks may raise subclasses of this to signal "try me again"
    (e.g. a wrapped network hiccup); the injector's :exc:`FaultInjected`
    is one such subclass.
    """


class FaultInjected(TransientError):
    """A deliberately injected transient task failure."""

    def __init__(self, partition: int, attempt: int, message: str) -> None:
        super().__init__(
            f"injected fault on partition {partition} attempt {attempt}: "
            f"{message}"
        )
        self.partition = partition
        self.attempt = attempt
        self.message = message

    def __reduce__(self):
        # The default pickles ``(str(self),)``, which ``__init__`` cannot
        # take: a process worker's fault would break the pool instead.
        return (self.__class__, (self.partition, self.attempt, self.message))


@dataclass(frozen=True)
class Fault:
    """One planned incident: what happens to ``(partition, attempt)``.

    ``kind`` is one of :data:`FAULT_KINDS`:

    * ``"fail"`` — raise :exc:`FaultInjected` before the task body runs;
    * ``"kill"`` — hard-kill the worker *process* (``os._exit``), which the
      driver observes as a broken pool.  On a thread worker (where killing
      would take the driver down too) it degrades to a ``"fail"``;
    * ``"delay"`` — sleep ``delay_s`` before running the task body, for
      exercising task timeouts.
    """

    partition: int
    attempt: int
    kind: str = "fail"
    delay_s: float = 0.0
    message: str = "injected"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, picklable schedule of faults.

    The plan is a pure function of its fault set: given the same plan, the
    same ``(partition, attempt)`` pair always produces the same incident,
    so every recovery path is reproducible in CI.  An empty plan
    (:meth:`none`) is the no-op default and costs one attribute check per
    dispatch.
    """

    faults: tuple[Fault, ...] = field(default=())

    def __post_init__(self) -> None:
        keys = [(f.partition, f.attempt) for f in self.faults]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate (partition, attempt) in fault plan")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: inject nothing."""
        return cls(())

    @classmethod
    def transient_failures(
        cls, partitions: Iterable[int], attempt: int = 0
    ) -> "FaultPlan":
        """Fail each listed partition once, at the given attempt."""
        return cls(tuple(
            Fault(partition=p, attempt=attempt, kind="fail")
            for p in partitions
        ))

    @classmethod
    def random_plan(
        cls,
        seed: int,
        num_partitions: int,
        rate: float = 0.2,
        kinds: tuple[str, ...] = ("fail",),
        max_attempt: int = 0,
    ) -> "FaultPlan":
        """A pseudo-random plan, fully determined by ``seed``.

        Each ``(partition, attempt)`` pair with ``attempt <= max_attempt``
        independently receives a fault with probability ``rate``; the kind
        is drawn uniformly from ``kinds``.  With ``max_attempt`` strictly
        below a scheduler's retry budget the injected run is guaranteed to
        converge to the fault-free result.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        rng = random.Random(f"fault-plan:{seed}")
        faults = []
        for partition in range(num_partitions):
            for attempt in range(max_attempt + 1):
                if rng.random() < rate:
                    faults.append(Fault(
                        partition=partition,
                        attempt=attempt,
                        kind=rng.choice(kinds),
                        message=f"seed {seed}",
                    ))
        return cls(tuple(faults))

    @classmethod
    def from_env(
        cls,
        num_partitions: int,
        environ: Mapping[str, str] | None = None,
    ) -> "FaultPlan":
        """Build a plan from ``REPRO_FAULT_SEED`` / ``REPRO_FAULT_RATE``.

        Returns the empty plan when ``REPRO_FAULT_SEED`` is unset or
        ``"0"`` — so exporting a nonzero seed (as the CI fault-injection
        job does) is the single switch that turns injection on.
        """
        env = os.environ if environ is None else environ
        seed = int(env.get("REPRO_FAULT_SEED", "0"))
        if not seed:
            return cls.none()
        rate = float(env.get("REPRO_FAULT_RATE", "0.2"))
        return cls.random_plan(seed, num_partitions, rate=rate)

    # ------------------------------------------------------------------
    # queries

    def __bool__(self) -> bool:
        return bool(self.faults)

    def lookup(self, partition: int, attempt: int) -> Fault | None:
        """The fault planned for ``(partition, attempt)``, if any."""
        for fault in self.faults:
            if fault.partition == partition and fault.attempt == attempt:
                return fault
        return None

    def max_planned_attempt(self) -> int:
        """Highest attempt number any fault targets (-1 for no faults).

        A retry budget of ``max_planned_attempt() + 1`` retries is always
        enough for a run under this plan to converge.
        """
        return max((f.attempt for f in self.faults), default=-1)

    # ------------------------------------------------------------------
    # execution

    def apply(self, partition: int, attempt: int, allow_kill: bool) -> None:
        """Fire the fault planned for this dispatch, if any.

        Called by the scheduler's task wrapper right before the task body,
        on the worker that will run it.  ``allow_kill`` is True only on
        process-pool workers; elsewhere a ``"kill"`` degrades to a
        ``"fail"`` (killing a thread worker would kill the driver).
        """
        fault = self.lookup(partition, attempt)
        if fault is None:
            return
        if fault.kind == "delay":
            time.sleep(fault.delay_s)
            return
        if fault.kind == "kill" and allow_kill:
            os._exit(WORKER_KILL_EXIT_CODE)
        raise FaultInjected(partition, attempt, fault.message)


# ----------------------------------------------------------------------
# Process-level crash points.
#
# Where :class:`FaultPlan` injects *task*-level incidents the scheduler is
# expected to recover from in-process, a crash point kills the whole
# process (``os._exit``) at a named durability boundary — "after the
# journal header was fsynced", "between the two renames of a checkpoint
# swap" — so a subprocess harness can prove that a resume from the
# on-disk state the crash left behind reproduces the uninterrupted run.
#
# Activation is by environment variable so the harness controls the child
# without any code plumbing: ``REPRO_CRASH_POINT=name`` crashes at the
# first time ``name`` is reached, ``REPRO_CRASH_POINT=name:3`` at the
# third.  In a normal process the env var is unset and every
# :func:`crash_point` call is a dict lookup + string compare.

_crash_hits: dict[str, int] = {}


def _crash_spec(environ: Mapping[str, str] | None = None):
    env = os.environ if environ is None else environ
    spec = env.get(CRASH_POINT_ENV, "")
    if not spec:
        return None, 0
    name, _, occurrence = spec.partition(":")
    try:
        nth = int(occurrence) if occurrence else 1
    except ValueError:
        raise ValueError(
            f"malformed {CRASH_POINT_ENV} spec {spec!r}: occurrence must "
            f"be an integer"
        ) from None
    return name, max(1, nth)


def reset_crash_points() -> None:
    """Forget all crash-point hit counts (test isolation helper)."""
    _crash_hits.clear()


def crash_due(name: str) -> bool:
    """Record a hit on crash point ``name``; True when it should fire.

    Counting is per-process: occurrence ``k`` in ``name:k`` means the
    k-th time this process reaches the point.  Callers that need to do
    work *before* dying (e.g. write half a journal frame to simulate a
    torn append) check :func:`crash_due` and exit themselves with
    :data:`CRASH_EXIT_CODE`; everyone else just calls
    :func:`crash_point`.
    """
    armed, nth = _crash_spec()
    if armed is None or armed != name:
        return False
    _crash_hits[name] = _crash_hits.get(name, 0) + 1
    return _crash_hits[name] == nth


def crash_point(name: str) -> None:
    """Die with :data:`CRASH_EXIT_CODE` if crash point ``name`` is armed.

    ``os._exit`` — no atexit handlers, no flush, no unwinding — the
    closest a test can get to SIGKILL while still choosing the line it
    lands on.
    """
    if crash_due(name):
        os._exit(CRASH_EXIT_CODE)
