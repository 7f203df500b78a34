"""Mini-Spark execution substrate (the paper ran on Spark 1.6.1).

* :mod:`repro.engine.context` / :mod:`repro.engine.rdd` — partitioned
  datasets with lazy transformations and parallel actions.
* :mod:`repro.engine.scheduler` — the fault-tolerant task scheduler
  (thread/process backends, retries, worker-crash recovery, timeouts).
* :mod:`repro.engine.faults` — deterministic, seedable fault injection.
* :mod:`repro.engine.accumulators` — driver-readable shared counters.
* :mod:`repro.engine.cluster` — the deterministic cluster simulator used by
  the Table 7/8 scalability experiments, including node-failure modelling.
"""

from repro.engine.accumulators import Accumulator, CounterAccumulator
from repro.engine.cluster import (
    Block,
    ClusterSimulator,
    NodeFailure,
    NodeSpec,
    SimulationResult,
    default_cluster,
    place_on_single_node,
    place_round_robin,
)
from repro.engine.context import Context, split_evenly
from repro.engine.faults import (
    Fault,
    FaultInjected,
    FaultPlan,
    TransientError,
)
from repro.engine.rdd import RDD
from repro.engine.scheduler import (
    JobCancelled,
    RetryPolicy,
    Scheduler,
    SchedulerStats,
    TaskTimeoutError,
    available_parallelism,
)

__all__ = [
    "Context", "RDD", "Scheduler", "split_evenly",
    "RetryPolicy", "SchedulerStats", "TaskTimeoutError", "JobCancelled",
    "Fault", "FaultInjected", "FaultPlan", "TransientError",
    "Accumulator", "CounterAccumulator",
    "NodeSpec", "Block", "ClusterSimulator", "SimulationResult",
    "NodeFailure",
    "default_cluster", "place_on_single_node", "place_round_robin",
    "available_parallelism",
]
