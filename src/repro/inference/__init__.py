"""Schema inference: the paper's primary contribution (Section 5).

* :mod:`repro.inference.infer` — value typing, the Map phase (Fig. 4).
* :mod:`repro.inference.fusion` — type fusion, the Reduce phase (Figs. 5-6).
* :mod:`repro.inference.pipeline` — end-to-end, incremental and
  partition-isolated pipelines, all on the kernel.
* :mod:`repro.inference.kernel` — the single-pass streaming kernel the
  pipelines run on: per-partition interning accumulator that fuses its
  distinct types in one n-ary ``Fuse``, merged at the driver by one reduce
  (:func:`~repro.inference.kernel.merge_summaries_full`).
* :mod:`repro.inference.statistics` — mergeable per-path statistics
  (counters, ranges, HyperLogLog / Bloom sketches) riding the summary
  monoid, JSONoid-style: the statistics enrichment sketched as future
  work in Section 7.
* :mod:`repro.inference.counting` — presence ratios: a statistics
  bundle joined back onto a fused schema.
* :mod:`repro.inference.parametric` — equivalence-parameterised fusion
  (the precision/succinctness axis of Section 7's future work).
"""

from repro.inference.counting import FieldPresence, presence_report
from repro.inference.fusion import (
    collapse,
    fuse,
    fuse_all,
    fuse_multiset,
    lfuse,
    simplify,
)
from repro.inference.infer import infer_type
from repro.inference.kernel import (
    PartitionAccumulator,
    PartitionSummary,
    PhaseTimings,
    accumulate_ndjson_partition,
    accumulate_partition,
    merge_phase_timings,
    merge_summaries_full,
)
from repro.inference.statistics import (
    STATS_MODES,
    BloomFilter,
    HyperLogLog,
    MergeableStatistic,
    StatsBundle,
    merge_stats,
    resolve_stats_mode,
    stats_if_complete,
)
from repro.inference.parametric import (
    ParametricFuser,
    fuse_labelled,
    infer_schema_labelled,
    label_equivalence,
)
from repro.jsonio.typestream import FastLaneMiss, guarded_decoder

from repro.inference.pipeline import (
    InferenceRun,
    PartitionReport,
    PartitionedRun,
    SchemaInferencer,
    infer_partitioned,
    infer_schema,
    run_inference,
)

__all__ = [
    "infer_type", "fuse", "lfuse", "collapse", "fuse_all",
    "fuse_multiset", "simplify",
    "infer_schema", "run_inference", "InferenceRun",
    "SchemaInferencer", "infer_partitioned", "PartitionReport",
    "PartitionedRun",
    "PartitionAccumulator", "PartitionSummary",
    "PhaseTimings", "merge_phase_timings",
    "accumulate_partition", "accumulate_ndjson_partition",
    "merge_summaries_full",
    "FastLaneMiss", "guarded_decoder",
    "FieldPresence", "presence_report",
    "STATS_MODES", "MergeableStatistic", "StatsBundle",
    "HyperLogLog", "BloomFilter", "merge_stats", "resolve_stats_mode",
    "stats_if_complete",
    "ParametricFuser", "label_equivalence", "fuse_labelled",
    "infer_schema_labelled",
]
