"""One benchmark job: a fresh interpreter making one ``repro infer`` call.

``run.py`` starts this script once per job with a JSON spec as its only
argument and ``src/`` on ``PYTHONPATH``.  The job imports what
``repro infer`` imports, then times Context construction (with the lazy
pool start inside the first job), the inference call, ``print_type`` of
the schema and the Context exit.  Just before the timed region it runs
:func:`host_probe`, which the harness uses to take host-speed drift out
of the timings.  It prints one JSON line: timings, resource usage, and
the digests the harness checks against its oracle.

Spec keys: ``job`` (id), ``spawned_at`` (the parent's ``time.monotonic()``
just before spawning), ``input`` (NDJSON path), ``parallel`` (two process
workers, four partitions, as ``--workers 2 --backend process``),
``stats_mode``, ``update`` (``{"checkpoint": K, "journal": J}`` or null)
and ``trace`` (record spans and per-layer metrics).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

# The CLI's import closure: the set-up every `repro infer` pays before it
# does any work.
import repro.cli  # noqa: F401
from repro.core.printer import print_type
from repro.engine import Context
from repro.inference import pipeline

_READY = time.monotonic()

#: Worker count and partition count of ``repro infer --workers 2``.
WORKERS = 2
PARTITIONS = 2 * WORKERS

_PROBE_KEYS = [f"key{i}" for i in range(512)]


def host_probe(reps: int = 5, n: int = 40_000) -> float:
    """Best-of-``reps`` seconds of a fixed pure-Python loop: how fast this
    host runs Python right now.

    Dict lookups and stores on string keys plus integer arithmetic, like
    the kernel's inner loops.  It keeps nothing alive between iterations
    and runs with the cyclic collector off, so its time does not depend
    on the heap the program under test has built.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(reps):
            table = dict.fromkeys(_PROBE_KEYS, 1)
            total = 0
            start = time.perf_counter()
            for i in range(n):
                key = _PROBE_KEYS[i & 511]
                total += table[key] + len(key)
                table[key] = (total & 7) + 1
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _tree_bytes(path: str) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _, names in os.walk(path) for name in names
    )


def main(spec: dict) -> dict:
    setup_s = _READY - spec["spawned_at"]
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer(spec["job"]).install()

    def span(name: str, layer: str):
        return tracer.span(name, layer) if tracer else nullcontext()

    kwargs = {"collect_timings": bool(tracer)}
    if spec["stats_mode"] != "off":
        kwargs["stats_mode"] = spec["stats_mode"]
    update = spec["update"]
    if update:
        kwargs.update(
            update_from=update["checkpoint"],
            checkpoint_to=update["checkpoint"],
            journal_path=update["journal"],
        )

    stats = None
    probe_s = host_probe()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    with span("job", "job"):
        if spec["parallel"]:
            with span("Context", "engine"):
                ctx = Context(parallelism=WORKERS, backend="process")
            with ctx:
                with span("infer_ndjson_file", "pipeline"):
                    run = pipeline.infer_ndjson_file(
                        spec["input"], context=ctx,
                        num_partitions=PARTITIONS, **kwargs,
                    )
                with span("print_type", "core"):
                    text = print_type(run.schema)
            stats = ctx.scheduler.stats
        else:
            with span("infer_ndjson_file", "pipeline"):
                run = pipeline.infer_ndjson_file(spec["input"], **kwargs)
            with span("print_type", "core"):
                text = print_type(run.schema)
    job_s = time.perf_counter() - start
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)

    stats_bytes = run.stats.to_bytes() if run.stats is not None else None
    result = {
        "job": spec["job"],
        "probe_s": probe_s,
        "setup_s": setup_s,
        "job_s": job_s,
        "cpu_s": _cpu_s(own) - _cpu_s(before) + _cpu_s(workers),
        "rss_mb": own.ru_maxrss / 1024,
        # Without a worker process (a sequential job, or a single split
        # that the scheduler runs inline) the job process maps itself.
        "worker_rss_mb": (workers.ru_maxrss or own.ru_maxrss) / 1024,
        "records": run.record_count - run.checkpoint_record_count,
        "record_count": run.record_count,
        "distinct": run.distinct_type_count,
        "schema_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "stats_sha256": (
            hashlib.sha256(stats_bytes).hexdigest()
            if stats_bytes is not None else None
        ),
    }
    if tracer is not None:
        from tracing import layer_metrics

        tracer.remove()
        written = (
            _tree_bytes(update["checkpoint"]) + _tree_bytes(update["journal"])
            if update else 0
        )
        result["layers"] = layer_metrics(tracer, stats, {
            "distinct": run.distinct_type_count,
            "input_bytes": os.path.getsize(spec["input"]),
            "stats_bytes": len(stats_bytes) if stats_bytes else 0,
            "bytes_written": written,
        })
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
