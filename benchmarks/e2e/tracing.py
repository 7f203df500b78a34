"""Spans for the traced benchmark run.

:class:`Tracer` replaces the module attributes through which a job
calls into each layer (``repro.inference.pipeline.plan_splits``,
``repro.engine.scheduler.Scheduler.run``,
``repro.store.checkpoint.load_checkpoint``, ...) with wrappers that
record a span around every call: name, layer, start, end, parent,
pid/tid and job id.  Nothing under ``src/`` changes; the wrappers live
only in the job process that installed them.  Spans stay in memory and
leave the job in its result line.

The layer of a span is the module it calls into (``jsonio``, ``kernel``,
``wire``, ``reduce``, ``engine``, ``store``, ``core``); ``pipeline`` is
the glue code of :func:`repro.inference.pipeline.infer_ndjson_file`
itself.  Work inside worker processes is not spanned: it arrives as the
per-task :class:`~repro.inference.kernel.PhaseTimings` that
``collect_timings=True`` makes the kernel attach to each summary, and
the wrappers around the functions that return summaries collect them.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from contextlib import contextmanager
from statistics import mean

#: (owner, attribute, layer).  An owner is a module path, or
#: ``module:Class`` for a method.  The pipeline imports its kernel and
#: split helpers by name, so those are wrapped where the pipeline looks
#: them up; it imports the store lazily, so store functions are wrapped
#: on their own modules.  All of these run in the job process, not in
#: its workers.
WRAPPED = (
    ("repro.inference.pipeline", "plan_splits", "jsonio"),
    ("repro.inference.pipeline", "accumulate_ndjson_partition", "kernel"),
    ("repro.inference.pipeline", "decode_summary", "wire"),
    ("repro.inference.pipeline", "decode_summary_light", "wire"),
    ("repro.inference.pipeline", "merge_summaries_full", "reduce"),
    ("repro.engine.scheduler:Scheduler", "run", "engine"),
    ("repro.engine.scheduler:Scheduler", "shutdown", "engine"),
    ("repro.store.checkpoint", "load_checkpoint", "store"),
    ("repro.store.checkpoint", "save_checkpoint", "store"),
    ("repro.store.checkpoint", "fingerprint_source", "store"),
    ("repro.store.checkpoint", "parse_type", "core"),
    ("repro.store.journal:RunJournal", "create", "store"),
    ("repro.store.journal:RunJournal", "append_task", "store"),
    ("repro.store.journal:RunJournal", "append_commit", "store"),
    ("repro.store.journal:RunJournal", "close", "store"),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _span_name(owner: str, attr: str) -> str:
    """``pipeline.plan_splits``, ``Scheduler.run``, ``RunJournal.create``."""
    return f"{owner.replace(':', '.').rpartition('.')[2]}.{attr}"


class Tracer:
    """Span recorder for one job; :meth:`install` patches the layer entry
    points, :meth:`remove` restores them."""

    def __init__(self, job: int) -> None:
        self.job = job
        self.pid = os.getpid()
        self.spans: list[dict] = []
        #: One row per task summary the job process saw:
        #: ``(worker, parse_type_s, fuse_s, records)``.
        self.tasks: list[tuple[str, float, float, int]] = []
        #: Length of each list handed to ``merge_summaries_full``.
        self.partials: list[int] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, layer: str):
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": stack[-1]["id"] if stack else None,
            "pid": self.pid,
            "tid": threading.get_ident(),
            "job": self.job,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def _note_task(self, summary) -> None:
        timings = summary.timings
        if timings is not None:
            self.tasks.append((
                summary.worker, timings.parse_s + timings.type_s,
                timings.fuse_s, timings.records,
            ))

    def install(self) -> "Tracer":
        on_result = {
            "accumulate_ndjson_partition": self._note_task,
            "decode_summary": self._note_task,
            "decode_summary_light": lambda pair: self._note_task(pair[0]),
        }
        on_call = {
            "merge_summaries_full":
                lambda args: self.partials.append(len(args[0])),
        }
        for owner_name, attr, layer in WRAPPED:
            owner = _resolve(owner_name)
            raw = owner.__dict__[attr]
            traced = self._wrap(
                getattr(owner, attr), _span_name(owner_name, attr), layer,
                on_call.get(attr), on_result.get(attr),
            )
            if isinstance(raw, classmethod):
                # getattr() gave the method already bound to the class.
                traced = staticmethod(traced)
            setattr(owner, attr, traced)
            self._undo.append((owner, attr, raw))
        return self

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def _wrap(self, original, name: str, layer: str, on_call, on_result):
        span = self.span

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            with span(name, layer):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def check_nesting(spans: list[dict], slack: float = 0.0) -> list[str]:
    """Problems with the span tree: a child outside its parent, or a
    negative self time, beyond ``slack`` (for spans read back from a
    rounded format).  Empty when the spans nest."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if s["parent"] is None:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            problems.append(f"span {s['id']} ({s['name']}) has no parent")
        elif not (parent["start"] - slack <= s["start"] <= s["end"]
                  <= parent["end"] + slack):
            problems.append(
                f"span {s['id']} ({s['name']}) lies outside its parent "
                f"{parent['id']} ({parent['name']})"
            )
    for span_id, own in self_times(spans).items():
        if own < -slack:
            problems.append(
                f"span {span_id} ({by_id[span_id]['name']}) has negative "
                f"self time {own:.6f}s"
            )
    return problems


def layer_metrics(tracer: Tracer, stats, extra: dict) -> dict:
    """The per-layer metrics of one traced job.

    ``stats`` is the job's :class:`~repro.engine.scheduler.SchedulerStats`
    (``None`` for a sequential job).  ``extra`` carries what the job knows
    outside the spans: the distinct count, the input bytes, the
    statistics bytes and the bytes the store wrote.
    """
    spans = tracer.spans
    own = self_times(spans)

    def total(name: str) -> float:
        return sum(
            (s["end"] - s["start"] for s in spans if s["name"] == name), 0.0
        )

    root = next(s for s in spans if s["parent"] is None)
    job_s = root["end"] - root["start"]
    infer_ids = {s["id"] for s in spans if s["name"] == "infer_ndjson_file"}
    # The map job is the Scheduler.run the pipeline calls itself; a tree
    # reduce would run further jobs under merge_summaries_full.
    map_runs = sum(
        (s["end"] - s["start"] for s in spans
         if s["name"] == "Scheduler.run" and s["parent"] in infer_ids), 0.0
    )

    busy: dict[str, float] = {}
    parse_type = fuse = 0.0
    task_records = 0
    for worker, pt, fu, records in tracer.tasks:
        busy[worker] = busy.get(worker, 0.0) + pt + fu
        parse_type += pt
        fuse += fu
        task_records += records
    map_busy = parse_type + fuse
    if map_runs and busy:
        overhead = map_runs - max(busy.values())
        skew = max(busy.values()) / mean(busy.values())
    else:
        overhead, skew = 0.0, 1.0

    input_bytes = extra["input_bytes"]
    bytes_written = extra["bytes_written"]
    return {
        "jsonio.plan_s": total("pipeline.plan_splits"),
        "jsonio.bytes_read": (
            stats.input_bytes_read if stats is not None else input_bytes
        ),
        "kernel.map_wall_s": (
            map_runs + total("pipeline.accumulate_ndjson_partition")
        ),
        "kernel.map_busy_s": map_busy,
        "kernel.records_per_busy_s": (
            task_records / map_busy if map_busy else 0.0
        ),
        "kernel.parse_type_s": parse_type,
        "kernel.fuse_s": fuse,
        "kernel.distinct_types": extra["distinct"],
        "kernel.tasks": (
            stats.tasks_completed if stats is not None else len(tracer.tasks)
        ),
        "wire.decode_s": (
            total("pipeline.decode_summary")
            + total("pipeline.decode_summary_light")
        ),
        "wire.bytes": (
            stats.summary_wire_bytes_decoded if stats is not None else 0
        ),
        "reduce.merge_s": total("pipeline.merge_summaries_full"),
        "reduce.partials": sum(tracer.partials),
        "engine.overhead_s": overhead,
        "engine.worker_skew": skew,
        "engine.retries": stats.retries if stats is not None else 0,
        "engine.pool_rebuilds": (
            stats.pool_rebuilds if stats is not None else 0
        ),
        "engine.shutdown_s": total("Scheduler.shutdown"),
        "statistics.bytes": extra["stats_bytes"],
        "statistics.bundles_merged": (
            stats.stats_bundles_merged if stats is not None else 0
        ),
        "store.checkpoint_load_s": total("checkpoint.load_checkpoint"),
        "store.checkpoint_save_s": total("checkpoint.save_checkpoint"),
        "store.journal_s": sum(
            (s["end"] - s["start"] for s in spans
             if s["name"].startswith("RunJournal.")), 0.0
        ),
        "store.bytes_written": bytes_written,
        "store.write_amplification": (
            bytes_written / input_bytes if input_bytes else 0.0
        ),
        "core.parse_type_s": total("checkpoint.parse_type"),
        "core.print_s": total("print_type"),
        "pipeline.self_s": sum(own[i] for i in infer_ids),
        "trace.coverage": 1.0 - own[root["id"]] / job_s,
    }


def chrome_trace(spans: list[dict]) -> dict:
    """Spans as a Chrome trace-event document (Perfetto and
    chrome://tracing open it as is)."""
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {
                "name": s["name"],
                "cat": s["layer"],
                "ph": "X",
                "ts": s["start"] * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "pid": s["pid"],
                "tid": s["tid"],
                "args": {
                    "job": s["job"], "id": s["id"], "parent": s["parent"],
                },
            }
            for s in spans
        ],
    }
