"""Observability: tracing spans, counters, and run reports.

The paper's deployment story (Sections 6-7) is a performance story —
MFIBlocks minsup iterations, FPMax mining, CS/SN pruning, and
ADTree ranking dominate runtime (Fig. 12) — and optimizing any of it
requires knowing where time goes first. This package is that substrate:

* :class:`Tracer` — nested monotonic-clock spans plus typed counters
  and gauges, near-zero-cost when disabled (the default);
* pluggable clocks (:mod:`repro.obs.clock`) and sinks
  (:mod:`repro.obs.sinks`): no-op, JSONL event stream, in-memory
  aggregation;
* :class:`RunReport` — the structured per-stage wall-time / counter
  summary attached to every traced
  :class:`~repro.core.resolution.ResolutionResult` and emitted by
  ``repro resolve --report`` / ``repro profile``.

Instrumented library code stays deterministic: with the default
:data:`NULL_TRACER` nothing is computed, and with tracing enabled only
the timestamp fields of emitted events vary between runs (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from repro.obs.clock import Clock, ManualClock, MonotonicClock
from repro.obs.events import (
    SCHEDULE_ATTRS,
    SCHEMA_VERSION,
    TIMESTAMP_FIELDS,
    strip_timestamps,
    strip_volatile,
)
from repro.obs.report import Aggregator, RunReport, StageStats
from repro.obs.sinks import InMemorySink, JsonlSink, NullSink, Sink
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.obs.worker import (
    ChunkProfile,
    DispatchProfile,
    ParallelProfile,
    WorkerTracer,
    merge_worker_events,
)

__all__ = [
    "Clock",
    "ManualClock",
    "MonotonicClock",
    "SCHEDULE_ATTRS",
    "SCHEMA_VERSION",
    "TIMESTAMP_FIELDS",
    "strip_timestamps",
    "strip_volatile",
    "Aggregator",
    "RunReport",
    "StageStats",
    "InMemorySink",
    "JsonlSink",
    "NullSink",
    "Sink",
    "NULL_TRACER",
    "Tracer",
    "ChunkProfile",
    "DispatchProfile",
    "ParallelProfile",
    "WorkerTracer",
    "merge_worker_events",
]
