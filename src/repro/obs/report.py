"""Per-stage aggregation and the structured :class:`RunReport`.

The :class:`Aggregator` is the in-memory sink behind every enabled
tracer: it folds the event stream into per-span-path wall-time totals,
summed counters, and last-value gauges. :class:`RunReport` is the
serializable snapshot of that state plus provenance — build version,
schema version, pipeline-config echo, corpus stats — attached to
:class:`~repro.core.resolution.ResolutionResult` and written by
``repro resolve --report`` / ``repro profile`` / the benchmark harness.

Report JSON schema (version :data:`~repro.obs.events.SCHEMA_VERSION`)::

    {
      "schema": 1,
      "version": "1.0.0",            # build that produced the report
      "total_seconds": 1.23,         # sum of top-level span times
      "stages": [                    # first-start order (tree order)
        {"path": "pipeline.run", "name": "pipeline.run",
         "depth": 1, "calls": 1, "total_seconds": 1.23},
        ...
      ],
      "counters": {"pipeline.records": 180, ...},   # sorted keys
      "gauges": {"fpgrowth.distinct_transactions": 412.0, ...},
      "config": {...},               # PipelineConfig echo (or {})
      "corpus": {...},               # corpus stats (or {})
      "resilience": {...},           # degraded flag, checkpoint summary
      "parallel": {...},             # executor echo: workers, chunk counts
      "parallel_profile": {...}      # per-chunk overhead ledger (or {})
    }

The ``resilience`` block (schema in ``docs/RESILIENCE.md``), the
``parallel`` block (executor name, worker count, chunk/retry counts —
schema in ``docs/PARALLELISM.md``) and the ``parallel_profile`` block
(per-worker/per-chunk pickle bytes, queue-wait vs compute breakdown —
schema in ``docs/OBSERVABILITY.md``, rendered by ``repro profile
--timeline``) were added additively within schema version 1: old
readers ignore them, old reports deserialize with empty blocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.obs.events import COUNTER, GAUGE, SCHEMA_VERSION, SPAN_END, SPAN_START
from repro.obs.sinks import Sink
from repro.version import repro_version

__all__ = ["StageStats", "Aggregator", "RunReport"]


@dataclass
class StageStats:
    """Accumulated wall time of one span path (one pipeline stage)."""

    name: str
    path: str
    depth: int
    calls: int = 0
    total_seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "path": self.path,
            "depth": self.depth,
            "calls": self.calls,
            "total_seconds": self.total_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StageStats":
        return cls(
            name=str(payload["name"]),
            path=str(payload["path"]),
            depth=int(payload["depth"]),
            calls=int(payload["calls"]),
            total_seconds=float(payload["total_seconds"]),
        )


class Aggregator(Sink):
    """Folds the event stream into stage/counter/gauge aggregates.

    Stages are keyed by full span *path* so the same span name nested
    under different parents aggregates separately, and are kept in
    first-start order — parents before children, siblings in execution
    order — which is exactly tree order for rendering.
    """

    def __init__(self) -> None:
        self.stages: Dict[str, StageStats] = {}
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}

    def emit(self, event: Dict[str, Any]) -> None:
        kind = event.get("event")
        if kind == SPAN_START:
            path = event["path"]
            if path not in self.stages:
                self.stages[path] = StageStats(
                    name=event["name"], path=path, depth=event["depth"]
                )
        elif kind == SPAN_END:
            path = event["path"]
            stats = self.stages.get(path)
            if stats is None:  # defensive: end without start
                stats = StageStats(
                    name=event["name"], path=path, depth=event["depth"]
                )
                self.stages[path] = stats
            stats.calls += 1
            stats.total_seconds += event["duration"]
        elif kind == COUNTER:
            name = event["name"]
            self.counters[name] = self.counters.get(name, 0) + event["value"]
        elif kind == GAUGE:
            self.gauges[event["name"]] = event["value"]

    def total_seconds(self) -> float:
        """Wall time covered: the sum of top-level (depth-1) spans."""
        return sum(
            stats.total_seconds
            for stats in self.stages.values()
            if stats.depth == 1
        )


@dataclass
class RunReport:
    """A structured, serializable account of one instrumented run."""

    version: str
    schema_version: int
    total_seconds: float
    stages: List[StageStats] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    config: Dict[str, Any] = field(default_factory=dict)
    corpus: Dict[str, Any] = field(default_factory=dict)
    resilience: Dict[str, Any] = field(default_factory=dict)
    parallel: Dict[str, Any] = field(default_factory=dict)
    parallel_profile: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        aggregate: Aggregator,
        config: Optional[Mapping[str, Any]] = None,
        corpus: Optional[Mapping[str, Any]] = None,
        resilience: Optional[Mapping[str, Any]] = None,
        parallel: Optional[Mapping[str, Any]] = None,
        parallel_profile: Optional[Mapping[str, Any]] = None,
    ) -> "RunReport":
        """Snapshot an aggregator into a report (stages are copied)."""
        return cls(
            version=repro_version(),
            schema_version=SCHEMA_VERSION,
            total_seconds=aggregate.total_seconds(),
            stages=[
                StageStats(**stats.to_dict())
                for stats in aggregate.stages.values()
            ],
            counters=dict(aggregate.counters),
            gauges=dict(aggregate.gauges),
            config=dict(config or {}),
            corpus=dict(corpus or {}),
            resilience=dict(resilience or {}),
            parallel=dict(parallel or {}),
            parallel_profile=dict(parallel_profile or {}),
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema_version,
            "version": self.version,
            "total_seconds": self.total_seconds,
            "stages": [stats.to_dict() for stats in self.stages],
            "counters": {
                name: self.counters[name] for name in sorted(self.counters)
            },
            "gauges": {name: self.gauges[name] for name in sorted(self.gauges)},
            "config": self.config,
            "corpus": self.corpus,
            "resilience": self.resilience,
            "parallel": self.parallel,
            "parallel_profile": self.parallel_profile,
        }

    def to_json(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=1, sort_keys=False) + "\n"
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunReport":
        return cls(
            version=str(payload["version"]),
            schema_version=int(payload["schema"]),
            total_seconds=float(payload["total_seconds"]),
            stages=[
                StageStats.from_dict(entry) for entry in payload["stages"]
            ],
            counters={
                str(k): int(v) for k, v in payload.get("counters", {}).items()
            },
            gauges={
                str(k): float(v) for k, v in payload.get("gauges", {}).items()
            },
            config=dict(payload.get("config", {})),
            corpus=dict(payload.get("corpus", {})),
            resilience=dict(payload.get("resilience", {})),
            parallel=dict(payload.get("parallel", {})),
            parallel_profile=dict(payload.get("parallel_profile", {})),
        )

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "RunReport":
        return cls.from_dict(json.loads(Path(path).read_text()))

    # -- rendering -----------------------------------------------------------

    def format_table(self) -> str:
        """Per-stage time/counter table (the ``repro profile`` output).

        Stages print in tree order, indented by nesting depth, with each
        stage's share of the total; counters and gauges follow. The
        top-level stage times sum to ``total_seconds`` by construction,
        and nested rows sum to (almost all of) their parent because the
        instrumentation covers the hot path end to end.
        """
        total = self.total_seconds
        lines: List[str] = [
            f"run report (schema v{self.schema_version}, "
            f"repro {self.version})"
        ]
        label = self.config.get("label")
        if label:
            lines.append(f"config: {label}")
        if self.corpus:
            corpus_bits = ", ".join(
                f"{key}={self.corpus[key]}" for key in sorted(self.corpus)
            )
            lines.append(f"corpus: {corpus_bits}")
        workers = self.parallel.get("workers")
        if isinstance(workers, int) and workers > 1:
            lines.append(
                f"parallel: {self.parallel.get('executor')} executor, "
                f"{workers} workers, "
                f"{self.parallel.get('chunks', 0)} chunks "
                f"({self.parallel.get('worker_retries', 0)} retried)"
            )
        profile_totals = self.parallel_profile.get("totals") or {}
        if profile_totals:
            accounted = float(profile_totals.get("accounted_fraction", 0.0))
            lines.append(
                "parallel profile: "
                f"{profile_totals.get('dispatches', 0)} dispatches, "
                f"{accounted:.0%} of dispatch wall attributed "
                "(repro profile --timeline)"
            )
        if self.resilience.get("degraded"):
            lines.append(
                "DEGRADED: a stage budget was exhausted; "
                "results are best-so-far"
            )
        resumed = (self.resilience.get("checkpoints") or {}).get("resumed_from")
        if resumed:
            lines.append(f"resumed from checkpoint: {resumed}")
        lines.append("")

        rows: List[List[str]] = [
            [
                "  " * (stats.depth - 1) + stats.name,
                str(stats.calls),
                f"{stats.total_seconds:.4f}",
                f"{(stats.total_seconds / total * 100):5.1f}%" if total > 0 else "",
            ]
            for stats in self.stages
        ]
        rows.append(["total", "", f"{total:.4f}", "100.0%" if total > 0 else ""])
        headers = ["stage", "calls", "seconds", "share"]
        widths = [
            max(len(headers[col]), *(len(row[col]) for row in rows))
            for col in range(4)
        ]

        def render(cells: List[str]) -> str:
            return "  ".join(
                cell.ljust(width) for cell, width in zip(cells, widths)
            ).rstrip()

        lines.append(render(headers))
        lines.append(render(["-" * width for width in widths]))
        lines.extend(render(row) for row in rows)

        if self.counters:
            lines.append("")
            lines.append("counters:")
            width = max(len(name) for name in self.counters)
            for name in sorted(self.counters):
                lines.append(f"  {name.ljust(width)}  {self.counters[name]}")
        if self.gauges:
            lines.append("")
            lines.append("gauges:")
            width = max(len(name) for name in self.gauges)
            for name in sorted(self.gauges):
                lines.append(f"  {name.ljust(width)}  {self.gauges[name]:g}")
        return "\n".join(lines)

    def format_timeline(self) -> str:
        """Per-worker lane table + overhead-vs-compute summary.

        Renders the additive ``parallel_profile`` block (``repro
        profile --timeline``). Reports without the block — pre-profile
        reports, serial runs, untraced runs — render a one-line notice
        instead of failing, which is the forward-compatibility contract
        ``tests/test_obs.py`` pins. Every field access tolerates
        absence: a report written by a newer build with extra keys, or
        an older one missing some, still renders.
        """
        profile = self.parallel_profile
        if not profile or not profile.get("chunks"):
            return (
                "no parallel profile recorded - run traced with "
                "--workers > 1 (the serial executor has no dispatch "
                "overhead to attribute)"
            )
        lines: List[str] = [
            f"parallel timeline ({profile.get('executor', '?')} executor, "
            f"{profile.get('workers', '?')} workers, "
            f"{len(profile.get('dispatches') or [])} dispatches)"
        ]
        if profile.get("profile_memory"):
            lines.append(
                "memory profiling: tracemalloc peaks recorded per chunk"
            )
        lines.append("")

        lane_rows: List[List[str]] = []
        for index, lane in enumerate(profile.get("lanes") or []):
            name = f"w{index}"
            if lane.get("role") == "parent":
                name += " (parent)"
            lane_rows.append(
                [
                    name,
                    str(lane.get("worker", "")),
                    str(lane.get("chunks", 0)),
                    f"{float(lane.get('compute_seconds', 0.0)):.4f}",
                    f"{float(lane.get('queue_seconds', 0.0)):.4f}",
                    f"{float(lane.get('pickle_seconds', 0.0)):.4f}",
                    _kib(lane.get("payload_bytes_in", 0)),
                    _kib(lane.get("payload_bytes_out", 0)),
                ]
            )
        lines.extend(
            _render_table(
                ["lane", "pid", "chunks", "compute s", "queue s",
                 "pickle s", "in KiB", "out KiB"],
                lane_rows,
            )
        )
        lines.append(
            "(lanes overlap in wall time when chunks run concurrently; "
            "parent lanes are inline or crash-retried chunks)"
        )
        lines.append("")

        dispatch_rows: List[List[str]] = []
        for dispatch in profile.get("dispatches") or []:
            dispatch_rows.append(
                [
                    f"{dispatch.get('label', '?')} "
                    f"(#{dispatch.get('map_call', 0)})",
                    str(dispatch.get("chunks", 0)),
                    f"{float(dispatch.get('wall_seconds', 0.0)):.4f}",
                    f"{float(dispatch.get('pool_start_seconds', 0.0)):.4f}",
                    f"{float(dispatch.get('compute_seconds', 0.0)):.4f}",
                    f"{float(dispatch.get('queue_seconds', 0.0)):.4f}",
                    f"{float(dispatch.get('pickle_seconds', 0.0)):.4f}",
                    _kib(dispatch.get("payload_bytes_in", 0)),
                    f"{float(dispatch.get('accounted_fraction', 0.0)):.0%}",
                ]
            )
        lines.extend(
            _render_table(
                ["dispatch", "chunks", "wall s", "pool start s",
                 "compute s", "queue s", "pickle s", "in KiB", "accounted"],
                dispatch_rows,
            )
        )
        lines.append("")

        totals = profile.get("totals") or {}
        wall = float(totals.get("wall_seconds", 0.0))
        compute = float(totals.get("compute_seconds", 0.0))
        queue = float(totals.get("queue_seconds", 0.0))
        pickle_s = float(totals.get("pickle_seconds", 0.0))
        pool_start = float(totals.get("pool_start_seconds", 0.0))

        def share(seconds: float) -> str:
            return f"{seconds / wall:6.1%} of wall" if wall > 0 else ""

        lines.append("overhead vs compute:")
        lines.append(f"  dispatch wall              {wall:.4f} s")
        lines.append(
            f"  worker compute             {compute:.4f} s  {share(compute)}"
            .rstrip()
        )
        lines.append(
            f"  pickle (payloads+results)  {pickle_s:.4f} s  "
            f"{share(pickle_s)}".rstrip()
        )
        lines.append(
            f"  queue wait                 {queue:.4f} s  {share(queue)}"
            .rstrip()
        )
        lines.append(
            f"  pool start                 {pool_start:.4f} s  "
            f"{share(pool_start)}".rstrip()
        )
        peak = totals.get("tracemalloc_peak_bytes")
        if peak is not None:
            lines.append(
                f"  tracemalloc peak           {_kib(peak)} KiB (max chunk)"
            )
        accounted = float(totals.get("accounted_fraction", 0.0))
        lines.append(
            f"accounting: {accounted:.1%} of dispatch wall attributed "
            "parent-side (target >= 90%)"
        )
        return "\n".join(lines)


def _kib(value: Any) -> str:
    """Bytes rendered as KiB with one decimal (table-friendly)."""
    try:
        return f"{float(value) / 1024.0:.1f}"
    except (TypeError, ValueError):
        return "?"


def _render_table(headers: List[str], rows: List[List[str]]) -> List[str]:
    """Left-justified fixed-width text table (header, rule, rows)."""
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in rows))
        if rows
        else len(headers[col])
        for col in range(len(headers))
    ]

    def render(cells: List[str]) -> str:
        return "  ".join(
            cell.ljust(width) for cell, width in zip(cells, widths)
        ).rstrip()

    lines = [render(headers), render(["-" * width for width in widths])]
    lines.extend(render(row) for row in rows)
    return lines

