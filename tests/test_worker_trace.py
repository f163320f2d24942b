"""Worker-side tracing and parallel-overhead attribution (PR 7).

Pins the three promises of the cross-process tracing layer
(docs/OBSERVABILITY.md):

* **Schema fidelity** — :class:`WorkerTracer` buffers events through
  the same ``Span`` machinery as the parent tracer, so worker events
  carry the exact parent-side schema, and ``run_chunk`` ships a
  picklable ``(result bytes, trace export)`` pair.
* **Merge determinism** — worker buffers fold into the parent trace
  keyed by chunk index, so a shuffled arrival order produces the same
  merged sequence under :func:`strip_volatile` (timestamps and worker
  pids are the *only* schedule-dependent content).
* **Attribution without distortion** — a traced dispatch records a
  ``parallel_profile`` block whose buckets account for >= 90% of the
  dispatch wall, while ranked output stays byte-identical to the
  untraced run at every worker count (the acceptance criterion).
"""

from __future__ import annotations

import os
import pickle
import random

import pytest

from repro.core import PipelineConfig, UncertainERPipeline
from repro.datagen import build_corpus
from repro.obs import (
    InMemorySink,
    RunReport,
    Tracer,
    WorkerTracer,
    merge_worker_events,
    strip_volatile,
)
from repro.obs.clock import ManualClock
from repro.obs.worker import (
    WORKER_CHUNK_SPAN,
    WORKER_COMPUTE_SPAN,
    WORKER_DESERIALIZE_SPAN,
    WORKER_SERIALIZE_SPAN,
    ChunkProfile,
    DispatchProfile,
    ParallelProfile,
)
from repro.parallel import MultiprocessExecutor, make_executor, run_chunk
from repro.resilience import WorkerCrashPlan

WORKER_COUNTS = (1, 2, 4)


def _square_chunk(chunk):
    """Module-level (picklable) work function for traced dispatches."""
    return [value * value for value in chunk]


def _ranked_csv(dataset, executor, tmp_path, tag, tracer=None):
    pipeline = UncertainERPipeline(
        PipelineConfig(max_minsup=4, ng=3.0, expert_weighting=True),
        tracer=tracer,
        executor=executor,
    )
    out = tmp_path / f"{tag}.csv"
    pipeline.run(dataset).to_csv(out)
    return out.read_bytes()


@pytest.fixture(scope="module")
def small_corpus():
    dataset, _persons = build_corpus(
        n_persons=50, communities=("italy",), seed=29, name="trace-corpus"
    )
    return dataset


@pytest.fixture(scope="module")
def traced_run(small_corpus):
    """One traced 2-worker pipeline run shared by the profile tests."""
    tracer = Tracer()
    executor = MultiprocessExecutor(2)
    pipeline = UncertainERPipeline(
        PipelineConfig(max_minsup=4, ng=3.0, expert_weighting=True),
        tracer=tracer,
        executor=executor,
    )
    resolution = pipeline.run(small_corpus)
    return tracer, executor, resolution


# -- WorkerTracer -------------------------------------------------------------


class TestWorkerTracer:
    def test_spans_buffer_with_parent_schema(self):
        tracer = WorkerTracer(clock=ManualClock(tick=1.0))
        with tracer.span("outer", chunk=3):
            with tracer.span("inner"):
                pass
        kinds = [e["event"] for e in tracer.events]
        assert kinds == ["span_start", "span_start", "span_end", "span_end"]
        start = tracer.events[0]
        assert start["name"] == "outer"
        assert start["path"] == "outer"
        assert start["depth"] == 1
        assert start["attrs"] == {"chunk": 3}
        inner_end = tracer.events[2]
        assert inner_end["path"] == "outer/inner"
        assert inner_end["depth"] == 2
        assert inner_end["duration"] == pytest.approx(1.0)
        # No trace_start: a worker buffer is a trace *fragment*.
        assert all(e["event"] != "trace_start" for e in tracer.events)

    def test_events_are_sequence_numbered(self):
        tracer = WorkerTracer(clock=ManualClock())
        with tracer.span("a"):
            tracer.count("things", 2)
        tracer.gauge("size", 4.0)
        assert [e["seq"] for e in tracer.events] == [0, 1, 2, 3]

    def test_counters_and_gauges_carry_current_path(self):
        tracer = WorkerTracer(clock=ManualClock())
        with tracer.span("work"):
            tracer.count("pairs", 5)
        tracer.gauge("level", 1.0)
        assert tracer.events[1] == {
            "event": "counter", "name": "pairs", "path": "work",
            "value": 5, "seq": 1,
        }
        assert tracer.events[3]["path"] == ""

    def test_span_seconds_sums_closed_spans_by_name(self):
        tracer = WorkerTracer(clock=ManualClock(tick=1.0))
        with tracer.span("phase"):
            pass
        with tracer.span("phase"):
            pass
        with tracer.span("other"):
            pass
        assert tracer.span_seconds("phase") == pytest.approx(2.0)
        assert tracer.span_seconds("missing") == 0.0

    def test_stack_unwinds_on_error_with_error_attr(self):
        tracer = WorkerTracer(clock=ManualClock(tick=1.0))
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert tracer._stack == []
        end = tracer.events[-1]
        assert end["event"] == "span_end"
        assert end["attrs"]["error"] == "RuntimeError"

    def test_export_schema(self):
        tracer = WorkerTracer(clock=ManualClock(tick=1.0))
        with tracer.span(WORKER_CHUNK_SPAN, chunk=7):
            with tracer.span(WORKER_DESERIALIZE_SPAN):
                pass
            with tracer.span(WORKER_COMPUTE_SPAN):
                pass
            with tracer.span(WORKER_SERIALIZE_SPAN):
                pass
        export = tracer.export(7, result_bytes=42)
        assert export["chunk"] == 7
        assert export["result_bytes"] == 42
        assert export["tracemalloc_peak_bytes"] is None
        assert isinstance(export["pid"], int)
        assert export["deserialize_seconds"] == pytest.approx(1.0)
        assert export["compute_seconds"] == pytest.approx(1.0)
        assert export["serialize_seconds"] == pytest.approx(1.0)
        # The chunk span wraps all three children (7 ticks on this clock).
        assert export["worker_seconds"] == pytest.approx(7.0)
        assert export["events"] == tracer.events
        # The export must survive the process boundary.
        assert pickle.loads(pickle.dumps(export)) == export


# -- run_chunk ----------------------------------------------------------------


class TestRunTracedChunk:
    def test_round_trip_result_and_trace(self):
        blob = pickle.dumps([1, 2, 3], protocol=pickle.HIGHEST_PROTOCOL)
        result_blob, trace = run_chunk((_square_chunk, 4, blob, False))
        assert pickle.loads(result_blob) == [1, 4, 9]
        assert trace["chunk"] == 4
        assert trace["result_bytes"] == len(result_blob)
        assert trace["tracemalloc_peak_bytes"] is None
        names = [e["name"] for e in trace["events"] if e["event"] == "span_end"]
        assert names == [
            WORKER_DESERIALIZE_SPAN,
            WORKER_COMPUTE_SPAN,
            WORKER_SERIALIZE_SPAN,
            WORKER_CHUNK_SPAN,
        ]

    def test_profile_memory_records_tracemalloc_peak(self):
        blob = pickle.dumps(list(range(100)), protocol=pickle.HIGHEST_PROTOCOL)
        _result, trace = run_chunk((_square_chunk, 0, blob, True))
        assert trace["tracemalloc_peak_bytes"] is not None
        assert trace["tracemalloc_peak_bytes"] > 0

    def test_work_function_exception_propagates(self):
        def boom(_chunk):
            raise ValueError("bad payload")

        blob = pickle.dumps([1], protocol=pickle.HIGHEST_PROTOCOL)
        # In-process call: the closure needn't be picklable here.
        with pytest.raises(ValueError):
            run_chunk((boom, 0, blob, False))


# -- merge determinism --------------------------------------------------------


def _fragment(chunk, pid):
    """A synthetic worker export: one chunk span plus a counter."""
    tracer = WorkerTracer(clock=ManualClock(start=float(pid), tick=0.5))
    with tracer.span(WORKER_CHUNK_SPAN, chunk=chunk):
        with tracer.span(WORKER_COMPUTE_SPAN):
            tracer.count("worker.items", chunk + 1)
    export = tracer.export(chunk)
    export["pid"] = pid  # decouple from the test process pid
    return export


def _merged_events(traces):
    sink = InMemorySink()
    tracer = Tracer(clock=ManualClock(tick=1.0), sinks=[sink])
    with tracer.span("parallel.map"):
        merge_worker_events(tracer, traces)
    return [
        strip_volatile(event)
        for event in sink.events
        if event["event"] not in ("trace_start",)
    ]


class TestMergeDeterminism:
    def test_shuffled_arrival_orders_merge_identically(self):
        traces = [_fragment(chunk, pid=9000 + chunk) for chunk in range(6)]
        baseline = _merged_events(traces)
        for seed in (1, 7, 42):
            shuffled = list(traces)
            random.Random(seed).shuffle(shuffled)
            # Different pids too: the adversary controls the schedule.
            relabeled = [
                dict(trace, pid=5000 + seed * 10 + i)
                for i, trace in enumerate(shuffled)
            ]
            assert _merged_events(relabeled) == baseline

    def test_merged_events_nest_under_open_parent_span(self):
        sink = InMemorySink()
        tracer = Tracer(clock=ManualClock(tick=1.0), sinks=[sink])
        with tracer.span("dispatch"):
            merge_worker_events(tracer, [_fragment(0, pid=111)])
        merged = [
            e for e in sink.events
            if e.get("name") == WORKER_CHUNK_SPAN
        ]
        assert merged
        for event in merged:
            assert event["path"] == f"dispatch/{WORKER_CHUNK_SPAN}"
            assert event["depth"] == 2
            assert event["attrs"]["worker"] == 111
            assert event["attrs"]["chunk"] == 0

    def test_counter_events_gain_attrs_but_not_depth(self):
        sink = InMemorySink()
        tracer = Tracer(clock=ManualClock(), sinks=[sink])
        merge_worker_events(tracer, [_fragment(2, pid=7)])
        counters = [e for e in sink.events if e["event"] == "counter"]
        assert counters
        assert counters[0]["attrs"] == {"worker": 7, "chunk": 2}
        assert "depth" not in counters[0]

    def test_merged_counters_aggregate_in_parent(self):
        tracer = Tracer(clock=ManualClock())
        merge_worker_events(
            tracer, [_fragment(c, pid=100 + c) for c in range(3)]
        )
        # chunks 0..2 count chunk+1 items each => 1 + 2 + 3.
        assert tracer.aggregate.counters["worker.items"] == 6

    def test_disabled_tracer_is_a_noop(self):
        tracer = Tracer(enabled=False)
        merge_worker_events(tracer, [_fragment(0, pid=1)])
        assert tracer.aggregate is None


# -- traced dispatch: profile + parity ----------------------------------------


class TestTracedDispatch:
    def test_traced_map_matches_untraced_results(self):
        payloads = [list(range(i, i + 4)) for i in range(0, 16, 4)]
        untraced = MultiprocessExecutor(2).map_chunks(
            _square_chunk, payloads
        )
        traced_executor = MultiprocessExecutor(2)
        traced = traced_executor.map_chunks(
            _square_chunk, payloads, tracer=Tracer()
        )
        assert traced == untraced
        assert traced_executor.stats.worker_chunks == len(payloads)

    def test_dispatch_profile_buckets_and_chunks(self):
        executor = MultiprocessExecutor(2)
        payloads = [list(range(i, i + 4)) for i in range(0, 16, 4)]
        executor.map_chunks(_square_chunk, payloads, tracer=Tracer())
        assert len(executor.profile.dispatches) == 1
        dispatch = executor.profile.dispatches[0]
        assert len(dispatch.chunks) == len(payloads)
        assert dispatch.wall_seconds > 0
        assert dispatch.accounted_fraction() >= 0.9
        for profile in dispatch.chunks:
            assert profile.payload_bytes_in > 0
            assert profile.payload_bytes_out > 0
            assert profile.worker > 0
            assert profile.round_trip_seconds >= profile.queue_seconds
            assert not profile.inline
            assert not profile.retried

    def test_single_chunk_runs_inline_in_parent(self):
        executor = MultiprocessExecutor(2)
        results = executor.map_chunks(
            _square_chunk, [[1, 2, 3]], tracer=Tracer()
        )
        assert results == [[1, 4, 9]]
        [dispatch] = executor.profile.dispatches
        [profile] = dispatch.chunks
        assert profile.inline
        assert profile.worker == os.getpid()
        assert executor.stats.inline_chunks == 1

    def test_crash_retry_is_traced_and_flagged(self):
        payloads = [list(range(i, i + 3)) for i in range(0, 12, 3)]
        expected = [_square_chunk(p) for p in payloads]
        plan = WorkerCrashPlan(map_call=0, chunk=0)
        executor = MultiprocessExecutor(2, worker_fault=plan)
        tracer = Tracer()
        assert executor.map_chunks(
            _square_chunk, payloads, tracer=tracer
        ) == expected
        assert plan.fired
        assert executor.stats.worker_retries >= 1
        [dispatch] = executor.profile.dispatches
        retried = [c for c in dispatch.chunks if c.retried]
        assert retried
        # Retries run in-process, so they land on the parent's lane.
        assert all(c.worker == os.getpid() for c in retried)
        assert tracer.aggregate.counters["parallel.worker_retries"] >= 1

    def test_profile_memory_flows_to_gauge_and_block(self):
        executor = MultiprocessExecutor(2, profile_memory=True)
        tracer = Tracer()
        executor.map_chunks(
            _square_chunk,
            [list(range(50)), list(range(50, 100))],
            tracer=tracer,
        )
        assert tracer.aggregate.gauges["parallel.tracemalloc_peak_bytes"] > 0
        block = executor.profile_echo()
        assert block["profile_memory"] is True
        assert block["totals"]["tracemalloc_peak_bytes"] > 0

    def test_untraced_dispatch_records_no_profile(self):
        executor = MultiprocessExecutor(2)
        executor.map_chunks(_square_chunk, [[1, 2], [3, 4]])
        assert executor.profile.dispatches == []
        assert executor.profile_echo() == {}


class TestPipelineProfile:
    """The shared traced 2-worker run: block shape + report wiring."""

    def test_worker_spans_reach_report_stages(self, traced_run):
        _tracer, _executor, resolution = traced_run
        paths = [s.path for s in resolution.report.stages]
        assert any(path.endswith("worker.compute") for path in paths)
        compute = [
            s for s in resolution.report.stages
            if s.name == "worker.compute"
        ]
        assert sum(s.total_seconds for s in compute) > 0

    def test_profile_block_accounts_ninety_percent(self, traced_run):
        _tracer, executor, resolution = traced_run
        block = resolution.report.parallel_profile
        assert block["executor"] == "multiprocess"
        assert block["workers"] == 2
        totals = block["totals"]
        # The acceptance gate: overhead buckets must explain the wall.
        assert totals["accounted_fraction"] >= 0.9
        assert totals["wall_seconds"] > 0
        assert totals["compute_seconds"] > 0
        assert totals["pickle_seconds"] > 0
        assert totals["payload_bytes_in"] > 0
        assert totals["payload_bytes_out"] > 0
        assert totals["chunks"] == len(block["chunks"])
        assert totals["dispatches"] == len(block["dispatches"])
        assert block == executor.profile_echo()

    def test_lanes_group_chunks_by_pid(self, traced_run):
        _tracer, _executor, resolution = traced_run
        block = resolution.report.parallel_profile
        lanes = block["lanes"]
        assert lanes
        assert sum(lane["chunks"] for lane in lanes) == len(block["chunks"])
        pids = [lane["worker"] for lane in lanes]
        assert len(pids) == len(set(pids))
        for lane in lanes:
            assert lane["role"] in ("parent", "worker")

    def test_payload_counters_emitted(self, traced_run):
        tracer, _executor, _resolution = traced_run
        counters = tracer.aggregate.counters
        assert counters["parallel.payload_bytes_in"] > 0
        assert counters["parallel.payload_bytes_out"] > 0
        assert counters["parallel.chunks"] > 0

    def test_timeline_renders_nonzero_breakdown(self, traced_run):
        _tracer, _executor, resolution = traced_run
        timeline = resolution.report.format_timeline()
        assert "parallel timeline" in timeline
        assert "lane" in timeline and "pid" in timeline
        assert "overhead vs compute" in timeline
        assert "accounting:" in timeline
        assert "0.0000" not in timeline.split("dispatch wall")[1].split(
            "\n"
        )[0]  # the wall line itself is nonzero

    def test_format_table_mentions_profile(self, traced_run):
        _tracer, _executor, resolution = traced_run
        table = resolution.report.format_table()
        assert "parallel profile:" in table
        assert "repro profile --timeline" in table

    def test_block_round_trips_through_json(self, traced_run, tmp_path):
        _tracer, _executor, resolution = traced_run
        path = tmp_path / "traced.report.json"
        resolution.report.to_json(path)
        loaded = RunReport.from_json(path)
        assert loaded.parallel_profile == resolution.report.parallel_profile
        assert loaded.format_timeline() == resolution.report.format_timeline()


class TestTracedParity:
    """Acceptance: instrumentation must not change ranked output."""

    def test_traced_output_byte_identical_per_worker_count(
        self, small_corpus, tmp_path
    ):
        untraced_serial = _ranked_csv(
            small_corpus, make_executor(1), tmp_path, "plain-w1"
        )
        for workers in WORKER_COUNTS:
            traced = _ranked_csv(
                small_corpus,
                make_executor(workers),
                tmp_path,
                f"traced-w{workers}",
                tracer=Tracer(),
            )
            assert traced == untraced_serial, (
                f"traced --workers {workers} diverged from untraced serial"
            )


# -- profile dataclasses ------------------------------------------------------


class TestProfileAccounting:
    def test_chunk_pickle_seconds_sums_both_sides(self):
        chunk = ChunkProfile(
            chunk=0, worker=1,
            serialize_seconds=0.1, deserialize_seconds=0.2,
            result_serialize_seconds=0.3, result_deserialize_seconds=0.4,
        )
        assert chunk.pickle_seconds() == pytest.approx(1.0)

    def test_dispatch_accounted_fraction(self):
        dispatch = DispatchProfile(
            label="parallel.map", map_call=0, wall_seconds=2.0,
            serialize_seconds=0.5, submit_seconds=0.3, collect_seconds=0.9,
            teardown_seconds=0.1, deserialize_seconds=0.1,
            merge_seconds=0.05,
        )
        assert dispatch.accounted_seconds() == pytest.approx(1.95)
        assert dispatch.accounted_fraction() == pytest.approx(0.975)

    def test_zero_wall_counts_as_fully_accounted(self):
        dispatch = DispatchProfile(label="x", map_call=0, wall_seconds=0.0)
        assert dispatch.accounted_fraction() == 1.0

    def test_empty_profile_block_is_empty(self):
        profile = ParallelProfile()
        assert profile.to_block(
            executor="multiprocess", workers=4, parent_pid=1,
            profile_memory=False,
        ) == {}

    def test_block_orders_chunks_and_lanes_deterministically(self):
        profile = ParallelProfile()
        dispatch = DispatchProfile(label="m", map_call=0, wall_seconds=1.0)
        # Chunks appended out of order: the block must sort by index.
        dispatch.chunks = [
            ChunkProfile(chunk=2, worker=30, compute_seconds=0.3),
            ChunkProfile(chunk=0, worker=10, compute_seconds=0.1),
            ChunkProfile(chunk=1, worker=10, compute_seconds=0.2),
        ]
        profile.add(dispatch)
        block = profile.to_block(
            executor="multiprocess", workers=2, parent_pid=99,
            profile_memory=False,
        )
        assert [row["chunk"] for row in block["chunks"]] == [0, 1, 2]
        assert [lane["worker"] for lane in block["lanes"]] == [10, 30]
        assert block["lanes"][0]["chunks"] == 2
        assert block["totals"]["compute_seconds"] == pytest.approx(0.6)
