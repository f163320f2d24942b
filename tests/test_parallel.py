"""Parity harness for the deterministic parallel execution layer.

The parallel layer's contract (docs/PARALLELISM.md) is *determinism by
merge, not by schedule*: ``--workers N`` must produce output
byte-identical to ``--workers 1`` for every N, every chunk size, and
every interleaving the OS scheduler picks — including runs resumed from
checkpoints written under a *different* worker count, runs degraded by
a stage budget, and runs where a worker is killed mid-chunk.

This file pins that contract three ways:

* unit tests for the chunk planner and both executors (submission-order
  collection, inline shortcut, crash retry, stats accounting), with
  every fault case run untraced and traced and held to equal stats;
* a serial-vs-parallel parity matrix over corpus sizes x worker counts
  x chunk sizes, comparing the full ranked CSV bytes;
* cross-cutting parity: checkpoint resume across worker counts, budget
  degradation, the run-report ``parallel`` block, and the CLI flags.
"""

from __future__ import annotations

import json
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cli import main as cli_main
from repro.core import PipelineConfig, UncertainERPipeline
from repro.core.pipeline import PIPELINE_STAGES
from repro.datagen import ExpertTagger, build_corpus, simplify_tags
from repro.obs import Tracer
from repro.parallel import (
    MultiprocessExecutor,
    SerialExecutor,
    fixed_chunks,
    make_executor,
    partition_evenly,
)
from repro.resilience import (
    CheckpointStore,
    FaultInjector,
    FaultPlan,
    SimulatedCrash,
    StageBudget,
    WorkerCrashPlan,
    WorkerHangPlan,
)

CONFIG = dict(max_minsup=4, ng=3.0, expert_weighting=True)


def _square_chunk(chunk):
    """Module-level (picklable) work function for executor unit tests."""
    return [value * value for value in chunk]


def _sum_chunk(chunk):
    return sum(chunk)


def _fail_on_three(chunk):
    if 3 in chunk:
        raise ValueError("chunk holds 3")
    return chunk


def _dispatch_untraced_and_traced(new_executor, payloads):
    """Run one dispatch untraced, then traced, each on a fresh executor.

    Both runs must return ``SerialExecutor``'s results: the tracer
    decides only what is recorded, never what runs. Returns the two
    (closed) executors and the traced run's tracer.
    """
    expected = SerialExecutor().map_chunks(_square_chunk, payloads)
    tracer = Tracer()
    executors = []
    for run_tracer in (None, tracer):
        executor = new_executor()
        try:
            assert (
                executor.map_chunks(_square_chunk, payloads, tracer=run_tracer)
                == expected
            )
        finally:
            executor.close()
        executors.append(executor)
    tracer.close()
    untraced, traced = executors
    return untraced, traced, tracer


class _PoolBreaksAfterFirstSubmit:
    """A pool stand-in whose workers die after the first submission."""

    def __init__(self):
        self.submitted = 0
        self.shutdowns = []

    def submit(self, fn, *args):
        if self.submitted:
            raise BrokenProcessPool("a worker died during submission")
        self.submitted += 1
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))


def _resolve_csv(dataset, executor, tmp_path, tag, config=None):
    """Run the full pipeline under ``executor``; return ranked CSV bytes."""
    pipeline = UncertainERPipeline(
        PipelineConfig(**(config or CONFIG)), executor=executor
    )
    out = tmp_path / f"{tag}.csv"
    pipeline.run(dataset).to_csv(out)
    return out.read_bytes()


# -- chunk planning -----------------------------------------------------------


class TestChunking:
    def test_partition_evenly_is_a_balanced_partition(self):
        items = list(range(10))
        chunks = partition_evenly(items, 3)
        assert [len(c) for c in chunks] == [4, 3, 3]
        assert [x for chunk in chunks for x in chunk] == items

    def test_partition_evenly_clamps_to_item_count(self):
        assert partition_evenly([1, 2], 8) == [[1], [2]]
        assert partition_evenly([], 4) == []

    def test_fixed_chunks_splits_by_size(self):
        assert fixed_chunks(list(range(7)), 3) == [[0, 1, 2], [3, 4, 5], [6]]
        assert fixed_chunks([], 3) == []

    def test_chunking_rejects_nonpositive_arguments(self):
        with pytest.raises(ValueError):
            partition_evenly([1], 0)
        with pytest.raises(ValueError):
            fixed_chunks([1], 0)


# -- executors ----------------------------------------------------------------


class TestExecutors:
    def test_make_executor_dispatches_on_worker_count(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(0), SerialExecutor)
        parallel = make_executor(3, chunk_size=5)
        assert isinstance(parallel, MultiprocessExecutor)
        assert parallel.workers == 3
        assert parallel.chunk_size == 5
        assert parallel.parallel
        assert not make_executor(1).parallel

    def test_executor_validates_arguments(self):
        with pytest.raises(ValueError):
            MultiprocessExecutor(0)
        with pytest.raises(ValueError):
            MultiprocessExecutor(2, chunk_size=0)

    def test_plan_chunks_prefers_fixed_size_when_configured(self):
        items = list(range(9))
        assert SerialExecutor().plan_chunks(items) == [items]
        assert MultiprocessExecutor(2).plan_chunks(items) == [
            items[:5], items[5:]
        ]
        assert MultiprocessExecutor(2, chunk_size=4).plan_chunks(items) == [
            items[:4], items[4:8], items[8:]
        ]

    def test_serial_map_preserves_submission_order_and_counts(self):
        executor = SerialExecutor()
        payloads = [[3, 1], [2], [5, 4]]
        assert executor.map_chunks(_square_chunk, payloads) == [
            [9, 1], [4], [25, 16]
        ]
        assert executor.stats.map_calls == 1
        assert executor.stats.chunks == 3
        assert executor.stats.inline_chunks == 3
        assert executor.stats.worker_chunks == 0

    def test_multiprocess_map_matches_serial(self):
        payloads = [list(range(i, i + 4)) for i in range(0, 24, 4)]
        serial = SerialExecutor().map_chunks(_square_chunk, payloads)
        executor = MultiprocessExecutor(2)
        assert executor.map_chunks(_square_chunk, payloads) == serial
        assert executor.stats.worker_chunks == len(payloads)
        assert executor.stats.worker_retries == 0

    def test_multiprocess_single_chunk_runs_inline(self):
        executor = MultiprocessExecutor(4)
        assert executor.map_chunks(_sum_chunk, [[1, 2, 3]]) == [6]
        assert executor.stats.inline_chunks == 1
        assert executor.stats.worker_chunks == 0

    def test_empty_payload_list_is_a_noop(self):
        executor = MultiprocessExecutor(2)
        assert executor.map_chunks(_sum_chunk, []) == []
        assert executor.stats.map_calls == 1
        assert executor.stats.chunks == 0

    def test_worker_crash_is_retried_deterministically(self):
        payloads = [list(range(i, i + 3)) for i in range(0, 12, 3)]
        untraced, traced, tracer = _dispatch_untraced_and_traced(
            lambda: MultiprocessExecutor(
                2, worker_fault=WorkerCrashPlan(map_call=0, chunk=0)
            ),
            payloads,
        )
        for executor in (untraced, traced):
            assert executor.worker_fault.fired
            stats = executor.stats
            assert stats.kills_armed == 1
            # The killed chunk — plus any siblings lost with the broken
            # pool — is recomputed in-process.
            assert stats.worker_retries >= 1
            assert stats.worker_chunks + stats.worker_retries == len(payloads)
        # How many siblings the broken pool takes down depends on the OS
        # schedule; everything else in the echo must match.
        untraced_echo = untraced.stats.to_echo()
        traced_echo = traced.stats.to_echo()
        for echo in (untraced_echo, traced_echo):
            echo["worker_chunks"] += echo.pop("worker_retries")
        assert untraced_echo == traced_echo
        assert (
            tracer.aggregate.counters["parallel.worker_retries"]
            == traced.stats.worker_retries
        )

    def test_worker_crash_plan_fires_exactly_once(self):
        plan = WorkerCrashPlan(map_call=1, chunk=2)
        assert not plan.should_kill(0, 2)
        assert not plan.should_kill(1, 1)
        assert plan.should_kill(1, 2)
        assert plan.fired
        assert not plan.should_kill(1, 2)
        with pytest.raises(ValueError):
            WorkerCrashPlan(map_call=-1)

    def test_hung_worker_times_out_and_is_retried(self):
        payloads = [list(range(i, i + 3)) for i in range(0, 12, 3)]
        untraced, traced, tracer = _dispatch_untraced_and_traced(
            lambda: MultiprocessExecutor(
                2,
                timeout=0.5,
                worker_hang=WorkerHangPlan(map_call=0, chunk=1, seconds=30.0),
            ),
            payloads,
        )
        for executor in (untraced, traced):
            assert executor.worker_hang.fired
            assert executor.stats.hangs_armed == 1
            assert executor.stats.chunks_timed_out == 1
            assert executor.stats.worker_retries == 1
        assert untraced.stats.to_echo() == traced.stats.to_echo()
        counters = tracer.aggregate.counters
        assert counters["parallel.chunks_timed_out"] == 1
        assert counters["parallel.worker_retries"] == 1

    def test_hung_worker_timeout_traced(self):
        payloads = [list(range(i, i + 3)) for i in range(0, 12, 3)]
        expected = SerialExecutor().map_chunks(_square_chunk, payloads)
        plan = WorkerHangPlan(map_call=0, chunk=0, seconds=30.0)
        executor = MultiprocessExecutor(2, timeout=0.5, worker_hang=plan)
        tracer = Tracer()
        try:
            assert (
                executor.map_chunks(_square_chunk, payloads, tracer=tracer)
                == expected
            )
        finally:
            executor.close()
        tracer.close()
        assert plan.fired
        counters = tracer.aggregate.counters
        assert counters["parallel.chunks_timed_out"] == 1
        assert counters["parallel.worker_retries"] >= 1
        assert executor.stats.chunks_timed_out == 1
        assert (
            counters["parallel.worker_retries"] == executor.stats.worker_retries
        )

    def test_timeout_without_hang_changes_nothing(self):
        payloads = [list(range(i, i + 3)) for i in range(0, 12, 3)]
        untraced, traced, _tracer = _dispatch_untraced_and_traced(
            lambda: MultiprocessExecutor(2, timeout=60.0), payloads
        )
        for executor in (untraced, traced):
            assert executor.stats.chunks_timed_out == 0
            assert executor.stats.worker_retries == 0
        assert untraced.stats.to_echo() == traced.stats.to_echo()

    def test_work_function_exception_propagates_without_retry(self):
        payloads = [[1], [2], [3], [4]]
        with pytest.raises(ValueError, match="chunk holds 3"):
            SerialExecutor().map_chunks(_fail_on_three, payloads)
        echoes = []
        for tracer in (None, Tracer()):
            executor = MultiprocessExecutor(2)
            try:
                with pytest.raises(ValueError, match="chunk holds 3"):
                    executor.map_chunks(
                        _fail_on_three, payloads, tracer=tracer
                    )
            finally:
                executor.close()
            # A real error is not a lost chunk: nothing is recomputed.
            assert executor.stats.worker_retries == 0
            echoes.append(executor.stats.to_echo())
        assert echoes[0] == echoes[1]

    def test_pool_breaking_during_submission_recomputes_the_rest(
        self, monkeypatch
    ):
        pools = []

        def ensure_pool(executor):
            pool = _PoolBreaksAfterFirstSubmit()
            pools.append(pool)
            executor._pool = pool
            return pool

        monkeypatch.setattr(MultiprocessExecutor, "_ensure_pool", ensure_pool)
        payloads = [list(range(i, i + 3)) for i in range(0, 12, 3)]
        untraced, traced, _tracer = _dispatch_untraced_and_traced(
            lambda: MultiprocessExecutor(2), payloads
        )
        for executor in (untraced, traced):
            # Only chunk 0 reached the pool; the unsubmitted rest were
            # recomputed in-process and counted as retries.
            assert executor.stats.worker_chunks == 1
            assert executor.stats.worker_retries == len(payloads) - 1
            assert executor._pool is None
        assert untraced.stats.to_echo() == traced.stats.to_echo()
        # The broken pool was discarded without waiting on its workers.
        assert [pool.submitted for pool in pools] == [1, 1]
        assert [pool.shutdowns for pool in pools] == [[(False, True)]] * 2

    def test_timeout_and_hang_plan_validation(self):
        with pytest.raises(ValueError):
            MultiprocessExecutor(2, timeout=0.0)
        with pytest.raises(ValueError):
            WorkerHangPlan(seconds=0.0)
        with pytest.raises(ValueError):
            WorkerHangPlan(map_call=-1)
        plan = WorkerHangPlan(map_call=0, chunk=1)
        assert not plan.should_hang(0, 0)
        assert plan.should_hang(0, 1)
        assert not plan.should_hang(0, 1)  # fires exactly once


# -- serial-vs-parallel parity matrix -----------------------------------------


class TestResolutionParity:
    """The headline guarantee: ranked output bytes ignore the executor."""

    @pytest.fixture(scope="class")
    def corpora(self):
        return {
            persons: build_corpus(
                n_persons=persons, communities=("italy",), seed=23
            )[0]
            for persons in (24, 48)
        }

    @pytest.fixture(scope="class")
    def serial_csv(self, corpora, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("serial")
        return {
            persons: _resolve_csv(
                dataset, SerialExecutor(), tmp, f"serial_{persons}"
            )
            for persons, dataset in corpora.items()
        }

    @pytest.mark.parametrize("persons", [24, 48])
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("chunk_size", [None, 5])
    def test_parallel_bytes_equal_serial(
        self, corpora, serial_csv, tmp_path, persons, workers, chunk_size
    ):
        executor = make_executor(workers, chunk_size=chunk_size)
        parallel = _resolve_csv(
            corpora[persons], executor, tmp_path, "parallel"
        )
        assert parallel == serial_csv[persons]
        # The run really went through the pool, not a serial fallback.
        assert executor.stats.worker_chunks > 0

    def test_classifier_ranking_parity(self, corpora):
        dataset = corpora[24]
        pipeline = UncertainERPipeline(PipelineConfig(**CONFIG))
        pairs = sorted(pipeline.block(dataset).candidate_pairs)
        labels = simplify_tags(
            ExpertTagger(dataset, seed=9).tag_pairs(pairs), maybe_as=False
        )
        classifier = pipeline.train_classifier(dataset, labels)
        serial = classifier.rank(pairs)
        for workers in (2, 4):
            assert classifier.rank(
                pairs, executor=MultiprocessExecutor(workers)
            ) == serial

    def test_worker_crash_resolution_parity(
        self, corpora, serial_csv, tmp_path
    ):
        plan = WorkerCrashPlan(map_call=1, chunk=0)
        executor = MultiprocessExecutor(2, worker_fault=plan)
        parallel = _resolve_csv(corpora[24], executor, tmp_path, "crashed")
        assert parallel == serial_csv[24]
        assert plan.fired
        assert executor.stats.worker_retries >= 1


# -- checkpoints, budgets, reports, CLI ---------------------------------------


class TestCrossCuttingParity:
    @pytest.fixture(scope="class")
    def corpus(self):
        return build_corpus(n_persons=40, communities=("italy",), seed=23)[0]

    @pytest.fixture(scope="class")
    def serial_csv(self, corpus, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("serial")
        return _resolve_csv(corpus, SerialExecutor(), tmp, "serial")

    @pytest.mark.parametrize(
        "write_workers,resume_workers", [(1, 2), (2, 1), (2, 4)]
    )
    def test_resume_under_different_worker_count(
        self, corpus, serial_csv, tmp_path, write_workers, resume_workers
    ):
        """Fingerprints carry no worker count: checkpoint anywhere,
        resume anywhere, same bytes."""
        store_dir = tmp_path / "checkpoints"
        with pytest.raises(SimulatedCrash):
            UncertainERPipeline(
                PipelineConfig(**CONFIG),
                executor=make_executor(write_workers),
            ).run(
                corpus,
                checkpoints=CheckpointStore(store_dir),
                faults=FaultInjector(
                    FaultPlan(crash_after_stage=PIPELINE_STAGES[0])
                ),
            )

        store = CheckpointStore(store_dir)
        resumed = UncertainERPipeline(
            PipelineConfig(**CONFIG),
            executor=make_executor(resume_workers),
        ).run(corpus, checkpoints=store, resume=True)
        assert store.hits == [PIPELINE_STAGES[0]]
        out = tmp_path / "resumed.csv"
        resumed.to_csv(out)
        assert out.read_bytes() == serial_csv

    def test_budgeted_run_degrades_identically_in_parallel(
        self, corpus, tmp_path
    ):
        """A budget defines its cut by serial visit order, so budgeted
        mining stays serial under any executor — and stays degraded."""
        config = dict(CONFIG, blocking_budget=StageBudget(max_iterations=1))
        serial = _resolve_csv(
            corpus, SerialExecutor(), tmp_path, "budget_serial", config=config
        )
        executor = make_executor(2)
        parallel = _resolve_csv(
            corpus, executor, tmp_path, "budget_parallel", config=config
        )
        assert parallel == serial

    def test_report_carries_parallel_block(self, corpus):
        tracer = Tracer()
        executor = make_executor(2)
        resolution = UncertainERPipeline(
            PipelineConfig(**CONFIG), tracer=tracer, executor=executor
        ).run(corpus)
        tracer.close()
        report = resolution.report
        assert report is not None
        assert report.parallel["executor"] == "multiprocess"
        assert report.parallel["workers"] == 2
        assert report.parallel["chunks"] > 0
        assert report.parallel["map_calls"] > 0
        # Round trip: the block survives to_dict/from_dict (schema v1
        # treats it as additive, like `resilience`).
        from repro.obs import RunReport

        assert RunReport.from_dict(report.to_dict()).parallel == (
            report.parallel
        )

    def test_serial_report_echoes_one_worker(self, corpus):
        tracer = Tracer()
        resolution = UncertainERPipeline(
            PipelineConfig(**CONFIG), tracer=tracer
        ).run(corpus)
        tracer.close()
        assert resolution.report is not None
        assert resolution.report.parallel["executor"] == "serial"
        assert resolution.report.parallel["workers"] == 1

    def test_cli_workers_flag_is_byte_identical(self, tmp_path):
        corpus = tmp_path / "corpus.json"
        assert cli_main([
            "generate", "--persons", "40", "--communities", "italy",
            "--seed", "23", "--out", str(corpus),
        ]) == 0
        outputs = {}
        for workers in (1, 2):
            out = tmp_path / f"ranked_w{workers}.csv"
            report = tmp_path / f"report_w{workers}.json"
            assert cli_main([
                "resolve", str(corpus), "--ng", "3.0", "--max-minsup", "4",
                "--expert-weighting", "--workers", str(workers),
                "--chunk-size", "16",
                "--out", str(out), "--report", str(report),
            ]) == 0
            outputs[workers] = out.read_bytes()
            payload = json.loads(report.read_text())
            assert payload["parallel"]["workers"] == workers
        assert outputs[2] == outputs[1]
