"""Executors: serial and process-pool dispatch of chunked work.

The pipeline's hot paths (pairwise scoring, FPMax mining, classifier
ranking) are embarrassingly parallel; what they must never be is
*schedule-dependent*. The contract here is determinism **by merge, not
by schedule** (``docs/PARALLELISM.md``):

* chunk plans come from :mod:`repro.parallel.chunking` and are pure
  functions of the work list;
* :meth:`Executor.map_chunks` returns results in **submission order**
  regardless of completion order;
* chunk work functions are module-level and argument-determined (they
  run identically in a worker, in-process, or in a crash retry);
* every consumer merges chunk results with an order-independent
  function from :mod:`repro.parallel.merge`.

Under those four rules a run with ``--workers 4`` is byte-identical to
``--workers 1``, which is what the parity harness in
``tests/test_parallel.py`` pins.

Resilience: a :class:`~repro.resilience.faults.WorkerCrashPlan` can kill
one worker mid-chunk (the ``repro chaos`` ``worker-crash`` scenario). A
broken pool loses the results of every unfinished chunk; the executor
recomputes exactly those chunks in-process — the work functions are
deterministic, so the retry reproduces what the worker would have
returned, and the merged output is unchanged. A *hung* worker (a
:class:`~repro.resilience.faults.WorkerHangPlan` in tests; a deadlock or
I/O stall in production) is handled the same way when a per-chunk
``timeout`` is set: the overdue chunk is declared lost, recomputed
in-process exactly once, and counted as ``parallel.chunks_timed_out`` —
bounded retries, deterministic outcome.
"""

from __future__ import annotations

import abc
import os
import pickle
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.contracts import deterministic, impure
from repro.obs.clock import Clock
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.obs.worker import (
    ChunkProfile,
    DispatchProfile,
    ParallelProfile,
    merge_worker_events,
)
from repro.parallel.chunking import fixed_chunks, partition_evenly
from repro.parallel.shared import shared_generation, shared_state_supported
from repro.parallel.work import run_chunk
from repro.resilience.faults import (
    WorkerCrashPlan,
    WorkerHangPlan,
    hang_worker,
    kill_current_worker,
)

__all__ = [
    "ExecutorStats",
    "Executor",
    "SerialExecutor",
    "MultiprocessExecutor",
    "make_executor",
]

T = TypeVar("T")

#: A chunk work function: module-level, picklable, argument-determined.
ChunkFunc = Callable[[Any], Any]


@dataclass
class ExecutorStats:
    """Dispatch accounting, echoed into the run report ``parallel`` block.

    Counts are deterministic for a given workload and worker count —
    except ``worker_retries``/``kills_armed``, which are only non-zero
    under injected faults.
    """

    map_calls: int = 0
    chunks: int = 0
    worker_chunks: int = 0
    inline_chunks: int = 0
    worker_retries: int = 0
    kills_armed: int = 0
    hangs_armed: int = 0
    chunks_timed_out: int = 0
    shared_dispatches: int = 0
    bytes_not_pickled: int = 0
    shared_segment_bytes: int = 0
    pools_created: int = 0

    def to_echo(self) -> Dict[str, int]:
        return asdict(self)


class Executor(abc.ABC):
    """Runs chunked work; subclasses choose where chunks execute.

    ``workers`` is the parallelism degree; ``chunk_size`` optionally
    overrides the default one-chunk-per-worker plan with fixed-size
    chunks (useful to test merge behavior across many small chunks).
    """

    name: str = "executor"

    #: Whether callers should use pickle-free shared-state payloads
    #: (``repro.parallel.shared``) with this executor. Subclasses that
    #: run chunks in-process (or fork workers) may enable it.
    shared_state: bool = False

    #: Below this many work items a shared-capable caller should score
    #: inline with the batch kernels instead of paying dispatch; 0
    #: means "always dispatch". Advisory — results are identical either
    #: way, this only moves where the chunk runs.
    min_dispatch_items: int = 0

    def __init__(self, workers: int, chunk_size: Optional[int] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = workers
        self.chunk_size = chunk_size
        self.stats = ExecutorStats()

    @property
    def parallel(self) -> bool:
        """True when this executor actually dispatches to workers."""
        return self.workers > 1

    def close(self) -> None:
        """Release any retained resources (warm pools); idempotent."""

    @deterministic
    def plan_chunks(self, items: Sequence[T]) -> List[List[T]]:
        """The deterministic chunk plan for ``items`` (a partition)."""
        if self.chunk_size is not None:
            return fixed_chunks(items, self.chunk_size)
        return partition_evenly(items, self.workers)

    def _count_dispatch(
        self, work: Sequence[Any], shared_bytes: Optional[int]
    ) -> int:
        """Account one ``map_chunks`` call; returns its dispatch index.

        Every executor counts the call and its chunks; a non-empty
        shared-state dispatch also counts the pickle bytes it omits.
        """
        stats = self.stats
        call_index = stats.map_calls
        stats.map_calls += 1
        stats.chunks += len(work)
        if shared_bytes is not None and work:
            stats.shared_dispatches += 1
            stats.bytes_not_pickled += shared_bytes * len(work)
        return call_index

    def to_echo(self) -> Dict[str, Any]:
        """JSON-safe self-description for run reports and debugging."""
        echo: Dict[str, Any] = {
            "executor": self.name,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
        }
        echo.update(self.stats.to_echo())
        return echo

    def profile_echo(self) -> Dict[str, Any]:
        """The additive ``parallel_profile`` report block.

        ``{}`` unless this executor recorded per-chunk overhead (only
        traced :class:`MultiprocessExecutor` dispatches do), so serial
        and untraced reports keep their previous shape. Like
        :meth:`to_echo` this is measurement, not configuration — it
        never reaches config echoes or checkpoint fingerprints
        (reprolint RL205).
        """
        return {}

    @abc.abstractmethod
    def map_chunks(
        self,
        func: ChunkFunc,
        payloads: Sequence[Any],
        tracer: Optional[Tracer] = None,
        label: str = "parallel.map",
        shared_bytes: Optional[int] = None,
    ) -> List[Any]:
        """Apply ``func`` to every payload; results in submission order.

        ``shared_bytes`` is set by shared-state dispatches: the pickled
        size of the published objects each payload *omits*. Executors
        use it only for ``bytes_not_pickled`` accounting — it never
        influences execution.
        """


class SerialExecutor(Executor):
    """In-process execution: the reference the parallel paths must match."""

    name = "serial"

    def __init__(self, chunk_size: Optional[int] = None) -> None:
        super().__init__(1, chunk_size)

    @deterministic
    def map_chunks(
        self,
        func: ChunkFunc,
        payloads: Sequence[Any],
        tracer: Optional[Tracer] = None,
        label: str = "parallel.map",
        shared_bytes: Optional[int] = None,
    ) -> List[Any]:
        tracer = tracer if tracer is not None else NULL_TRACER
        self._count_dispatch(payloads, shared_bytes)
        self.stats.inline_chunks += len(payloads)
        with tracer.span(label, executor=self.name, chunks=len(payloads)):
            return [func(payload) for payload in payloads]


class MultiprocessExecutor(Executor):
    """ProcessPoolExecutor-backed dispatch with deterministic crash retry.

    Chunk *results* are collected in submission order, so completion
    order — the one thing the OS scheduler controls — never reaches a
    caller. Every chunk takes one path: the parent pickles its payload
    and :func:`~repro.parallel.work.run_chunk` runs it, in a pool
    worker, inline (a lone chunk gains nothing from a pool) or in an
    in-process retry, shipping back ``(result pickle, worker trace)``.
    The tracer decides only what is recorded, never what runs: an
    enabled one gets the worker events merged in keyed by chunk index,
    and :attr:`profile` (a :class:`~repro.obs.worker.ParallelProfile`)
    gets per-chunk pickle bytes/time, queue wait vs compute, and (with
    ``profile_memory``) tracemalloc peaks. Traced output is therefore
    byte-identical to untraced (``tests/test_worker_trace.py``).

    ``worker_fault`` is the chaos hook: when the targeted chunk comes
    up, :func:`~repro.resilience.faults.kill_current_worker` is
    submitted in its place, the pool breaks, and the lost chunks are
    recomputed in-process.

    ``timeout`` bounds how long the parent waits for each chunk (the
    collection loop walks futures in submission order, so a chunk's
    budget starts when its predecessor is collected). An overdue chunk
    is treated exactly like one lost to a crash: declared lost,
    recomputed in-process once, and counted in
    ``stats.chunks_timed_out``. The stuck worker is abandoned —
    shutdown does not wait for it — so a single hang costs one timeout
    plus one in-process recompute, never a stuck run. ``worker_hang``
    is the matching chaos hook: the targeted chunk is replaced with
    :func:`~repro.resilience.faults.hang_worker`.
    """

    name = "multiprocess"

    #: Workers are forked, so they inherit the shared-state registry;
    #: callers should prefer pickle-free payloads when supported.
    shared_state = True

    def __init__(
        self,
        workers: int,
        chunk_size: Optional[int] = None,
        worker_fault: Optional[WorkerCrashPlan] = None,
        profile_memory: bool = False,
        timeout: Optional[float] = None,
        worker_hang: Optional[WorkerHangPlan] = None,
        shared_state: Optional[bool] = None,
        min_dispatch_items: int = 512,
    ) -> None:
        super().__init__(workers, chunk_size)
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if min_dispatch_items < 0:
            raise ValueError(
                f"min_dispatch_items must be >= 0, got {min_dispatch_items}"
            )
        self.worker_fault = worker_fault
        self.worker_hang = worker_hang
        self.timeout = timeout
        self.profile_memory = profile_memory
        self.profile = ParallelProfile()
        if shared_state is not None:
            self.shared_state = shared_state
        self.shared_state = self.shared_state and shared_state_supported()
        self.min_dispatch_items = min_dispatch_items
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_generation = -1
        self._pool_finalizer: Optional[weakref.finalize] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The warm worker pool, rebuilt only when it must be.

        A pool is reusable while the shared-state registry generation
        it forked under is current — workers inherit the registry at
        fork, so a publish/close after the fork makes their snapshot
        stale. Faulted or timed-out pools are discarded by
        :meth:`map_chunks`. The pool is always ``self.workers`` wide
        (workers spawn lazily, so an undersized dispatch never pays for
        idle slots).
        """
        generation = shared_generation()
        pool = self._pool
        if pool is not None and self._pool_generation == generation:
            return pool
        self._discard_pool(wait=True)
        pool = ProcessPoolExecutor(max_workers=self.workers)
        self._pool = pool
        self._pool_generation = generation
        # GC safety net: an executor dropped without close() must not
        # leave idle workers behind for the rest of the process.
        self._pool_finalizer = weakref.finalize(
            self, _abandon_pool, pool
        )
        self.stats.pools_created += 1
        return pool

    def _discard_pool(self, wait: bool) -> None:
        """Shut the warm pool down (broken, stale, or at close())."""
        pool = self._pool
        if pool is None:
            return
        self._pool = None
        self._pool_generation = -1
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        pool.shutdown(wait=wait, cancel_futures=not wait)

    def close(self) -> None:
        self._discard_pool(wait=True)

    @impure(
        reason="spawns OS worker processes whose completion order is "
               "scheduler-dependent, and measures queue wait and worker "
               "pids; results and merged trace content stay schedule-"
               "independent (submission-order collection, chunk-index-"
               "keyed trace merge, docs/PARALLELISM.md)"
    )
    def map_chunks(
        self,
        func: ChunkFunc,
        payloads: Sequence[Any],
        tracer: Optional[Tracer] = None,
        label: str = "parallel.map",
        shared_bytes: Optional[int] = None,
    ) -> List[Any]:
        """Run every chunk through :func:`run_chunk`; submission order.

        The parent-side buckets (serialize/pool-start/submit/collect/
        teardown/retry/deserialize/merge) partition the dispatch span's
        wall time, which is what keeps a traced dispatch's
        ``accounted_fraction`` >= 0.9. They cost a clock read each and
        reach :attr:`profile` only when ``tracer`` is enabled.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        work = list(payloads)
        call_index = self._count_dispatch(work, shared_bytes)
        if not work:
            return []
        stats = self.stats
        clock = tracer.clock
        count = len(work)
        profile_memory = self.profile_memory and tracer.enabled
        inline = (
            count == 1
            and self.worker_fault is None
            and self.worker_hang is None
        )
        wrapped: Dict[int, Tuple[bytes, Dict[str, Any]]] = {}
        submitted_at: Dict[int, float] = {}
        completed_at: Dict[int, float] = {}
        failed: List[int] = []
        timed_out: List[int] = []
        pool_start_seconds = submit_seconds = collect_seconds = 0.0
        teardown_seconds = retry_seconds = 0.0
        with tracer.span(label, executor=self.name, chunks=count):
            wall_start = clock.now()
            serialize_seconds: List[float] = []
            blobs: List[bytes] = []
            for payload in work:
                t0 = clock.now()
                blobs.append(
                    pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
                )
                serialize_seconds.append(clock.now() - t0)
            if not inline:
                t0 = clock.now()
                pool = self._ensure_pool()
                pool_start_seconds = clock.now() - t0
                fault, hang = self.worker_fault, self.worker_hang
                try:
                    t0 = clock.now()
                    futures: List["Future[Any]"] = []
                    try:
                        for index, blob in enumerate(blobs):
                            submitted_at[index] = clock.now()
                            if fault is not None and fault.should_kill(
                                call_index, index
                            ):
                                stats.kills_armed += 1
                                future = pool.submit(kill_current_worker)
                            elif hang is not None and hang.should_hang(
                                call_index, index
                            ):
                                stats.hangs_armed += 1
                                future = pool.submit(hang_worker, hang.seconds)
                            else:
                                future = pool.submit(
                                    run_chunk,
                                    (func, index, blob, profile_memory),
                                )
                            future.add_done_callback(
                                _completion_marker(completed_at, index, clock)
                            )
                            futures.append(future)
                    except BrokenProcessPool:
                        # A warm worker died while chunks were still being
                        # submitted; everything unsubmitted is lost and
                        # recomputed below, like any other broken-pool loss.
                        failed.extend(range(len(futures), count))
                    submit_seconds = clock.now() - t0
                    for index, future in enumerate(futures):
                        t0 = clock.now()
                        try:
                            wrapped[index] = future.result(
                                timeout=self.timeout
                            )
                        except BrokenProcessPool:
                            # The worker died before returning this chunk;
                            # recompute it below. Anything else (a real
                            # exception raised by ``func``) propagates
                            # unchanged.
                            failed.append(index)
                        except FuturesTimeout:
                            # The worker is wedged, not dead: same lost-
                            # chunk treatment, but shutdown must not wait
                            # for it below.
                            timed_out.append(index)
                            future.cancel()
                        collect_seconds += clock.now() - t0
                finally:
                    # A clean dispatch keeps the pool warm for the next
                    # call. A broken pool is useless and a hung worker
                    # must never park shutdown — discard without waiting
                    # (not-yet-started futures are cancelled).
                    t0 = clock.now()
                    if failed or timed_out:
                        self._discard_pool(wait=False)
                    teardown_seconds = clock.now() - t0
            lost = sorted(failed + timed_out)
            if inline:
                stats.inline_chunks += 1
            else:
                stats.worker_chunks += count - len(lost)
                stats.worker_retries += len(lost)
                stats.chunks_timed_out += len(timed_out)
            t0 = clock.now()
            for index in [0] if inline else lost:
                # Inline, or a deterministic retry: the same func and
                # payload yield the result bytes a worker would have
                # returned, with a trace attributed to the parent pid.
                submitted_at.setdefault(index, clock.now())
                wrapped[index] = run_chunk(
                    (func, index, blobs[index], profile_memory)
                )
                completed_at[index] = clock.now()
            if inline:
                collect_seconds = clock.now() - t0
            else:
                retry_seconds = clock.now() - t0
            results: List[Any] = []
            result_deserialize: List[float] = []
            for index in range(count):
                t0 = clock.now()
                results.append(pickle.loads(wrapped[index][0]))
                result_deserialize.append(clock.now() - t0)
            traces = [wrapped[index][1] for index in range(count)]
            t0 = clock.now()
            merge_worker_events(tracer, traces)
            merge_seconds = clock.now() - t0
            tracer.count("parallel.chunks", count)
            tracer.count("parallel.payload_bytes_in", sum(map(len, blobs)))
            tracer.count(
                "parallel.payload_bytes_out",
                sum(trace["result_bytes"] for trace in traces),
            )
            if lost:
                tracer.count("parallel.worker_retries", len(lost))
            if timed_out:
                tracer.count("parallel.chunks_timed_out", len(timed_out))
            peaks = [
                trace["tracemalloc_peak_bytes"]
                for trace in traces
                if trace["tracemalloc_peak_bytes"] is not None
            ]
            if peaks:
                tracer.gauge(
                    "parallel.tracemalloc_peak_bytes", float(max(peaks))
                )
            wall_seconds = clock.now() - wall_start
        if tracer.enabled:
            chunks: List[ChunkProfile] = []
            for index, trace in enumerate(traces):
                submitted = submitted_at[index]
                round_trip = max(
                    0.0, completed_at.get(index, submitted) - submitted
                )
                chunks.append(
                    ChunkProfile(
                        chunk=index,
                        worker=trace["pid"],
                        inline=inline,
                        retried=index in lost,
                        payload_bytes_in=len(blobs[index]),
                        payload_bytes_out=trace["result_bytes"],
                        serialize_seconds=serialize_seconds[index],
                        deserialize_seconds=trace["deserialize_seconds"],
                        compute_seconds=trace["compute_seconds"],
                        result_serialize_seconds=trace["serialize_seconds"],
                        result_deserialize_seconds=result_deserialize[index],
                        queue_seconds=max(
                            0.0, round_trip - trace["worker_seconds"]
                        ),
                        round_trip_seconds=round_trip,
                        tracemalloc_peak_bytes=trace["tracemalloc_peak_bytes"],
                    )
                )
            self.profile.add(
                DispatchProfile(
                    label=label,
                    map_call=call_index,
                    wall_seconds=wall_seconds,
                    serialize_seconds=sum(serialize_seconds),
                    pool_start_seconds=pool_start_seconds,
                    submit_seconds=submit_seconds,
                    collect_seconds=collect_seconds,
                    teardown_seconds=teardown_seconds,
                    retry_seconds=retry_seconds,
                    deserialize_seconds=sum(result_deserialize),
                    merge_seconds=merge_seconds,
                    chunks=chunks,
                )
            )
        return results

    def profile_echo(self) -> Dict[str, Any]:
        return self.profile.to_block(
            executor=self.name,
            workers=self.workers,
            parent_pid=os.getpid(),
            profile_memory=self.profile_memory,
        )


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """weakref.finalize target: reap a warm pool its executor dropped.

    Must not reference the executor (the finalizer fires because it is
    gone). No waiting — idle workers exit as soon as they see the
    shutdown sentinel.
    """
    pool.shutdown(wait=False, cancel_futures=True)


def _completion_marker(
    completed_at: Dict[int, float], index: int, clock: Clock
) -> Callable[["Future[Any]"], None]:
    """A done-callback stamping when a chunk's future settled.

    Fires on the pool's callback thread the instant the future
    completes — before the parent thread unblocks from ``result()`` on
    an *earlier* chunk — so per-chunk queue wait is not inflated by the
    parent's submission-order collection. Dict assignment is atomic
    under the GIL; distinct chunks write distinct keys.
    """

    def mark(_future: "Future[Any]") -> None:
        completed_at[index] = clock.now()

    return mark


def make_executor(
    workers: int,
    chunk_size: Optional[int] = None,
    profile_memory: bool = False,
    shared_state: Optional[bool] = None,
) -> Executor:
    """The executor for a ``--workers N`` request (serial when N <= 1)."""
    if workers <= 1:
        return SerialExecutor(chunk_size=chunk_size)
    return MultiprocessExecutor(
        workers,
        chunk_size=chunk_size,
        profile_memory=profile_memory,
        shared_state=shared_state,
    )
