"""Deterministic parallel execution for blocking and pairwise scoring.

The layer has four small parts (full design in ``docs/PARALLELISM.md``):

* **chunking** (:mod:`repro.parallel.chunking`) — pure partition
  planners; no element lost, duplicated, or reordered;
* **executors** (:mod:`repro.parallel.executor`) — :class:`SerialExecutor`
  (the reference) and the ``ProcessPoolExecutor``-backed
  :class:`MultiprocessExecutor` with submission-order result collection
  and deterministic in-process retry of chunks lost to a worker crash;
* **merges** (:mod:`repro.parallel.merge`) — order-independent folds of
  chunk results (max per canonical pair key);
* **work functions** (:mod:`repro.parallel.work`) — module-level,
  picklable, argument-determined chunk bodies.

Together they make ``repro resolve --workers 4`` byte-identical to
``--workers 1`` — determinism by merge, not by schedule — which
``tests/test_parallel.py`` pins with a parity matrix and
``tests/test_property_invariants.py`` pins property-by-property.
"""

from __future__ import annotations

from repro.parallel.adversarial import AdversarialScheduleExecutor
from repro.parallel.chunking import fixed_chunks, partition_evenly
from repro.parallel.executor import (
    Executor,
    ExecutorStats,
    MultiprocessExecutor,
    SerialExecutor,
    make_executor,
)
from repro.parallel.merge import max_merge_into, merge_scored_chunks
from repro.parallel.shared import (
    SharedStateHandle,
    publish_shared_state,
    shared_generation,
    shared_state,
    shared_state_supported,
)
from repro.parallel.work import (
    classify_pair_chunk,
    classify_pair_chunk_shared,
    run_chunk,
    score_pair_chunk,
    score_pair_chunk_shared,
)

__all__ = [
    "AdversarialScheduleExecutor",
    "fixed_chunks",
    "partition_evenly",
    "Executor",
    "ExecutorStats",
    "MultiprocessExecutor",
    "SerialExecutor",
    "make_executor",
    "max_merge_into",
    "merge_scored_chunks",
    "SharedStateHandle",
    "publish_shared_state",
    "shared_generation",
    "shared_state",
    "shared_state_supported",
    "classify_pair_chunk",
    "classify_pair_chunk_shared",
    "run_chunk",
    "score_pair_chunk",
    "score_pair_chunk_shared",
]
