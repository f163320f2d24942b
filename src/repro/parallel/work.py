"""Picklable chunk-work functions executed inside pool workers.

A worker process shares nothing with the parent but the pickled
payload: no tracer, no caches, no ambient state. Each function here is
therefore a pure function of its payload — the property that makes a
chunk's result identical whether it runs in a worker, in-process on the
serial path, or in a deterministic retry after a worker crash
(``docs/PARALLELISM.md``). Payloads carry everything the computation
needs (scorer/model plus just the item bags or records the chunk's
pairs touch), keeping pickling cost proportional to the chunk.
"""

from __future__ import annotations

import pickle
import tracemalloc
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Tuple,
)

from repro.contracts import (
    fork_safe,
    impure,
    picklable_work,
    pure,
    shared_readonly,
)
from repro.obs.worker import (
    WORKER_CHUNK_SPAN,
    WORKER_COMPUTE_SPAN,
    WORKER_DESERIALIZE_SPAN,
    WORKER_SERIALIZE_SPAN,
    WorkerTracer,
)
from repro.parallel.shared import shared_state
from repro.similarity.features import extract_features, extract_features_batch

if TYPE_CHECKING:
    from repro.blocking.scoring import BlockScorer
    from repro.classify.adtree import ADTreeModel
    from repro.records.dataset import Dataset
    from repro.records.itembag import Item
    from repro.similarity.interning import InternedCorpus

__all__ = [
    "score_pair_chunk",
    "score_pair_chunk_shared",
    "classify_pair_chunk",
    "classify_pair_chunk_shared",
    "run_chunk",
]

Pair = Tuple[int, int]

#: (chunk function, chunk index, pickled chunk payload, profile memory?)
ChunkCall = Tuple[Callable[[Any], Any], int, bytes, bool]

#: (scorer, item bags restricted to the chunk's records, pairs to score)
ScoreChunk = Tuple["BlockScorer", Dict[int, FrozenSet["Item"]], List[Pair]]

#: (dataset, trained model, feature-name subset, pairs to score)
ClassifyChunk = Tuple[
    "Dataset", "ADTreeModel", Optional[Tuple[str, ...]], List[Pair]
]

#: (published shared-state token, pairs to score) — the pickle-free
#: payload shape; everything heavy lives behind the token.
SharedPairChunk = Tuple[str, List[Pair]]


@picklable_work
@fork_safe
@pure
def score_pair_chunk(payload: ScoreChunk) -> List[Tuple[Pair, float]]:
    """Blocking pair similarity for one chunk of candidate pairs.

    The same ``BlockScorer.pair_similarity`` call the serial path makes,
    so the floats are bit-identical.
    """
    scorer, item_bags, pairs = payload
    return [
        (pair, scorer.pair_similarity(item_bags[pair[0]], item_bags[pair[1]]))
        for pair in pairs
    ]


@picklable_work
@fork_safe
@shared_readonly
def score_pair_chunk_shared(
    payload: SharedPairChunk,
) -> List[Tuple[Pair, float]]:
    """Pickle-free variant of :func:`score_pair_chunk`.

    The payload carries only a token and the chunk's pairs; the scorer
    and the interned corpus come from the fork-inherited shared-state
    registry (:mod:`repro.parallel.shared`), which workers read but
    never write. Scoring runs through the batch kernels, which are
    bit-identical to the scalar ``pair_similarity`` per pair — so the
    result matches :func:`score_pair_chunk` byte for byte.
    """
    token, pairs = payload
    state = shared_state(token)
    scorer: "BlockScorer" = state["scorer"]
    corpus: "InternedCorpus" = state["corpus"]
    scores = scorer.pair_similarity_batch(corpus, pairs)
    return [(pair, score) for pair, score in zip(pairs, scores)]


@picklable_work
@fork_safe
@pure
def classify_pair_chunk(payload: ClassifyChunk) -> List[Tuple[Pair, float]]:
    """ADTree confidences for one chunk of candidate pairs.

    Mirrors ``PairClassifier.score_pair`` without the classifier wrapper
    (whose tracer must not cross the process boundary): extract the
    pair's features, score them with the trained model.
    """
    dataset, model, feature_names, pairs = payload
    scored: List[Tuple[Pair, float]] = []
    for a, b in pairs:
        vector = extract_features(dataset[a], dataset[b], names=feature_names)
        scored.append(((a, b), model.score(vector)))
    return scored


@picklable_work
@fork_safe
@shared_readonly
def classify_pair_chunk_shared(
    payload: SharedPairChunk,
) -> List[Tuple[Pair, float]]:
    """Pickle-free variant of :func:`classify_pair_chunk`.

    Dataset, model and feature-name subset resolve through the shared-
    state registry; feature vectors come from the batch extractor,
    which is value-identical to ``extract_features`` per pair, so the
    confidences match the legacy chunk function exactly.
    """
    token, pairs = payload
    state = shared_state(token)
    dataset: "Dataset" = state["dataset"]
    model: "ADTreeModel" = state["model"]
    feature_names: Optional[Tuple[str, ...]] = state["feature_names"]
    vectors = extract_features_batch(dataset, pairs, names=feature_names)
    return [
        (pair, model.score(vector)) for pair, vector in zip(pairs, vectors)
    ]


@picklable_work
@fork_safe
@impure(
    reason="reads the worker clock and pid to attribute per-chunk time; "
           "the wrapped chunk function stays pure, so the unpickled "
           "result does not depend on where the chunk ran"
)
def run_chunk(payload: ChunkCall) -> Tuple[bytes, Dict[str, Any]]:
    """Run one chunk under a :class:`WorkerTracer`; ship result + trace.

    Every ``MultiprocessExecutor`` chunk runs through here — in a pool
    worker, inline, or in a crash/hang retry — whether or not the
    parent traces. The parent pickles the chunk payload itself, so this
    wrapper receives raw bytes: it times the unpickle, runs the
    module-level chunk function under a ``worker.compute`` span —
    under ``tracemalloc`` when ``profile_memory`` is set — and times
    the result pickle. Returns ``(result pickle, worker-trace
    payload)``; the parent unpickles the result and, when tracing,
    merges the trace keyed by chunk index. Only the pid in the trace
    depends on where the chunk ran.
    """
    func, chunk_index, blob, profile_memory = payload
    tracer = WorkerTracer()
    peak: Optional[int] = None
    with tracer.span(WORKER_CHUNK_SPAN, chunk=chunk_index):
        with tracer.span(WORKER_DESERIALIZE_SPAN):
            chunk_payload = pickle.loads(blob)
        if profile_memory:
            tracemalloc.start()
        try:
            with tracer.span(WORKER_COMPUTE_SPAN):
                result = func(chunk_payload)
        finally:
            if profile_memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        with tracer.span(WORKER_SERIALIZE_SPAN):
            result_blob = pickle.dumps(
                result, protocol=pickle.HIGHEST_PROTOCOL
            )
    return result_blob, tracer.export(
        chunk_index,
        result_bytes=len(result_blob),
        tracemalloc_peak_bytes=peak,
    )
