"""Per-layer tracing for the end-to-end benchmark, installed from outside.

The traced run wraps the public functions behind each layer's metrics
where their callers look them up (``repro.blocking.mfiblocks.
maximal_frequent_itemsets``, class attributes for methods). Nothing
under ``src/`` changes: every span is opened here, around a call into
the layer, on a :class:`repro.obs.Tracer` whose only sink rebuilds the
spans in memory. A span is ``[name, start, end, parent, counts]``; the
counts are the counters emitted while it was the innermost open span,
taken from the wrapped call's arguments and return value.

:func:`layer_metrics` turns the spans of one op into the per-layer
metrics named in ``BENCHMARK.json``. Self time is a span's duration
minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs import Sink, Tracer
from repro.obs.events import COUNTER, SPAN_END, SPAN_START

Counts = Iterable[Tuple[str, int]]
CountFn = Callable[[Tuple[Any, ...], Dict[str, Any], Any], Counts]

#: Root spans the op runner opens; only ``op.setup`` is excluded from
#: the per-layer metrics (it is what ``setup_s`` measures).
OP_ROOTS = ("op.run", "op.query")

#: Counters whose metric is the value at the op's last boundary rather
#: than a sum over calls.
LAST_VALUE = ("blocking.candidate_pairs", "core.live_pairs")
MAX_VALUE = ("parallel.shared_segment_bytes",)


class SpanSink(Sink):
    """Rebuilds spans with their parent index from tracer events."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._open: List[int] = []

    def emit(self, event: Dict[str, Any]) -> None:
        kind = event["event"]
        if kind == SPAN_START:
            parent = self._open[-1] if self._open else -1
            self._open.append(len(self.spans))
            self.spans.append([event["name"], event["t"], event["t"], parent, {}])
        elif kind == SPAN_END:
            self.spans[self._open.pop()][2] = event["t"]
        elif kind == COUNTER and self._open:
            counts = self.spans[self._open[-1]][4]
            counts[event["name"]] = counts.get(event["name"], 0) + event["value"]


def _wrap(
    tracer: Tracer,
    owner: Any,
    attr: str,
    span: str,
    count: Optional[CountFn] = None,
) -> None:
    """Replace ``owner.attr`` with a spanned call, keeping its kind."""
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        func, rewrap = raw.__func__, classmethod
    elif isinstance(raw, property):
        func, rewrap = raw.fget, property
    else:
        func, rewrap = raw, None

    @functools.wraps(func)
    def traced(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(span):
            result = func(*args, **kwargs)
            if count is not None:
                for name, value in count(args, kwargs, result):
                    tracer.count(name, value)
        return result

    setattr(owner, attr, rewrap(traced) if rewrap is not None else traced)


def _wrap_map_chunks(tracer: Tracer, executor_cls: Any) -> None:
    """Span ``map_chunks`` and turn its ``self.stats`` deltas into counts."""
    func = executor_cls.map_chunks
    fields = (
        ("parallel.chunks", "chunks"),
        ("parallel.worker_chunks", "worker_chunks"),
        ("parallel.inline_chunks", "inline_chunks"),
        ("parallel.retries", "worker_retries"),
        ("parallel.pools_created", "pools_created"),
        ("parallel.bytes_not_pickled", "bytes_not_pickled"),
    )

    @functools.wraps(func)
    def traced(self: Any, *args: Any, **kwargs: Any) -> Any:
        before = [getattr(self.stats, field) for _name, field in fields]
        with tracer.span("parallel.map_chunks"):
            result = func(self, *args, **kwargs)
            tracer.count("parallel.dispatches", 1)
            for (name, field), old in zip(fields, before):
                tracer.count(name, getattr(self.stats, field) - old)
            tracer.count(
                "parallel.shared_segment_bytes",
                self.stats.shared_segment_bytes,
            )
            if kwargs.get("label") == "mfiblocks.score_pairs":
                tracer.count(
                    "blocking.pairs_scored", sum(len(chunk) for chunk in result)
                )
        return result

    executor_cls.map_chunks = traced


def install() -> Tuple[Tracer, SpanSink]:
    """Wrap every traced layer function; returns the recording tracer."""
    from repro.blocking import mfiblocks
    from repro.blocking.scoring import BlockScorer, SparseNeighborhoodFilter
    from repro.classify import training
    from repro.classify.boosting import ADTreeLearner
    from repro.core.incremental import IncrementalResolver
    from repro.core.pipeline import UncertainERPipeline
    from repro.core.resolution import ResolutionResult
    from repro.datagen.tagging import ExpertTagger
    from repro.parallel.executor import MultiprocessExecutor
    from repro.records.dataset import Dataset
    from repro.resilience.wal import WriteAheadLog

    sink = SpanSink()
    tracer = Tracer(sinks=[sink])

    def result_len(name: str) -> CountFn:
        return lambda _args, _kwargs, result: [(name, len(result))]

    _wrap(tracer, Dataset, "from_json", "records.load")
    _wrap(tracer, Dataset, "item_bags", "records.item_bags")
    _wrap(
        tracer, mfiblocks, "maximal_frequent_itemsets", "mining.mfi",
        lambda args, _kwargs, result: [
            ("mining.transactions", len(args[0])),
            ("mining.mfis", len(result)),
        ],
    )
    _wrap(
        tracer, mfiblocks.MFIBlocks, "run", "blocking.run",
        lambda _args, _kwargs, result: [
            ("blocking.candidate_pairs", len(result.pair_scores)),
        ],
    )
    _wrap(tracer, BlockScorer, "score_blocks_batch", "blocking.score")
    _wrap(
        tracer, BlockScorer, "pair_similarity_batch", "blocking.score",
        result_len("blocking.pairs_scored"),
    )
    _wrap(tracer, BlockScorer, "pair_similarity", "blocking.scalar_pair")
    _wrap(
        tracer, SparseNeighborhoodFilter, "filter_blocks", "blocking.sn_filter",
        lambda args, _kwargs, result: [
            ("blocking.blocks_in", len(args[1])),
            ("blocking.blocks_admitted", len(result)),
        ],
    )
    for name in ("extract_features_batch", "pair_features"):
        _wrap(
            tracer, training, name, "similarity.features",
            result_len("similarity.vectors"),
        )
    _wrap(
        tracer, training.PairClassifier, "fit", "classify.fit",
        lambda args, _kwargs, _result: [
            ("classify.training_pairs", len(args[1])),
        ],
    )
    _wrap(tracer, ADTreeLearner, "fit", "classify.adtree_fit")
    _wrap(
        tracer, training.PairClassifier, "rank", "classify.rank",
        lambda _args, _kwargs, result: [
            ("classify.pairs_ranked", len(result)),
            ("classify.pairs_kept", sum(1 for _pair, score in result if score > 0.0)),
        ],
    )
    _wrap(
        tracer, ExpertTagger, "tag_pairs", "tagging.tag",
        result_len("tagging.pairs"),
    )
    _wrap(tracer, UncertainERPipeline, "block", "core.pipeline_block")
    _wrap(tracer, UncertainERPipeline, "run", "core.pipeline_run")
    _wrap(tracer, ResolutionResult, "evaluate", "core.evaluate")
    _wrap(tracer, ResolutionResult, "to_csv", "core.write_csv")
    _wrap(
        tracer, ResolutionResult, "entities", "core.entities",
        lambda args, _kwargs, _result: [("core.live_pairs", len(args[0]))],
    )
    _wrap(tracer, IncrementalResolver, "resolution", "core.resolution_build")
    _wrap(
        tracer, IncrementalResolver, "add_records", "ingest.add_records",
        lambda _args, _kwargs, result: [
            ("ingest.candidates_scored", result.candidates_scored),
            ("ingest.dirty_items", result.dirty_items),
            ("ingest.evidence_produced", len(result.produced)),
        ],
    )
    for name in ("append_begin", "append_commit"):
        _wrap(
            tracer, WriteAheadLog, name, "wal.append",
            lambda _args, _kwargs, _result: [("wal.appends", 1)],
        )
    _wrap_map_chunks(tracer, MultiprocessExecutor)
    return tracer, sink


def _op_span_ids(spans: List[List[Any]]) -> List[int]:
    """Indices of the spans under an ``OP_ROOTS`` root, in start order."""
    keep: List[bool] = []
    for name, _start, _end, parent, _counts in spans:
        keep.append(keep[parent] if parent >= 0 else name in OP_ROOTS)
    return [index for index, flag in enumerate(keep) if flag]


def layer_metrics(spans: List[List[Any]]) -> Dict[str, float]:
    """The per-layer metrics of one op from its recorded spans."""
    ids = _op_span_ids(spans)
    calls: Dict[str, int] = {}
    busy: Dict[str, float] = {}
    selftime: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    child_time: Dict[int, float] = {}
    for index in ids:
        _name, start, end, parent, _counts = spans[index]
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    for index in ids:
        name, start, end, _parent, span_counts = spans[index]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (end - start)
        selftime[name] = selftime.get(name, 0.0) + (
            end - start - child_time.get(index, 0.0)
        )
        for key in sorted(span_counts):
            value = span_counts[key]
            if key in LAST_VALUE:
                counts[key] = value
            elif key in MAX_VALUE:
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    def count(key: str) -> float:
        return counts.get(key, 0)

    return {
        "records.load_s": busy.get("records.load", 0.0),
        "records.item_bags_s": busy.get("records.item_bags", 0.0),
        "mining.calls": calls.get("mining.mfi", 0),
        "mining.busy_s": busy.get("mining.mfi", 0.0),
        "mining.transactions": count("mining.transactions"),
        "mining.mfis": count("mining.mfis"),
        "mining.mfis_per_s": ratio(
            count("mining.mfis"), busy.get("mining.mfi", 0.0)
        ),
        "blocking.calls": calls.get("blocking.run", 0),
        "blocking.busy_s": busy.get("blocking.run", 0.0),
        "blocking.self_s": selftime.get("blocking.run", 0.0),
        "blocking.score_s": busy.get("blocking.score", 0.0),
        "blocking.pairs_scored": count("blocking.pairs_scored"),
        "blocking.sn_filter_s": busy.get("blocking.sn_filter", 0.0),
        "blocking.blocks_in": count("blocking.blocks_in"),
        "blocking.admit_ratio": ratio(
            count("blocking.blocks_admitted"), count("blocking.blocks_in")
        ),
        "blocking.candidate_pairs": count("blocking.candidate_pairs"),
        "blocking.scalar_pair_calls": calls.get("blocking.scalar_pair", 0),
        "blocking.scalar_pair_s": busy.get("blocking.scalar_pair", 0.0),
        "similarity.features_s": busy.get("similarity.features", 0.0),
        "similarity.vectors": count("similarity.vectors"),
        "similarity.vectors_per_s": ratio(
            count("similarity.vectors"), busy.get("similarity.features", 0.0)
        ),
        "classify.fit_s": busy.get("classify.fit", 0.0),
        "classify.adtree_fit_s": busy.get("classify.adtree_fit", 0.0),
        "classify.training_pairs": count("classify.training_pairs"),
        "classify.rank_s": busy.get("classify.rank", 0.0),
        "classify.pairs_ranked": count("classify.pairs_ranked"),
        "classify.kept_ratio": ratio(
            count("classify.pairs_kept"), count("classify.pairs_ranked")
        ),
        "tagging.tag_s": busy.get("tagging.tag", 0.0),
        "tagging.pairs": count("tagging.pairs"),
        "core.pipeline_run_s": busy.get("core.pipeline_run", 0.0),
        "core.evaluate_s": busy.get("core.evaluate", 0.0),
        "core.write_csv_s": busy.get("core.write_csv", 0.0),
        "core.resolution_build_s": busy.get("core.resolution_build", 0.0),
        "core.entities_s": busy.get("core.entities", 0.0),
        "core.live_pairs": count("core.live_pairs"),
        "ingest.add_records_s": busy.get("ingest.add_records", 0.0),
        "ingest.candidates_scored": count("ingest.candidates_scored"),
        "ingest.dirty_items": count("ingest.dirty_items"),
        "ingest.evidence_produced": count("ingest.evidence_produced"),
        "ingest.useful_ratio": ratio(
            count("ingest.evidence_produced"), count("ingest.candidates_scored")
        ),
        "parallel.dispatches": count("parallel.dispatches"),
        "parallel.dispatch_s": busy.get("parallel.map_chunks", 0.0),
        "parallel.chunks": count("parallel.chunks"),
        "parallel.worker_chunks": count("parallel.worker_chunks"),
        "parallel.inline_chunks": count("parallel.inline_chunks"),
        "parallel.retries": count("parallel.retries"),
        "parallel.pools_created": count("parallel.pools_created"),
        "parallel.bytes_not_pickled": count("parallel.bytes_not_pickled"),
        "parallel.shared_segment_bytes": count("parallel.shared_segment_bytes"),
        "wal.append_s": busy.get("wal.append", 0.0),
        "wal.appends": count("wal.appends"),
    }
