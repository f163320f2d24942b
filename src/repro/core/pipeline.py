"""The uncertain-ER pipeline: blocking -> evidence -> ranked resolution.

This is the system of Figure 9, end to end:

1. preprocessing — records to item bags (handled by :class:`Dataset`);
2. **MFIBlocks** — soft, overlapping blocks and scored candidate pairs;
3. optional **SameSrc** filter — discard pairs sharing a source, "since
   this implies that a person was named twice in the same victim list or
   that a single witness filed two pages of testimony about the same
   person";
4. optional **ADTree** classification — re-rank by learned confidence
   and drop low scorers (the Cls condition);
5. a :class:`~repro.core.resolution.ResolutionResult` exposing ranked,
   certainty-tunable resolution.

Every stage runs under the pipeline's :class:`~repro.obs.tracer.Tracer`
(span taxonomy in ``docs/OBSERVABILITY.md``). With the default
:data:`~repro.obs.tracer.NULL_TRACER` instrumentation is free and the
output is byte-identical to an uninstrumented run; with an enabled
tracer the run additionally yields a
:class:`~repro.obs.report.RunReport` on the result.

The pipeline is also the integration point of the resilience layer
(``docs/RESILIENCE.md``): pass a
:class:`~repro.resilience.checkpoints.CheckpointStore` and each
completed stage persists a fingerprint-chained checkpoint; pass
``resume=True`` and the run restarts from the deepest checkpoint that
verifies — with output byte-identical to an uninterrupted run, because
every stage is deterministic and the checkpointed state round-trips
exactly. A :class:`~repro.resilience.faults.FaultInjector` hooks the
stage boundaries so chaos tests can kill the run at any of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.blocking.base import BlockingResult
from repro.blocking.mfiblocks import MFIBlocks
from repro.classify.printer import render_tree
from repro.classify.training import PairClassifier
from repro.contracts import deterministic, ordered_output
from repro.core.config import PipelineConfig
from repro.core.resolution import PairEvidence, ResolutionResult
from repro.obs.report import RunReport
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.executor import Executor, SerialExecutor
from repro.records.dataset import Dataset
from repro.resilience.checkpoints import (
    CheckpointStore,
    canonical_digest,
    chain_fingerprint,
)
from repro.resilience.faults import FaultInjector

__all__ = ["UncertainERPipeline", "corpus_stats", "PIPELINE_STAGES"]

Pair = Tuple[int, int]

#: The checkpointable stage boundaries, in execution order. Each name
#: is both a checkpoint key and a fault-injection point.
PIPELINE_STAGES: Tuple[str, ...] = (
    "blocking",
    "same_source",
    "classify",
    "evidence",
)


@dataclass
class _RunState:
    """Everything later stages need from earlier ones.

    Checkpoints are cumulative: the payload written after stage *k*
    reconstructs this state well enough to run stages *k+1..n*, so a
    resume only ever needs the single deepest valid checkpoint.
    """

    pair_scores: Dict[Pair, float] = field(default_factory=dict)
    degraded: bool = False
    pairs: List[Pair] = field(default_factory=list)
    same_source: Dict[Pair, bool] = field(default_factory=dict)
    confidences: Dict[Pair, float] = field(default_factory=dict)
    evidence: List[PairEvidence] = field(default_factory=list)


@deterministic
def _encode_state(state: _RunState, stage: str) -> Dict[str, Any]:
    """JSON-safe snapshot of the state as of ``stage`` (sorted, exact).

    Floats survive a JSON round-trip bit-exactly (``repr`` based), so a
    decoded checkpoint reproduces the fresh-run bytes downstream.
    """
    payload: Dict[str, Any] = {
        "stage": stage,
        "degraded": state.degraded,
        "pair_scores": [
            [a, b, score] for (a, b), score in sorted(state.pair_scores.items())
        ],
    }
    if stage in ("same_source", "classify", "evidence"):
        payload["pairs"] = [[a, b] for a, b in state.pairs]
        payload["same_source"] = [
            [a, b, flag] for (a, b), flag in sorted(state.same_source.items())
        ]
    if stage in ("classify", "evidence"):
        payload["confidences"] = [
            [a, b, score] for (a, b), score in sorted(state.confidences.items())
        ]
    if stage == "evidence":
        payload["evidence"] = [
            [e.pair[0], e.pair[1], e.similarity, e.confidence, e.same_source]
            for e in state.evidence
        ]
    return payload


@deterministic
def _decode_state(payload: Mapping[str, Any]) -> _RunState:
    """Inverse of :func:`_encode_state`."""
    state = _RunState(degraded=bool(payload.get("degraded", False)))
    state.pair_scores = {
        (a, b): score for a, b, score in payload.get("pair_scores", [])
    }
    state.pairs = [(a, b) for a, b in payload.get("pairs", [])]
    state.same_source = {
        (a, b): flag for a, b, flag in payload.get("same_source", [])
    }
    state.confidences = {
        (a, b): score for a, b, score in payload.get("confidences", [])
    }
    state.evidence = [
        PairEvidence(
            pair=(a, b),
            similarity=similarity,
            confidence=confidence,
            same_source=same_source,
        )
        for a, b, similarity, confidence, same_source in payload.get(
            "evidence", []
        )
    ]
    return state


class UncertainERPipeline:
    """Runs uncertain entity resolution over a dataset."""

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        tracer: Optional[Tracer] = None,
        executor: Optional[Executor] = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Execution machinery, like the tracer — deliberately NOT part
        # of PipelineConfig: the worker count must never reach config
        # echoes or checkpoint fingerprints, so a run checkpointed at
        # one worker count resumes byte-identically at any other
        # (docs/PARALLELISM.md).
        self.executor = executor if executor is not None else SerialExecutor()

    # -- pipeline stages ---------------------------------------------------------

    @deterministic
    def block(self, dataset: Dataset) -> BlockingResult:
        """Stage 2: MFIBlocks soft clustering."""
        return MFIBlocks(
            self.config.blocking_config(),
            tracer=self.tracer,
            executor=self.executor,
        ).run(dataset)

    def same_source_filter(
        self, dataset: Dataset, pairs: Iterable[Pair]
    ) -> List[Pair]:
        """Stage 3: drop pairs whose two records share a source."""
        return [
            pair
            for pair in pairs
            if dataset[pair[0]].source.key != dataset[pair[1]].source.key
        ]

    def train_classifier(
        self,
        dataset: Dataset,
        labeled_pairs: Mapping[Pair, bool],
        classifier: Optional[PairClassifier] = None,
    ) -> PairClassifier:
        """Stage 4 prerequisite: fit the ADTree on expert-labeled pairs."""
        classifier = classifier or PairClassifier(dataset, tracer=self.tracer)
        return classifier.fit(labeled_pairs)

    # -- end-to-end ---------------------------------------------------------------

    @ordered_output
    def run(
        self,
        dataset: Dataset,
        classifier: Optional[PairClassifier] = None,
        labeled_pairs: Optional[Mapping[Pair, bool]] = None,
        checkpoints: Optional[CheckpointStore] = None,
        resume: bool = False,
        faults: Optional[FaultInjector] = None,
        blocking: Optional[BlockingResult] = None,
    ) -> ResolutionResult:
        """Execute the configured pipeline.

        When ``config.classify`` is set, a classifier is required —
        either pre-trained (``classifier``) or trained on the spot from
        ``labeled_pairs``. Without classification the resolution ranks
        by blocking similarity alone.

        With ``checkpoints`` every completed stage is persisted;
        ``resume=True`` additionally restarts from the deepest
        checkpoint whose fingerprint chain verifies against this
        corpus, configuration, and label set, producing output
        byte-identical to an uninterrupted run. ``faults`` is the chaos
        hook: it may raise
        :class:`~repro.resilience.faults.SimulatedCrash` at any stage
        boundary (after that stage's checkpoint is durable).

        ``blocking`` lets a caller that already blocked this corpus —
        e.g. to pick the pairs an expert tags — hand the result in, so
        the blocking stage does not run MFIBlocks a second time.
        Precondition: it must be what ``self.block(dataset)`` returns
        on this pipeline's configuration; it is not checked, and since
        it is a function of corpus and config the checkpoint
        fingerprints do not cover it. A resume from a checkpoint past
        blocking ignores it.
        """
        tracer = self.tracer
        fingerprints: Dict[str, str] = {}
        if checkpoints is not None:
            # Fingerprinting serializes the whole corpus; skip the cost
            # entirely for uncheckpointed (e.g. benchmark) runs.
            fingerprints = self._stage_fingerprints(
                dataset, classifier, labeled_pairs
            )

        state = _RunState()
        first_stage = 0
        resumed_from: Optional[str] = None
        if checkpoints is not None and resume:
            for index in reversed(range(len(PIPELINE_STAGES))):
                stage = PIPELINE_STAGES[index]
                payload = checkpoints.load(stage, fingerprints[stage])
                if payload is not None:
                    state = _decode_state(payload)
                    first_stage = index + 1
                    resumed_from = stage
                    break

        with tracer.span("pipeline.run"):
            tracer.count("pipeline.records", len(dataset))
            if resumed_from is not None:
                tracer.count("resilience.stages_resumed", first_stage)
            for index in range(first_stage, len(PIPELINE_STAGES)):
                stage = PIPELINE_STAGES[index]
                self._run_stage(
                    stage, state, dataset, classifier, labeled_pairs,
                    blocking,
                )
                if checkpoints is not None:
                    with tracer.span("pipeline.checkpoint", stage=stage):
                        checkpoints.save(
                            stage, fingerprints[stage],
                            _encode_state(state, stage),
                        )
                    tracer.count("resilience.checkpoints_saved", 1)
                if faults is not None:
                    faults.after_stage(stage)
            if state.degraded:
                tracer.count("pipeline.degraded", 1)
            tracer.count("pipeline.resolved_pairs", len(state.evidence))

        return ResolutionResult(
            state.evidence,
            n_records=len(dataset),
            report=self._build_report(
                dataset,
                resilience=self._resilience_info(
                    state, checkpoints, resumed_from
                ),
            ),
            degraded=state.degraded,
        )

    # -- stage bodies -------------------------------------------------------------

    def _run_stage(
        self,
        stage: str,
        state: _RunState,
        dataset: Dataset,
        classifier: Optional[PairClassifier],
        labeled_pairs: Optional[Mapping[Pair, bool]],
        blocking: Optional[BlockingResult],
    ) -> None:
        """Execute one named stage, mutating ``state`` in place."""
        config = self.config
        tracer = self.tracer
        if stage == "blocking":
            if blocking is None:
                with tracer.span("pipeline.block"):
                    blocking = self.block(dataset)
            state.pair_scores = dict(blocking.pair_scores)
            state.degraded = blocking.degraded
            tracer.count("pipeline.candidate_pairs", len(state.pair_scores))
        elif stage == "same_source":
            pairs: List[Pair] = sorted(state.pair_scores)
            # Source identity is needed twice — by the SameSrc filter and
            # by the evidence flags — so derive it exactly once per pair.
            with tracer.span("pipeline.same_source"):
                state.same_source = {
                    pair: (
                        dataset[pair[0]].source.key
                        == dataset[pair[1]].source.key
                    )
                    for pair in pairs
                }
                if config.same_source_discard:
                    kept = [
                        pair for pair in pairs if not state.same_source[pair]
                    ]
                    tracer.count(
                        "pipeline.pairs_dropped_same_source",
                        len(pairs) - len(kept),
                    )
                    pairs = kept
            state.pairs = pairs
        elif stage == "classify":
            if not config.classify:
                return
            with tracer.span("pipeline.classify"):
                if classifier is None:
                    if labeled_pairs is None:
                        raise ValueError(
                            "classify=True needs a trained classifier "
                            "or labeled_pairs"
                        )
                    classifier = self.train_classifier(dataset, labeled_pairs)
                scored = classifier.rank(state.pairs, executor=self.executor)
                filtered = [
                    pair for pair, score in scored
                    if score > config.classifier_threshold
                ]
                tracer.count(
                    "pipeline.pairs_dropped_classifier",
                    len(state.pairs) - len(filtered),
                )
                state.pairs = filtered
                state.confidences = dict(scored)
        elif stage == "evidence":
            with tracer.span("pipeline.evidence"):
                state.evidence = [
                    PairEvidence(
                        pair=pair,
                        similarity=state.pair_scores[pair],
                        confidence=(
                            state.confidences.get(pair)
                            if config.classify else None
                        ),
                        same_source=state.same_source[pair],
                    )
                    for pair in state.pairs
                ]
        else:  # pragma: no cover - PIPELINE_STAGES is the only caller
            raise ValueError(f"unknown pipeline stage: {stage!r}")

    # -- checkpoint identity ------------------------------------------------------

    def _stage_fingerprints(
        self,
        dataset: Dataset,
        classifier: Optional[PairClassifier],
        labeled_pairs: Optional[Mapping[Pair, bool]],
    ) -> Dict[str, str]:
        """The fingerprint chain for this (corpus, config, labels) run.

        Chaining makes staleness structural: a checkpoint can only hit
        when the corpus content, the full configuration, everything
        upstream of its stage, and — for classification — the label
        set and any pre-trained model all match.
        """
        labels_digest: Optional[str] = None
        if labeled_pairs is not None:
            labels_digest = canonical_digest(
                [[a, b, flag] for (a, b), flag in sorted(labeled_pairs.items())]
            )
        classifier_digest: Optional[str] = None
        if classifier is not None and classifier.model is not None:
            classifier_digest = canonical_digest(render_tree(classifier.model))

        fingerprints: Dict[str, str] = {}
        parent: Optional[str] = None
        contexts: Dict[str, Dict[str, Any]] = {
            "blocking": {
                "corpus": dataset.content_fingerprint(),
                "config": self.config.to_echo(),
            },
            "same_source": {},
            "classify": {
                "labels": labels_digest,
                "classifier": classifier_digest,
            },
            "evidence": {},
        }
        for stage in PIPELINE_STAGES:
            parent = chain_fingerprint(parent, stage, contexts[stage])
            fingerprints[stage] = parent
        return fingerprints

    # -- observability ------------------------------------------------------------

    @staticmethod
    def _resilience_info(
        state: _RunState,
        checkpoints: Optional[CheckpointStore],
        resumed_from: Optional[str],
    ) -> Dict[str, Any]:
        """The report's resilience block (see docs/RESILIENCE.md)."""
        info: Dict[str, Any] = {"degraded": state.degraded}
        if checkpoints is not None:
            hits, misses = checkpoints.summary()
            info["checkpoints"] = {
                "directory": str(checkpoints.directory),
                "resumed_from": resumed_from,
                "hits": hits,
                "misses": checkpoints.miss_counts(),
            }
        return info

    def _build_report(
        self,
        dataset: Dataset,
        resilience: Optional[Mapping[str, Any]] = None,
    ) -> Optional[RunReport]:
        """Snapshot the tracer's aggregate into a run report (None if off)."""
        aggregate = self.tracer.aggregate
        if aggregate is None:
            return None
        return RunReport.build(
            aggregate,
            config=self.config.to_echo(),
            corpus=corpus_stats(dataset),
            resilience=resilience,
            parallel=self.executor.to_echo(),
            parallel_profile=self.executor.profile_echo(),
        )


@deterministic
def corpus_stats(dataset: Dataset) -> Dict[str, object]:
    """Corpus summary echoed into run reports."""
    sources = {record.source.key for record in dataset}
    n_items = sum(len(bag) for bag in dataset.item_bags.values())
    return {
        "name": dataset.name,
        "n_records": len(dataset),
        "n_sources": len(sources),
        "n_items": n_items,
    }
