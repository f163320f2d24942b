"""The classify path computes each stage once, with unchanged output.

`repro resolve --classify` blocks once (the tagging pass's result is
handed to ``UncertainERPipeline.run``) and extracts each pair's
features once (``PairClassifier.fit`` keeps its batch-extracted
training vectors for the next ``rank``). These tests pin both savings
against the recompute-everything reference: same ranked evidence, same
trained tree, and exact extraction counts.
"""

from __future__ import annotations

import copy
from collections import Counter

import pytest

from repro.blocking.mfiblocks import MFIBlocks
from repro.classify import ADTreeLearner, render_tree
from repro.classify import training
from repro.classify.training import PairClassifier
from repro.cli import main as cli_main
from repro.core import PipelineConfig, UncertainERPipeline
from repro.core.pipeline import PIPELINE_STAGES
from repro.datagen import ExpertTagger, build_corpus, simplify_tags
from repro.parallel.executor import MultiprocessExecutor
from repro.resilience import (
    CheckpointStore,
    FaultInjector,
    FaultPlan,
    SimulatedCrash,
)
from repro.similarity.features import extract_features

CONFIG = PipelineConfig(
    max_minsup=4, ng=3.0, expert_weighting=True, classify=True
)
SUBSET = ("sameFN", "LNdist", "B1dist", "sameBPCity", "itemJaccard")


@pytest.fixture(scope="module")
def corpus():
    dataset, _ = build_corpus(n_persons=50, communities=("italy",), seed=23)
    return dataset


@pytest.fixture(scope="module")
def blocking(corpus):
    return UncertainERPipeline(CONFIG).block(corpus)


@pytest.fixture(scope="module")
def labels(corpus, blocking):
    tagged = ExpertTagger(corpus, seed=7).tag_pairs(blocking.candidate_pairs)
    return simplify_tags(tagged, maybe_as=None)


@pytest.fixture(scope="module")
def fresh_evidence(corpus, labels):
    return list(UncertainERPipeline(CONFIG).run(corpus, labeled_pairs=labels))


@pytest.fixture()
def mfiblocks_runs(monkeypatch):
    """Counts ``MFIBlocks.run`` calls made while the test runs."""
    calls = []
    original = MFIBlocks.run

    def counted(self, dataset):
        calls.append(len(dataset))
        return original(self, dataset)

    monkeypatch.setattr(MFIBlocks, "run", counted)
    return calls


@pytest.fixture()
def extracted(monkeypatch):
    """Every pair the classifier batch-extracts while the test runs."""
    pairs = []
    original = training.extract_features_batch

    def counted(dataset, batch, names=None):
        pairs.extend(batch)
        return original(dataset, batch, names=names)

    monkeypatch.setattr(training, "extract_features_batch", counted)
    return pairs


class TestBlockingHandOff:
    def test_same_evidence_as_blocking_inside_run(
        self, corpus, blocking, labels, fresh_evidence, mfiblocks_runs
    ):
        result = UncertainERPipeline(CONFIG).run(
            corpus, labeled_pairs=labels, blocking=blocking
        )
        assert list(result) == fresh_evidence
        assert mfiblocks_runs == []

    @pytest.mark.parametrize("stage", PIPELINE_STAGES)
    def test_checkpoint_resume_with_blocking_argument(
        self, corpus, blocking, labels, fresh_evidence, tmp_path, stage
    ):
        store_dir = tmp_path / "checkpoints"
        with pytest.raises(SimulatedCrash):
            UncertainERPipeline(CONFIG).run(
                corpus,
                labeled_pairs=labels,
                checkpoints=CheckpointStore(store_dir),
                faults=FaultInjector(FaultPlan(crash_after_stage=stage)),
                blocking=blocking,
            )
        store = CheckpointStore(store_dir)
        resumed = UncertainERPipeline(CONFIG).run(
            corpus,
            labeled_pairs=labels,
            checkpoints=store,
            resume=True,
            blocking=blocking,
        )
        assert store.hits == [stage]
        assert list(resumed) == fresh_evidence

    def test_checkpoints_do_not_depend_on_the_argument(
        self, corpus, blocking, labels, fresh_evidence, tmp_path
    ):
        # A chain written with a handed-in blocking result serves a run
        # that blocks for itself: the fingerprints are unchanged.
        store_dir = tmp_path / "checkpoints"
        UncertainERPipeline(CONFIG).run(
            corpus,
            labeled_pairs=labels,
            checkpoints=CheckpointStore(store_dir),
            blocking=blocking,
        )
        store = CheckpointStore(store_dir)
        resumed = UncertainERPipeline(CONFIG).run(
            corpus, labeled_pairs=labels, checkpoints=store, resume=True
        )
        assert store.hits == [PIPELINE_STAGES[-1]]
        assert list(resumed) == fresh_evidence

    def test_cli_resolve_classify_blocks_once(
        self, tmp_path, mfiblocks_runs
    ):
        corpus_path = tmp_path / "corpus.json"
        assert cli_main([
            "generate", "--persons", "40", "--communities", "italy",
            "--seed", "23", "--out", str(corpus_path),
        ]) == 0
        assert cli_main([
            "resolve", str(corpus_path), "--ng", "3.0",
            "--max-minsup", "4", "--expert-weighting", "--classify",
            "--tag-seed", "7",
        ]) == 0
        assert len(mfiblocks_runs) == 1


class TestBatchedFit:
    @pytest.mark.parametrize("names", [None, SUBSET])
    def test_tree_matches_scalar_reference(self, corpus, labels, names):
        pairs = sorted(labels)
        reference = ADTreeLearner(n_rounds=8).fit(
            [
                extract_features(corpus[a], corpus[b], names=names)
                for a, b in pairs
            ],
            [labels[pair] for pair in pairs],
        )
        classifier = PairClassifier(
            corpus, learner=ADTreeLearner(n_rounds=8), feature_names=names
        ).fit(labels)
        assert classifier.model is not None
        assert render_tree(classifier.model) == render_tree(reference)

    def test_fit_does_not_mutate_training_vectors(
        self, corpus, labels, monkeypatch
    ):
        seen = []
        original = ADTreeLearner.fit

        def spy(self, features, labels_):
            seen.append((features, copy.deepcopy(features)))
            return original(self, features, labels_)

        monkeypatch.setattr(ADTreeLearner, "fit", spy)
        PairClassifier(corpus, learner=ADTreeLearner(n_rounds=8)).fit(labels)
        [(trained_on, snapshot)] = seen
        assert trained_on == snapshot


class TestFitVectorsReusedByRank:
    @staticmethod
    def _rank_pairs(corpus, labels):
        # Half the training pairs plus pairs the model never saw, so
        # rank has both reusable and missing vectors.
        ids = corpus.record_ids
        unseen = [
            pair
            for pair in zip(ids, ids[3:])
            if pair not in labels
        ]
        assert unseen
        return sorted(labels)[::2] + unseen

    def test_each_pair_extracted_once(self, corpus, labels, extracted):
        classifier = PairClassifier(
            corpus, learner=ADTreeLearner(n_rounds=8)
        ).fit(labels)
        ranked_pairs = self._rank_pairs(corpus, labels)
        ranked = classifier.rank(ranked_pairs)
        union = set(labels) | set(ranked_pairs)
        assert Counter(extracted) == Counter(union)
        assert classifier._fit_vectors == {}
        # Nothing is remembered, so a second rank extracts everything.
        extracted.clear()
        assert classifier.rank(ranked_pairs) == ranked
        assert sorted(extracted) == sorted(set(ranked_pairs))

    def test_reuse_leaves_ranking_unchanged(self, corpus, labels):
        ranked_pairs = self._rank_pairs(corpus, labels)
        reused = PairClassifier(
            corpus, learner=ADTreeLearner(n_rounds=8)
        ).fit(labels)
        fresh = PairClassifier(
            corpus, learner=ADTreeLearner(n_rounds=8)
        ).fit(labels)
        fresh._fit_vectors = {}
        assert reused.rank(ranked_pairs) == fresh.rank(ranked_pairs)

    @pytest.mark.parametrize("min_dispatch_items", [512, 0])
    def test_every_rank_path_drops_the_vectors(
        self, corpus, labels, min_dispatch_items
    ):
        # 512 keeps this small rank inline in the parent; 0 sends it
        # to worker chunks.
        ranked_pairs = self._rank_pairs(corpus, labels)
        serial = PairClassifier(
            corpus, learner=ADTreeLearner(n_rounds=8)
        ).fit(labels)
        expected = serial.rank(ranked_pairs)
        classifier = PairClassifier(
            corpus, learner=ADTreeLearner(n_rounds=8)
        ).fit(labels)
        assert classifier._fit_vectors
        executor = MultiprocessExecutor(
            2, min_dispatch_items=min_dispatch_items
        )
        try:
            assert classifier.rank(ranked_pairs, executor=executor) == expected
        finally:
            executor.close()
        assert classifier._fit_vectors == {}
        if min_dispatch_items == 0:
            assert executor.stats.worker_chunks > 0
