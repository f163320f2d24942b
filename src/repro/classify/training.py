"""Training and evaluation harness for the pair classifier.

Provides the machinery behind the classifier experiments (Section 6.4):

* feature extraction for tagged candidate pairs;
* deterministic train/test splits and k-fold cross-validated accuracy
  (the paper reports ~95% accuracy across configurations);
* :class:`PairClassifier` — the dataset-facing wrapper that scores and
  ranks candidate pairs with a trained ADTree;
* :class:`OneVsRestADTree` — the three-class variant used by Table 5's
  "identify Maybe values" condition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.classify.adtree import ADTreeModel
from repro.classify.boosting import ADTreeLearner
from repro.contracts import deterministic, ordered_output, seeded
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.executor import Executor
from repro.parallel.merge import merge_scored_chunks
from repro.parallel.shared import publish_shared_state
from repro.parallel.work import classify_pair_chunk, classify_pair_chunk_shared
from repro.records.dataset import Dataset
from repro.similarity.features import (
    FeatureVector,
    extract_features,
    extract_features_batch,
)

__all__ = [
    "EvaluationResult",
    "pair_features",
    "train_test_split",
    "evaluate_model",
    "cross_validate",
    "PairClassifier",
    "OneVsRestADTree",
]

Pair = Tuple[int, int]

T = TypeVar("T")


@dataclass(frozen=True)
class EvaluationResult:
    """Binary-classification quality over a labeled pair set."""

    n: int
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.n if self.n else 0.0

    @property
    def precision(self) -> float:
        predicted = self.tp + self.fp
        return self.tp / predicted if predicted else 0.0

    @property
    def recall(self) -> float:
        actual = self.tp + self.fn
        return self.tp / actual if actual else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def pair_features(
    dataset: Dataset,
    pairs: Iterable[Pair],
    names: Optional[Tuple[str, ...]] = None,
) -> List[FeatureVector]:
    """Extract the 48 (or a subset of) features for each candidate pair.

    Runs the vectorised :func:`extract_features_batch`, which is value-
    identical to the scalar :func:`extract_features` reference.
    """
    return extract_features_batch(dataset, list(pairs), names=names)


@seeded(param="seed")
def train_test_split(
    items: Sequence[T], test_fraction: float = 0.3, seed: int = 11
) -> Tuple[List[T], List[T]]:
    """Deterministic shuffle split; returns (train, test)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    indices = list(range(len(items)))
    random.Random(seed).shuffle(indices)
    n_test = max(1, int(round(len(items) * test_fraction)))
    test_idx = set(indices[:n_test])
    train = [items[i] for i in indices if i not in test_idx]
    test = [items[i] for i in sorted(test_idx)]
    return train, test


def evaluate_model(
    model: ADTreeModel,
    features: Sequence[FeatureVector],
    labels: Sequence[bool],
    threshold: float = 0.0,
) -> EvaluationResult:
    """Confusion counts of a trained model on labeled feature vectors."""
    tp = fp = tn = fn = 0
    for vector, label in zip(features, labels):
        predicted = model.score(vector) > threshold
        if predicted and label:
            tp += 1
        elif predicted and not label:
            fp += 1
        elif not predicted and not label:
            tn += 1
        else:
            fn += 1
    return EvaluationResult(len(features), tp, fp, tn, fn)


@seeded(param="seed")
def cross_validate(
    features: Sequence[FeatureVector],
    labels: Sequence[bool],
    n_folds: int = 5,
    seed: int = 13,
    learner: Optional[ADTreeLearner] = None,
) -> List[EvaluationResult]:
    """k-fold cross validation; returns one result per fold."""
    if n_folds < 2:
        raise ValueError(f"n_folds must be >= 2, got {n_folds}")
    if len(features) < n_folds:
        raise ValueError("fewer instances than folds")
    learner = learner or ADTreeLearner()
    indices = list(range(len(features)))
    random.Random(seed).shuffle(indices)
    folds = [indices[i::n_folds] for i in range(n_folds)]
    results: List[EvaluationResult] = []
    for held_out in folds:
        held = set(held_out)
        train_x = [features[i] for i in indices if i not in held]
        train_y = [labels[i] for i in indices if i not in held]
        test_x = [features[i] for i in held_out]
        test_y = [labels[i] for i in held_out]
        model = learner.fit(train_x, train_y)
        results.append(evaluate_model(model, test_x, test_y))
    return results


class PairClassifier:
    """Dataset-facing wrapper: train on tagged pairs, score/rank any pair."""

    def __init__(
        self,
        dataset: Dataset,
        learner: Optional[ADTreeLearner] = None,
        feature_names: Optional[Tuple[str, ...]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.dataset = dataset
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.learner = learner if learner is not None else ADTreeLearner(
            tracer=self.tracer
        )
        self.feature_names = feature_names
        self.model: Optional[ADTreeModel] = None
        # Training vectors kept by ``fit`` for the next ``rank`` only;
        # every ``rank`` empties it, so a long-lived classifier holds
        # no vectors.
        self._fit_vectors: Dict[Pair, FeatureVector] = {}

    @deterministic
    def fit(self, labeled_pairs: Mapping[Pair, bool]) -> "PairClassifier":
        """Train the ADTree from pair -> is-match labels.

        The training vectors are kept keyed by pair so that the next
        :meth:`rank` extracts only the pairs it has not seen. Reuse is
        exact: the dataset is immutable, the learner does not mutate
        its input, and the batch extractor is what ``rank`` runs.
        """
        with self.tracer.span("classify.fit", n_pairs=len(labeled_pairs)):
            pairs = sorted(labeled_pairs)
            with self.tracer.span("classify.features"):
                features = extract_features_batch(
                    self.dataset, pairs, names=self.feature_names
                )
            labels = [labeled_pairs[pair] for pair in pairs]
            self.model = self.learner.fit(features, labels)
            self._fit_vectors = dict(zip(pairs, features))
        self.tracer.count("classify.training_pairs", len(pairs))
        return self

    def _require_model(self) -> ADTreeModel:
        if self.model is None:
            raise RuntimeError("classifier is not fitted; call fit() first")
        return self.model

    def score_pair(self, pair: Pair) -> float:
        """ADTree confidence for one pair (positive leans match)."""
        model = self._require_model()
        a, b = pair
        vector = extract_features(
            self.dataset[a], self.dataset[b], names=self.feature_names
        )
        return model.score(vector)

    @ordered_output
    def rank(
        self,
        pairs: Iterable[Pair],
        executor: Optional[Executor] = None,
    ) -> List[Tuple[Pair, float]]:
        """Pairs sorted by descending confidence — the ranked resolution.

        With a parallel ``executor`` the unique pairs are feature-
        extracted and model-scored in worker chunks; the scores are the
        same floats the serial loop computes (identical feature and
        model arithmetic per pair — the batch extractor is value-
        identical to ``extract_features``), and the final sort imposes
        the canonical order either way, so output is byte-identical
        across worker counts and dispatch modes (docs/PARALLELISM.md).

        Shared-state executors get pickle-free ``(token, pairs)``
        payloads — dataset and model are published once instead of
        pickled per chunk — and pair lists below the executor's
        ``min_dispatch_items`` are scored inline with the same batch
        extractor.

        In-process scoring reuses the vectors the last :meth:`fit`
        extracted and batch-extracts only the pairs it lacks. Every
        call, on every path, drops those vectors afterwards.
        """
        with self.tracer.span("classify.rank"):
            unique = sorted(set(pairs))
            vectors, self._fit_vectors = self._fit_vectors, {}
            scored: List[Tuple[Pair, float]] = []
            if unique:
                model = self._require_model()
                if executor is not None and executor.parallel and not (
                    executor.shared_state
                    and len(unique) < executor.min_dispatch_items
                ):
                    chunk_results = self._rank_chunks(unique, model, executor)
                    scored = list(merge_scored_chunks(chunk_results).items())
                else:
                    # Serial, or below the shared-state dispatch floor
                    # where dispatch would cost more than the work.
                    missing = [pair for pair in unique if pair not in vectors]
                    if missing:
                        vectors.update(
                            zip(
                                missing,
                                extract_features_batch(
                                    self.dataset, missing,
                                    names=self.feature_names,
                                ),
                            )
                        )
                    scored = [
                        (pair, model.score(vectors[pair])) for pair in unique
                    ]
            scored.sort(key=lambda kv: (-kv[1], kv[0]))
        self.tracer.count("classify.pairs_scored", len(scored))
        return scored

    def _rank_chunks(
        self,
        unique: List[Pair],
        model: ADTreeModel,
        executor: Executor,
    ) -> List[List[Tuple[Pair, float]]]:
        """Extract and score ``unique`` in worker chunks."""
        if not executor.shared_state:
            return executor.map_chunks(
                classify_pair_chunk,
                [
                    (self.dataset, model, self.feature_names, chunk)
                    for chunk in executor.plan_chunks(unique)
                ],
                tracer=self.tracer,
                label="classify.score_pairs",
            )
        # Pickle-free: dataset and model are published once instead of
        # pickled per chunk.
        with publish_shared_state(
            dataset=self.dataset,
            model=model,
            feature_names=self.feature_names,
        ) as handle:
            executor.stats.shared_segment_bytes = max(
                executor.stats.shared_segment_bytes, handle.segment_bytes
            )
            return executor.map_chunks(
                classify_pair_chunk_shared,
                [
                    (handle.token, chunk)
                    for chunk in executor.plan_chunks(unique)
                ],
                tracer=self.tracer,
                label="classify.score_pairs",
                shared_bytes=handle.baseline_bytes,
            )

    def filter_matches(
        self, pairs: Iterable[Pair], threshold: float = 0.0
    ) -> List[Pair]:
        """The Cls condition: keep pairs scoring above ``threshold``."""
        return [pair for pair, score in self.rank(pairs) if score > threshold]


class OneVsRestADTree:
    """Three-class classification for the 'identify Maybe' condition.

    Trains one binary ADTree per class (match / maybe / non-match) and
    predicts the argmax score. Used by the Table 5 experiment where
    Maybe is retained as a class to be recognized at run time.
    """

    def __init__(self, learner: Optional[ADTreeLearner] = None) -> None:
        self.learner = learner or ADTreeLearner()
        self.models: Dict[Hashable, ADTreeModel] = {}

    def fit(
        self,
        features: Sequence[FeatureVector],
        labels: Sequence[Hashable],
    ) -> "OneVsRestADTree":
        classes = sorted(set(labels), key=str)
        if len(classes) < 2:
            raise ValueError("need at least two classes")
        for cls in classes:
            binary = [label == cls for label in labels]
            self.models[cls] = self.learner.fit(features, binary)
        return self

    def predict(self, vector: FeatureVector) -> Hashable:
        if not self.models:
            raise RuntimeError("classifier is not fitted; call fit() first")
        scored = [
            (model.score(vector), str(cls), cls)
            for cls, model in self.models.items()
        ]
        scored.sort(key=lambda entry: (-entry[0], entry[1]))
        return scored[0][2]

    def accuracy(
        self, features: Sequence[FeatureVector], labels: Sequence[Hashable]
    ) -> float:
        if not features:
            return 0.0
        hits = sum(
            1
            for vector, label in zip(features, labels)
            if self.predict(vector) == label
        )
        return hits / len(features)
