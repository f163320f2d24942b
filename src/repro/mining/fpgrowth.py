"""FP-Growth and FPMax-style maximal frequent itemset mining.

MFIBlocks needs *maximal* frequent itemsets (MFIs): item sets whose
support meets ``minsup`` and that no frequent superset subsumes
(Section 4.1.1). The paper mines them with Borgelt's C implementation of
FP-Growth; this module is a from-scratch pure-Python equivalent:

* :func:`frequent_itemsets` — classic FP-Growth over an
  :class:`~repro.mining.fptree.FPTree`, all frequent itemsets.
* :func:`maximal_frequent_itemsets` — FPMax: the same recursion with
  single-path short-circuiting and MFI-subsumption pruning, returning
  only maximal sets. It runs on projected databases (distinct rows with
  multiplicities) rather than node graphs. The "mine all, filter
  maximal" path (``maximal_via_filter``) is the independent reference
  behind the tests and the ablation benchmark.

Items may be any hashable values; they are mapped to dense integer ids
ordered by descending global support internally.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import repeat
from typing import (
    Collection,
    DefaultDict,
    Dict,
    FrozenSet,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.contracts import (
    commutative_merge,
    fork_safe,
    hot_path,
    ordered_output,
    picklable_work,
    pure,
)
from repro.mining.fptree import FPTree
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.executor import Executor
from repro.resilience.budgets import BudgetMeter

__all__ = [
    "Itemset",
    "frequent_itemsets",
    "maximal_frequent_itemsets",
    "maximal_via_filter",
    "merge_mfi_candidates",
]

T = TypeVar("T", bound=Hashable)


@dataclass(frozen=True)
class Itemset(Generic[T]):
    """A mined itemset with its support count."""

    items: FrozenSet[T]
    support: int

    def __len__(self) -> int:
        return len(self.items)


class _Vocabulary(Generic[T]):
    """Bidirectional mapping item value <-> dense int id, frequency-ordered.

    Id 0 is the globally most frequent item; ascending ids are the
    canonical row (and FP-tree path) order.
    """

    def __init__(self, transactions: List[List[T]], minsup: int) -> None:
        support: Dict[T, int] = {}
        for transaction in transactions:
            for value in set(transaction):
                support[value] = support.get(value, 0) + 1
        frequent = [
            (value, count) for value, count in support.items() if count >= minsup
        ]
        # Descending support; ties broken by repr for determinism.
        frequent.sort(key=lambda pair: (-pair[1], repr(pair[0])))
        self.value_of: List[T] = [value for value, _ in frequent]
        self.id_of: Dict[T, int] = {
            value: index for index, value in enumerate(self.value_of)
        }

    def encode(self, transaction: Collection[T]) -> List[int]:
        return sorted(
            self.id_of[value]
            for value in set(transaction)
            if value in self.id_of
        )

    def decode(self, ids: Iterable[int]) -> FrozenSet[T]:
        return frozenset(self.value_of[item_id] for item_id in ids)


def _build_tree(
    transactions: List[List[T]], minsup: int
) -> Tuple[FPTree, "_Vocabulary[T]"]:
    vocabulary = _Vocabulary(transactions, minsup)
    tree = FPTree()
    for transaction in transactions:
        encoded = vocabulary.encode(transaction)
        if encoded:
            tree.insert(encoded)
    return tree, vocabulary


def _validate(transactions: List[List[T]], minsup: int) -> None:
    if minsup < 1:
        raise ValueError(f"minsup must be >= 1, got {minsup}")


# ---------------------------------------------------------------------------
# Classic FP-Growth (all frequent itemsets)
# ---------------------------------------------------------------------------


@ordered_output
def frequent_itemsets(
    transactions: Iterable[Collection[T]], minsup: int
) -> List[Itemset[T]]:
    """Mine *all* frequent itemsets with support >= ``minsup``."""
    materialized = [list(transaction) for transaction in transactions]
    _validate(materialized, minsup)
    tree, vocabulary = _build_tree(materialized, minsup)
    results: List[Itemset[T]] = []
    for ids, support in _fp_growth(tree, [], minsup):
        results.append(Itemset(vocabulary.decode(ids), support))
    return results


def _fp_growth(
    tree: FPTree,
    suffix: List[int],
    minsup: int,
) -> Iterator[Tuple[List[int], int]]:
    # Process items least-frequent first (highest id first).
    for item in sorted(tree.items(), reverse=True):
        support = tree.support_of(item)
        if support < minsup:
            continue
        itemset = suffix + [item]
        yield itemset, support
        conditional = FPTree.from_conditional(tree.prefix_paths(item), minsup)
        if not conditional.is_empty():
            yield from _fp_growth(conditional, itemset, minsup)


# ---------------------------------------------------------------------------
# FPMax (maximal frequent itemsets)
# ---------------------------------------------------------------------------
#
# FPMax runs on *projected databases* instead of conditional FP-trees: a
# database maps each distinct ascending-id row to its multiplicity, which
# is exactly the information an FP-tree stores (the tree is the prefix
# trie of those rows). Every tree query FPMax needs has a row-level twin:
#
# * an item's prefix paths are the row prefixes before it (one pass over
#   the rows collects them for every item);
# * the conditional tree of an item is the database of those prefixes,
#   restricted to the items frequent among them;
# * the tree is a single path iff every row is a prefix of the longest
#   row, and the path's support is that row's multiplicity.
#
# Visit order, candidate order, supports and budget charges are those of
# the FP-tree formulation, so the MFI list is identical, order included
# (pinned by tests/test_golden_mfis.py).

Row = Tuple[int, ...]
#: Ascending-id row -> multiplicity.
ProjectedDB = Dict[Row, int]
#: An item's conditional pattern base: (row prefix before it, count).
PatternBase = List[Tuple[Row, int]]


class _MFIStore:
    """Stores discovered MFIs and answers subsumption queries.

    ``is_subsumed(candidate)`` is true when some stored MFI is a superset
    of (or equal to) the candidate. Each item maps to a bitmask over the
    stored MFIs (bit *i* set when MFI *i* contains the item), so the check
    ANDs one mask per candidate item and stops at the first empty result.
    """

    def __init__(self) -> None:
        self.itemsets: List[Tuple[FrozenSet[int], int]] = []
        self._by_item: Dict[int, int] = {}

    @pure
    def is_subsumed(self, candidate: FrozenSet[int]) -> bool:
        # The surviving-MFI mask is a pure intersection over the
        # candidate's item masks, so the (hash-seed-dependent) visit
        # order of ``candidate`` cannot change the outcome.
        if not candidate:  # any stored MFI subsumes the empty set
            return bool(self.itemsets)
        by_item = self._by_item
        hits = -1
        for item in candidate:
            hits &= by_item.get(item, 0)
            if not hits:
                return False
        return True

    def add(self, candidate: FrozenSet[int], support: int) -> None:
        bit = 1 << len(self.itemsets)
        self.itemsets.append((candidate, support))
        by_item = self._by_item
        for item in candidate:
            by_item[item] = by_item.get(item, 0) | bit


def _projected_database(rows: Iterable[Tuple[Sequence[int], int]]) -> ProjectedDB:
    """Sum the counts of the distinct non-empty ascending-id rows."""
    database: ProjectedDB = {}
    for row, count in rows:
        if row:
            key = tuple(row)
            database[key] = database.get(key, 0) + count
    return database


def _prefix_bases(database: ProjectedDB) -> Dict[int, PatternBase]:
    """Item -> its conditional pattern base, in one pass over the rows."""
    bases: DefaultDict[int, PatternBase] = defaultdict(list)
    for row, count in database.items():
        for position, item in enumerate(row):
            bases[item].append((row[:position], count))
    return bases


@hot_path
@ordered_output
def maximal_frequent_itemsets(
    transactions: Iterable[Collection[T]],
    minsup: int,
    tracer: Optional[Tracer] = None,
    budget: Optional[BudgetMeter] = None,
    executor: Optional[Executor] = None,
) -> List[Itemset[T]]:
    """Mine maximal frequent itemsets (FPMax).

    Returns MFIs as :class:`Itemset` values; the support reported is the
    support of the maximal set itself. An optional tracer times building
    the top-level projected database vs. the FPMax recursion and gauges
    the database size — Fig. 12's dominant cost, broken down.

    ``budget`` bounds the FPMax recursion: each node expansion charges
    one unit, and an exhausted meter stops the search, returning the
    MFIs found so far (anytime semantics). The caller reads
    ``budget.degraded`` to learn the result is partial; with an
    iteration-only budget the cut point — and therefore the output —
    is deterministic.

    ``executor`` (when parallel) shards the FPMax top level across
    workers by item id; the shard union, maximality-pruned, is exactly
    the serial MFI set with the same supports
    (``docs/PARALLELISM.md``). A budgeted mine always runs serially:
    the budget's deterministic cut point is defined by the serial visit
    order, which sharding would not preserve.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    materialized = [list(transaction) for transaction in transactions]
    _validate(materialized, minsup)
    tracer.count("fpgrowth.transactions", len(materialized))
    if (
        executor is not None
        and executor.parallel
        and (budget is None or not budget.enabled)
    ):
        return _maximal_parallel(materialized, minsup, executor, tracer)
    with tracer.span("fpgrowth.project", minsup=minsup):
        vocabulary: _Vocabulary[T] = _Vocabulary(materialized, minsup)
        database = _projected_database(
            zip(map(vocabulary.encode, materialized), repeat(1))
        )
    tracer.gauge("fpgrowth.distinct_transactions", len(database))
    tracer.gauge("fpgrowth.vocabulary", len(vocabulary.value_of))
    store = _MFIStore()
    with tracer.span("fpgrowth.fpmax", minsup=minsup):
        _fpmax(database, [], minsup, store, budget)
    if budget is not None and budget.degraded:
        tracer.count("fpgrowth.budget_exhausted", 1)
    tracer.count("fpgrowth.mfis", len(store.itemsets))
    return [
        Itemset(vocabulary.decode(ids), support) for ids, support in store.itemsets
    ]


@hot_path
def _fpmax(
    database: ProjectedDB,
    suffix: List[int],
    minsup: int,
    store: _MFIStore,
    budget: Optional[BudgetMeter] = None,
) -> None:
    if not database:
        return
    if budget is not None:
        if budget.exhausted():
            return
        budget.charge()
    longest = max(database, key=len)
    if all(longest[: len(row)] == row for row in database):
        # Single path: the whole path plus the suffix is one candidate.
        candidate = frozenset(suffix).union(longest)
        if not store.is_subsumed(candidate):
            store.add(candidate, database[longest])
        return
    bases = _prefix_bases(database)
    # Least-frequent items first so long candidates are found early and
    # subsume the rest.
    for item in sorted(bases, reverse=True):
        _expand(item, bases[item], suffix, minsup, store, budget)
        if budget is not None and budget.degraded:
            return


@hot_path
def _expand(
    item: int,
    base: PatternBase,
    suffix: List[int],
    minsup: int,
    store: _MFIStore,
    budget: Optional[BudgetMeter] = None,
) -> None:
    """Extend ``suffix`` by ``item`` given the item's pattern base.

    Conditional supports are counted first, so the leaf case (nothing
    frequent left) and the head check (``suffix + item + everything still
    frequent`` is already covered) are settled before the conditional
    database is built.
    """
    support = 0
    conditional: Dict[int, int] = {}
    for prefix, count in base:
        support += count
        for other in prefix:
            conditional[other] = conditional.get(other, 0) + count
    if support < minsup:
        return
    new_suffix = suffix + [item]
    frequent = {other for other, total in conditional.items() if total >= minsup}
    if not frequent:
        candidate = frozenset(new_suffix)
        if not store.is_subsumed(candidate):
            store.add(candidate, support)
        return
    # MFI-tree pruning: if the suffix plus *everything* that could still
    # be added is already covered, the subtree is fruitless.
    if store.is_subsumed(frozenset(new_suffix).union(frequent)):
        return
    projected = _projected_database(
        (tuple(filter(frequent.__contains__, prefix)), count)
        for prefix, count in base
    )
    _fpmax(projected, new_suffix, minsup, store, budget)


# ---------------------------------------------------------------------------
# Sharded FPMax (parallel path)
# ---------------------------------------------------------------------------
#
# Correctness sketch (full argument in docs/PARALLELISM.md): FPMax
# processes top-level items least-frequent-first, and every candidate it
# emits while processing top item *i* contains *i* as its highest id.
# Sharding the top-level items therefore partitions the candidate space:
# each itemset's generating shard is uniquely determined by its max id,
# so shard-local mining finds every serial candidate exactly once, with
# its true support (supports come from the full database, which every
# worker rebuilds from the complete encoded transaction list). Shard-local
# subsumption pruning is *weaker* than serial pruning — a shard cannot
# see another shard's supersets — which only ever leaves extra
# non-maximal candidates behind; the global merge removes exactly those.


@picklable_work
@fork_safe
def _mine_shard(
    payload: Tuple[List[List[int]], int, List[int]]
) -> List[Tuple[FrozenSet[int], int]]:
    """FPMax over the top-level items of one shard (pool-worker body).

    Rebuilds the projected database from the encoded transactions, then
    runs the serial top-level loop restricted to the shard's item ids.
    Module-level and argument-determined, so a chunk computes the same
    result in a worker, in-process, or in a crash retry.
    """
    encoded, minsup, shard = payload
    bases = _prefix_bases(_projected_database(zip(encoded, repeat(1))))
    store = _MFIStore()
    for item in sorted(shard, reverse=True):
        base = bases.get(item)
        if base is not None:
            _expand(item, base, [], minsup, store)
    return store.itemsets


@commutative_merge
@ordered_output
def merge_mfi_candidates(
    shard_results: Iterable[List[Tuple[FrozenSet[int], int]]]
) -> List[Tuple[FrozenSet[int], int]]:
    """Globally maximality-prune shard-local MFI candidates.

    Order-independent: candidates are deduplicated and visited in
    canonical order (longest first, ties by sorted item ids), so any
    permutation of ``shard_results`` yields the same list. Longer sets
    are inserted before anything they could subsume, and equal-length
    distinct sets can never subsume each other, so one pass suffices.
    """
    unique = {
        candidate for result in shard_results for candidate in result
    }
    ordered = sorted(
        unique, key=lambda entry: (-len(entry[0]), sorted(entry[0]))
    )
    store = _MFIStore()
    for items, support in ordered:
        if not store.is_subsumed(items):
            store.add(items, support)
    return store.itemsets


def _maximal_parallel(
    materialized: List[List[T]],
    minsup: int,
    executor: Executor,
    tracer: Tracer,
) -> List[Itemset[T]]:
    """Shard the FPMax top level across the executor's workers."""
    vocabulary: _Vocabulary[T] = _Vocabulary(materialized, minsup)
    n_items = len(vocabulary.value_of)
    tracer.gauge("fpgrowth.vocabulary", n_items)
    if n_items == 0:
        return []
    encoded: List[List[int]] = []
    for transaction in materialized:
        ids = vocabulary.encode(transaction)
        if ids:
            encoded.append(ids)
    # Round-robin over item ids: ids are support-ordered, so each shard
    # gets a comparable mix of frequent (cheap) and rare (deep) items.
    n_shards = min(executor.workers, n_items)
    shards = [
        [item for item in range(n_items) if item % n_shards == index]
        for index in range(n_shards)
    ]
    payloads = [(encoded, minsup, shard) for shard in shards]
    with tracer.span("fpgrowth.fpmax", minsup=minsup, shards=n_shards):
        shard_results = executor.map_chunks(
            _mine_shard, payloads, tracer=tracer, label="fpgrowth.shards"
        )
        merged = merge_mfi_candidates(shard_results)
    tracer.count("fpgrowth.mfis", len(merged))
    return [Itemset(vocabulary.decode(ids), support) for ids, support in merged]


@ordered_output
def maximal_via_filter(
    transactions: Iterable[Collection[T]], minsup: int
) -> List[Itemset[T]]:
    """Reference implementation: mine all frequent itemsets, keep maximal.

    Exponentially slower than FPMax on dense data; exists for testing and
    the MFI-strategy ablation benchmark.
    """
    all_frequent = frequent_itemsets(transactions, minsup)
    all_frequent.sort(key=lambda itemset: -len(itemset.items))
    maximal: List[Itemset[T]] = []
    seen: List[FrozenSet[T]] = []
    for itemset in all_frequent:
        if any(itemset.items < kept for kept in seen):
            continue
        if any(itemset.items == kept for kept in seen):
            continue
        maximal.append(itemset)
        seen.append(itemset.items)
    return maximal
