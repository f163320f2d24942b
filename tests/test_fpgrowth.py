"""Tests for FP-Growth and FPMax, including a brute-force oracle."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining.fpgrowth import (
    _MFIStore,
    frequent_itemsets,
    maximal_frequent_itemsets,
    maximal_via_filter,
)

UNIVERSE = list("abcdefg")


def brute_frequent(transactions, minsup):
    """All frequent itemsets by exhaustive enumeration."""
    frequent = {}
    for size in range(1, len(UNIVERSE) + 1):
        for combo in itertools.combinations(UNIVERSE, size):
            itemset = frozenset(combo)
            support = sum(1 for t in transactions if itemset <= t)
            if support >= minsup:
                frequent[itemset] = support
    return frequent


def brute_maximal(transactions, minsup):
    frequent = brute_frequent(transactions, minsup)
    return {
        itemset: support
        for itemset, support in frequent.items()
        if not any(itemset < other for other in frequent)
    }


transactions_strategy = st.lists(
    st.sets(st.sampled_from(UNIVERSE), min_size=1, max_size=5),
    min_size=1,
    max_size=25,
)


class TestFrequentItemsets:
    def test_paper_example(self):
        """The Table 2 example: {F Yitzhak, L Postel, G 0} at minsup=2."""
        transactions = [
            {"YB 1927", "F Avraham", "L Kesler"},
            {"F Avraham", "L Apoteker", "G 0"},
            {"F Yitzhak", "F Avram", "L Postel", "G 0"},
            {"F Yitzhak", "L Postel", "G 0"},
        ]
        mfis = {
            m.items: m.support
            for m in maximal_frequent_itemsets(transactions, minsup=2)
        }
        target = frozenset({"F Yitzhak", "L Postel", "G 0"})
        assert mfis.get(target) == 2

    def test_single_transaction(self):
        result = frequent_itemsets([{"a", "b"}], minsup=1)
        found = {m.items for m in result}
        assert frozenset({"a", "b"}) in found
        assert frozenset({"a"}) in found

    def test_minsup_above_everything(self):
        assert frequent_itemsets([{"a"}, {"b"}], minsup=3) == []

    def test_invalid_minsup(self):
        with pytest.raises(ValueError):
            frequent_itemsets([{"a"}], minsup=0)

    def test_supports_correct_small(self):
        transactions = [{"a", "b"}, {"a"}, {"a", "b", "c"}]
        result = {m.items: m.support for m in frequent_itemsets(transactions, 2)}
        assert result[frozenset({"a"})] == 3
        assert result[frozenset({"a", "b"})] == 2
        assert frozenset({"c"}) not in result

    @settings(max_examples=30, deadline=None)
    @given(transactions_strategy, st.integers(min_value=1, max_value=6))
    def test_matches_brute_force(self, transactions, minsup):
        expected = brute_frequent(transactions, minsup)
        got = {m.items: m.support for m in frequent_itemsets(transactions, minsup)}
        assert got == expected


class TestMaximalItemsets:
    def test_simple_maximality(self):
        transactions = [{"a", "b", "c"}, {"a", "b", "c"}, {"a", "b"}]
        mfis = {m.items for m in maximal_frequent_itemsets(transactions, 2)}
        assert mfis == {frozenset({"a", "b", "c"})}

    def test_two_incomparable_mfis(self):
        transactions = [{"a", "b"}, {"a", "b"}, {"c", "d"}, {"c", "d"}]
        mfis = {m.items for m in maximal_frequent_itemsets(transactions, 2)}
        assert mfis == {frozenset({"a", "b"}), frozenset({"c", "d"})}

    def test_no_mfi_is_subset_of_another(self):
        rng = random.Random(3)
        transactions = [
            set(rng.sample(UNIVERSE, rng.randint(1, 5))) for _ in range(40)
        ]
        mfis = [m.items for m in maximal_frequent_itemsets(transactions, 3)]
        for a in mfis:
            for b in mfis:
                if a is not b:
                    assert not a < b

    @settings(max_examples=30, deadline=None)
    @given(transactions_strategy, st.integers(min_value=1, max_value=6))
    def test_matches_brute_force(self, transactions, minsup):
        expected = brute_maximal(transactions, minsup)
        got = {
            m.items: m.support
            for m in maximal_frequent_itemsets(transactions, minsup)
        }
        assert got == expected

    @settings(max_examples=20, deadline=None)
    @given(transactions_strategy, st.integers(min_value=1, max_value=4))
    def test_agrees_with_filter_implementation(self, transactions, minsup):
        fast = {m.items: m.support for m in maximal_frequent_itemsets(transactions, minsup)}
        slow = {m.items: m.support for m in maximal_via_filter(transactions, minsup)}
        assert fast == slow

    def test_empty_transactions(self):
        assert maximal_frequent_itemsets([], minsup=2) == []

    def test_itemset_len(self):
        result = maximal_frequent_itemsets([{"a", "b"}, {"a", "b"}], 2)
        assert len(result) == 1
        assert len(result[0]) == 2


id_sets = st.frozensets(st.integers(min_value=0, max_value=9), max_size=6)


class TestMFIStore:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(id_sets, max_size=12), st.lists(id_sets, max_size=12))
    def test_is_subsumed_matches_brute_force(self, stored, queries):
        store = _MFIStore()
        for support, itemset in enumerate(stored, start=1):
            store.add(itemset, support)
        for candidate in queries + stored:
            expected = any(candidate <= s for s, _ in store.itemsets)
            assert store.is_subsumed(candidate) is expected
