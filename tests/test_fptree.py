"""Tests for the FP-tree data structure."""

from __future__ import annotations

from repro.mining.fptree import FPTree


def build_sample_tree():
    """Three transactions sharing prefixes (items already ordered)."""
    tree = FPTree()
    tree.insert([0, 1, 2])
    tree.insert([0, 1])
    tree.insert([0, 3])
    return tree


class TestInsert:
    def test_empty(self):
        assert FPTree().is_empty()

    def test_prefix_sharing(self):
        tree = build_sample_tree()
        # Root has a single child for item 0 with count 3.
        assert list(tree.root.children) == [0]
        assert tree.root.children[0].count == 3

    def test_item_support(self):
        tree = build_sample_tree()
        assert tree.support_of(0) == 3
        assert tree.support_of(1) == 2
        assert tree.support_of(2) == 1
        assert tree.support_of(99) == 0

    def test_multiplicity(self):
        tree = FPTree()
        tree.insert([0, 1], count=5)
        assert tree.support_of(1) == 5

    def test_header_chains(self):
        tree = FPTree()
        tree.insert([0, 1])
        tree.insert([2, 1])  # another path containing item 1
        nodes = list(tree.nodes_of(1))
        assert len(nodes) == 2
        assert all(node.item == 1 for node in nodes)


class TestPrefixPaths:
    def test_paths(self):
        tree = build_sample_tree()
        paths = tree.prefix_paths(1)
        assert len(paths) == 1
        items, count = paths[0]
        assert items == [0]
        assert count == 2

    def test_paths_for_leaf(self):
        tree = build_sample_tree()
        paths = tree.prefix_paths(2)
        assert paths == [([1, 0], 1)]

    def test_top_level_item_empty_path(self):
        tree = FPTree()
        tree.insert([0])
        assert tree.prefix_paths(0) == [([], 1)]


class TestConditional:
    def test_filters_below_minsup(self):
        paths = [([0, 1], 2), ([0], 1)]
        tree = FPTree.from_conditional(paths, minsup=3)
        # item 0 has support 3, item 1 only 2
        assert tree.support_of(0) == 3
        assert tree.support_of(1) == 0

    def test_keeps_global_order(self):
        paths = [([2, 0], 2)]
        tree = FPTree.from_conditional(paths, minsup=1)
        # Item 0 (lower id: more frequent globally) must be nearer the root.
        assert list(tree.root.children) == [0]
        assert list(tree.root.children[0].children) == [2]

    def test_empty_base(self):
        tree = FPTree.from_conditional([], minsup=1)
        assert tree.is_empty()
