"""FP-tree data structure (Han et al.), the substrate of FP-Growth.

FPMax (:func:`repro.mining.fpgrowth.maximal_frequent_itemsets`) runs on
projected row databases instead; this tree backs the classic
:func:`~repro.mining.fpgrowth.frequent_itemsets` miner, which is the
independent reference behind ``maximal_via_filter``.

The tree stores transactions as prefix-shared paths of items ordered by
descending global frequency. Items are integer ids — callers map their
item vocabulary to dense ints first (see :mod:`repro.mining.fpgrowth`).

A header table links all nodes of each item so conditional pattern bases
can be collected by walking node-links, exactly as in the original
algorithm (and Borgelt's implementation the paper uses).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["FPNode", "FPTree"]


class FPNode:
    """One node of an FP-tree: an item, a count, and tree links."""

    __slots__ = ("item", "count", "parent", "children", "next_link")

    def __init__(self, item: int, parent: Optional["FPNode"]) -> None:
        self.item = item
        self.count = 0
        self.parent = parent
        self.children: Dict[int, "FPNode"] = {}
        self.next_link: Optional["FPNode"] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FPNode(item={self.item}, count={self.count})"


class FPTree:
    """An FP-tree with a header table of per-item node chains."""

    def __init__(self) -> None:
        self.root = FPNode(item=-1, parent=None)
        #: item -> (first node of chain, total support in this tree)
        self.header: Dict[int, FPNode] = {}
        self.item_support: Dict[int, int] = {}

    def insert(self, items: Sequence[int], count: int = 1) -> None:
        """Insert one (ordered) transaction with multiplicity ``count``."""
        node = self.root
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = FPNode(item, node)
                node.children[item] = child
                # Prepend to the item's node-link chain.
                child.next_link = self.header.get(item)
                self.header[item] = child
            child.count += count
            node = child
        # Track per-item support for quick header queries.
        for item in items:
            self.item_support[item] = self.item_support.get(item, 0) + count

    def is_empty(self) -> bool:
        return not self.root.children

    def items(self) -> List[int]:
        """Items present in the tree."""
        return list(self.header)

    def nodes_of(self, item: int) -> Iterable[FPNode]:
        """Iterate the node-link chain of one item."""
        node = self.header.get(item)
        while node is not None:
            yield node
            node = node.next_link

    def support_of(self, item: int) -> int:
        """Total support of one item within this (conditional) tree."""
        return self.item_support.get(item, 0)

    def prefix_paths(self, item: int) -> List[Tuple[List[int], int]]:
        """Conditional pattern base of ``item``: (path items, count) pairs.

        Each path lists the ancestors of one ``item`` node from nearest to
        root (excluding the item itself), with the node's count.
        """
        paths: List[Tuple[List[int], int]] = []
        for node in self.nodes_of(item):
            path: List[int] = []
            parent = node.parent
            while parent is not None and parent.item != -1:
                path.append(parent.item)
                parent = parent.parent
            if path or node.count:
                paths.append((path, node.count))
        return paths

    @classmethod
    def from_conditional(
        cls,
        paths: Sequence[Tuple[List[int], int]],
        minsup: int,
    ) -> "FPTree":
        """Build a conditional FP-tree from a pattern base.

        Items failing ``minsup`` within the base are dropped; surviving
        items keep the *global* frequency order (ascending ids, lower id
        = more frequent) so the tree stays canonical.
        """
        support: Dict[int, int] = {}
        for path, count in paths:
            for item in path:
                support[item] = support.get(item, 0) + count
        keep = {item for item, total in support.items() if total >= minsup}
        tree = cls()
        for path, count in paths:
            filtered = [item for item in path if item in keep]
            filtered.sort()
            if filtered:
                tree.insert(filtered, count)
        return tree
