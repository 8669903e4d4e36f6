"""Inverse FP-tree: a prefix-tree over transactions sorted in i-flist order
(ascending support).

Because items appear in ascending-support order, the least frequent item of
the represented database occurs at exactly one node, a child of the root.
That makes two decompositions cheap:

* the projected tree of the lf-item x: the database of transactions that
  contain x, with x removed (the subtree rooted at x's node, reordered);
* the residual tree of x: the whole database with x removed (x's node is
  spliced out and its subtree merged back into the root's children).

Trees are immutable once built; both decompositions return fresh trees.
"""

from __future__ import annotations

from typing import Iterable

from .data import Itemset, TransactionDatabase, item_supports


class EmptyTreeError(ValueError):
    """Raised when an operation needs a least-frequent item but the tree is empty."""


class IFPNode:
    """One tree node: item id, path count and children by item id."""

    __slots__ = ("item", "count", "children")

    def __init__(self, item: int | None, count: int = 0):
        self.item = item
        self.count = count
        self.children: dict[int, IFPNode] = {}

    def __repr__(self) -> str:
        return f"IFPNode({self.item}, count={self.count}, children={len(self.children)})"


class IFPTree:
    __slots__ = ("root", "order", "rank", "num_transactions", "supports", "node_count")

    def __init__(self, order: Iterable[int], num_transactions: int, supports: dict[int, int]):
        self.root = IFPNode(None)
        self.order: tuple[int, ...] = tuple(order)
        self.rank: dict[int, int] = {item: i for i, item in enumerate(self.order)}
        self.num_transactions = num_transactions
        self.supports = supports  # item -> support in the represented database
        self.node_count = 0

    def _insert(self, items_by_rank: Iterable[int], count: int = 1) -> None:
        """Insert one transaction (items already sorted by self.rank), adding
        ``count`` along the shared prefix and attaching the rest."""
        node = self.root
        for item in items_by_rank:
            child = node.children.get(item)
            if child is None:
                child = IFPNode(item)
                node.children[item] = child
                self.node_count += 1
            child.count += count
            node = child

    def is_empty(self) -> bool:
        return not self.root.children

    def item_support(self, item: int) -> int:
        return self.supports.get(item, 0)

    def sorted_children(self, node: IFPNode) -> list[IFPNode]:
        return [node.children[i] for i in sorted(node.children, key=self.rank.__getitem__)]

    def dump(self, labels: dict[int, str] | None = None) -> str:
        """Deterministic indented rendering, one ``item:count`` line per node,
        children in tree order. The unlabeled root is omitted."""
        lines: list[str] = []

        def walk(node: IFPNode, depth: int) -> None:
            for child in self.sorted_children(node):
                name = labels.get(child.item, str(child.item)) if labels else str(child.item)
                lines.append("  " * depth + f"{name}:{child.count}")
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)


def _order_items(supports: dict[int, int]) -> list[int]:
    return sorted(supports, key=lambda i: (supports[i], i))


def _build_weighted(weighted: Iterable[tuple[Itemset, int]], num_transactions: int) -> IFPTree:
    """Build a tree from (itemset, multiplicity) pairs; empty itemsets only
    contribute to the transaction count."""
    weighted = [(s, w) for s, w in weighted if w > 0]
    supports: dict[int, int] = {}
    for s, w in weighted:
        for i in s:
            supports[i] = supports.get(i, 0) + w
    tree = IFPTree(_order_items(supports), num_transactions, supports)
    rank = tree.rank
    for s, w in sorted(weighted, key=lambda e: tuple(rank[i] for i in e[0])):
        tree._insert(sorted(s, key=rank.__getitem__), w)
    return tree


def build_tree(db: TransactionDatabase) -> IFPTree:
    """Build the inverse FP-tree of a database. Empty transactions are counted
    in ``num_transactions`` but add no nodes."""
    supports = item_supports(db)
    tree = IFPTree(_order_items(supports), len(db), supports)
    rank = tree.rank
    for t in db.transactions:
        tree._insert(sorted(t.items, key=rank.__getitem__))
    return tree


def _paths(tree: IFPTree, top: IFPNode) -> list[tuple[Itemset, int]]:
    """The transactions of the subtree below ``top`` as (ordered items below
    ``top``, number of transactions ending there) pairs, in tree order."""
    out: list[tuple[Itemset, int]] = []

    def walk(node: IFPNode, path: list[int]) -> None:
        ends_here = node.count - sum(c.count for c in node.children.values())
        if ends_here > 0:
            out.append((tuple(path), ends_here))
        for child in tree.sorted_children(node):
            path.append(child.item)
            walk(child, path)
            path.pop()

    walk(top, [])
    return out


def decompress(tree: IFPTree) -> list[tuple[Itemset, int]]:
    """Recover the represented database's nonempty ordered transactions as
    (itemset, multiplicity) pairs, in deterministic tree order."""
    return _paths(tree, tree.root)


def lf_item(tree: IFPTree) -> int:
    """Least frequent item of the tree (first in i-flist order)."""
    if not tree.order:
        raise EmptyTreeError("empty tree has no least-frequent item")
    return tree.order[0]


def _check_lf(tree: IFPTree, x: int) -> IFPNode:
    if not tree.order or tree.order[0] != x:
        raise ValueError(f"item {x} is not the least-frequent item of this tree")
    return tree.root.children[x]


def projected_tree(tree: IFPTree, x: int) -> IFPTree:
    """Tree of the projected database of x: transactions containing x, with x
    removed. Requires x to be the lf-item, so the whole projection is the
    single subtree rooted at x's node. Item order is recomputed because
    supports change under projection."""
    xnode = _check_lf(tree, x)
    return _build_weighted(_paths(tree, xnode), num_transactions=xnode.count)


def _copy_subtree(node: IFPNode) -> IFPNode:
    fresh = IFPNode(node.item, node.count)
    for item, child in node.children.items():
        fresh.children[item] = _copy_subtree(child)
    return fresh


def _merge_into(target: IFPNode, extra: IFPNode) -> int:
    """Add copies of ``extra``'s children under ``target``: counts add,
    children with equal ids merge pairwise, the others are copied. Returns the
    number of ``extra``'s nodes merged into existing ones."""
    merged = 0
    for item, child in extra.children.items():
        existing = target.children.get(item)
        if existing is None:
            target.children[item] = _copy_subtree(child)
        else:
            existing.count += child.count
            merged += 1 + _merge_into(existing, child)
    return merged


def residual_tree(tree: IFPTree, x: int) -> IFPTree:
    """Tree of the residual database of x: every transaction, with x removed.

    x's single node is deleted and its subtree merged into the root's other
    children. Removing x leaves every other item's support unchanged, so the
    resulting item order is the original order without x."""
    xnode = _check_lf(tree, x)
    supports = {i: c for i, c in tree.supports.items() if i != x}
    out = IFPTree(tree.order[1:], num_transactions=tree.num_transactions, supports=supports)
    for item, child in tree.root.children.items():
        if item != x:
            out.root.children[item] = _copy_subtree(child)
    out.node_count = tree.node_count - 1 - _merge_into(out.root, xnode)
    return out


def tree_items(tree: IFPTree) -> set[int]:
    """Items with at least one node in the tree: every item of its order."""
    return set(tree.order)


def tree_support(tree: IFPTree, s: Iterable[int]) -> int:
    """Support of an itemset in the represented database. The empty itemset
    has support ``num_transactions``; items absent from the tree force 0."""
    items = set(s)
    if not items:
        return tree.num_transactions
    if not items <= tree.rank.keys():
        return 0
    needed = tuple(sorted(tree.rank[i] for i in items))

    def count(node: IFPNode, remaining: tuple[int, ...]) -> int:
        if not remaining:
            return node.count
        total = 0
        for item, child in node.children.items():
            r = tree.rank[item]
            if r > remaining[0]:
                # Ranks increase along paths; the smallest remaining item
                # can no longer occur below this child.
                continue
            rest = remaining[1:] if r == remaining[0] else remaining
            total += count(child, rest)
        return total

    return count(tree.root, needed)
