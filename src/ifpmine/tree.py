"""Inverse FP-tree: a prefix-tree over transactions sorted in i-flist order
(ascending support).

Because items appear in ascending-support order, the least frequent item of
the represented database occurs at exactly one node, a child of the root.
That makes two decompositions cheap:

* the projected tree of the lf-item x: the database of transactions that
  contain x, with x removed (the subtree rooted at x's node, reordered);
* the residual tree of x: the whole database with x removed (x's node is
  spliced out and its subtree merged back into the root's children).

``split`` walks a tree's residual chain in place, moving x's subtrees into
the root: O(x's subtree) per step, not O(tree). It consumes its tree;
``projected_tree`` and ``residual_tree`` leave theirs alone.

One builder, ``_build``, makes every tree from weighted transactions, as
FP-growth builds its conditional trees with its first tree's insert. One
reader, ``_walk``, gives a tree's transactions back as weighted paths, for
``projected_tree`` (x's subtree), ``residual_tree`` (the whole tree, x left
out), ``decompress`` and ``tree_support``. ``_build``, and so ``build_tree``,
leaves out the items below its ``min_support``: such an item keeps its
support in ``supports`` but gets no node and no place in the order. The
miners build their tree at their floor this way.

A second walk, ``_supports``, only counts: each item's support under a node.
``projected_supports`` is that count for x's subtree, with no tree built.
``projected_tree`` counts first, as FP-growth counts a conditional pattern
base before it builds the conditional tree, and reads x's paths only if some
item reaches its ``min_support``: a projection of infrequent items alone
keeps its ``supports`` but reads no path and gets no node.
"""

from __future__ import annotations

from typing import Iterable, Iterator

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
        self.supports = supports  # item -> support, also of items pruned from the tree (no node)
        self.node_count = 0

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
        stack = [(child, 0) for child in reversed(self.sorted_children(self.root))]
        while stack:
            node, depth = stack.pop()
            name = labels.get(node.item, str(node.item)) if labels else str(node.item)
            lines.append("  " * depth + f"{name}:{node.count}")
            stack.extend((child, depth + 1) for child in reversed(self.sorted_children(node)))
        return "\n".join(lines)


def _order_items(supports: dict[int, int]) -> list[int]:
    return sorted(supports, key=lambda i: (supports[i], i))


def _build(
    supports: dict[int, int],
    paths: Iterable[tuple[Iterable[int], int]],
    num_transactions: int,
    min_support: int = 0,
) -> IFPTree:
    """The tree of the weighted transactions ``paths``, ``(items, count)``
    pairs; it owns ``supports``. Only the items whose support reaches
    ``min_support`` get nodes and a place in the order: the others are
    dropped from the paths as they are inserted."""
    tree = IFPTree(
        (i for i in _order_items(supports) if supports[i] >= min_support),
        num_transactions,
        supports,
    )
    rank = tree.rank
    for items, count in paths:
        node = tree.root
        for item in sorted((i for i in items if i in rank), key=rank.__getitem__):
            child = node.children.get(item)
            if child is None:
                node.children[item] = child = IFPNode(item)
                tree.node_count += 1
            child.count += count
            node = child
    return tree


def build_tree(db: TransactionDatabase, min_support: int = 0) -> IFPTree:
    """Build the inverse FP-tree of a database without the items whose
    support is below ``min_support``; ``supports`` keeps every item. Empty
    transactions are counted in ``num_transactions`` but add no nodes."""
    return _build(item_supports(db), ((t.items, 1) for t in db.transactions), len(db), min_support)


def decompress(tree: IFPTree) -> list[tuple[Itemset, int]]:
    """Recover the represented database's nonempty ordered transactions as
    (itemset, multiplicity) pairs, in deterministic tree order."""
    rank = tree.rank.__getitem__
    # Tree order lists a path before its extensions: the paths' rank tuples sort so.
    return sorted(_walk(tree.root), key=lambda path: tuple(map(rank, path[0])))


def lf_item(tree: IFPTree) -> int:
    """Least frequent item of the tree (first in i-flist order)."""
    if not tree.order:
        raise EmptyTreeError("empty tree has no least-frequent item")
    return tree.order[0]


def _check_lf(tree: IFPTree, x: int) -> IFPNode:
    if not tree.order or tree.order[0] != x:
        raise ValueError(f"item {x} is not the least-frequent item of this tree")
    return tree.root.children[x]


def _supports(top: IFPNode) -> dict[int, int]:
    """Each item's support under ``top``, ``top`` left out."""
    supports: dict[int, int] = {}
    stack = list(top.children.values())
    while stack:  # no recursion on long paths
        node = stack.pop()
        supports[node.item] = supports.get(node.item, 0) + node.count
        stack.extend(node.children.values())
    return supports


def _walk(top: IFPNode) -> list[tuple[Itemset, int]]:
    """Each path under ``top`` that transactions end on, with its
    multiplicity, in one walk in dict order."""
    paths: list[tuple[Itemset, int]] = []
    path: list[int] = []
    stack = [(child, 0) for child in top.children.values()]
    while stack:  # (node, its depth): no recursion on long paths
        node, depth = stack.pop()
        count = node.count
        path[depth:] = [node.item]
        for child in node.children.values():
            count -= child.count
            stack.append((child, depth + 1))
        if count > 0:
            paths.append((tuple(path), count))
    return paths


def projected_supports(tree: IFPTree, x: int) -> dict[int, int]:
    """Each item's support in the projected database of x, which must be the
    lf-item, read from x's subtree without building a tree. Items that never
    occur with x are absent."""
    return _supports(_check_lf(tree, x))


def projected_tree(tree: IFPTree, x: int, min_support: int = 0) -> IFPTree:
    """Tree of the projected database of x: transactions containing x, with x
    removed. Requires x to be the lf-item, so the whole projection is the
    single subtree rooted at x's node. Item order is recomputed because
    supports change under projection. ``supports`` holds every item's
    projected support, but the items below ``min_support`` get no node, so
    the tree represents the projected database without them. They are
    counted first: x's paths are read only if some item reaches
    ``min_support``."""
    xnode = _check_lf(tree, x)
    supports = _supports(xnode)
    keep = any(n >= min_support for n in supports.values())
    return _build(supports, _walk(xnode) if keep else (), xnode.count, min_support)


def _merge_into(target: IFPNode, extra: IFPNode) -> int:
    """Move ``extra``'s children under ``target``, consuming ``extra``: counts
    add, children with equal ids merge pairwise, the others move whole.
    Returns the number of ``extra``'s nodes merged into existing ones."""
    merged = 0
    stack = [(target, extra)]
    while stack:
        into, src = stack.pop()
        for item, child in src.children.items():
            existing = into.children.setdefault(item, child)
            if existing is not child:
                existing.count += child.count
                merged += 1
                stack.append((existing, child))
    return merged


def split(tree: IFPTree) -> Iterator[tuple[int, IFPTree]]:
    """Walk the tree's residual chain, consuming it: yield ``(x, tree)`` for
    each lf-item x, then turn the tree into x's residual tree in place (the
    other supports stay, so the order just loses x). Take what x's step
    needs, such as ``projected_tree(tree, x)``, before resuming."""
    while tree.order:
        x = tree.order[0]
        yield x, tree
        tree.node_count -= 1 + _merge_into(tree.root, tree.root.children.pop(x))
        tree.order = tree.order[1:]
        del tree.rank[x]
        del tree.supports[x]


def residual_tree(tree: IFPTree, x: int) -> IFPTree:
    """Tree of the residual database of x: every transaction, with x removed.
    Requires x to be the lf-item; the input tree is left unchanged."""
    _check_lf(tree, x)
    supports = dict(tree.supports)
    # The rest of the order reaches x's support; items with no node fall below it.
    floor = supports.pop(x)
    return _build(supports, _walk(tree.root), tree.num_transactions, floor)


def tree_items(tree: IFPTree) -> set[int]:
    """Items with at least one node in the tree: every item of its order."""
    return set(tree.order)


def tree_support(tree: IFPTree, s: Iterable[int]) -> int:
    """Support of an itemset in the represented database. The empty itemset
    has support ``num_transactions``; items absent from the tree force 0."""
    items = set(s)
    if not items:
        return tree.num_transactions
    return sum(count for path, count in _walk(tree.root) if items.issubset(path))
