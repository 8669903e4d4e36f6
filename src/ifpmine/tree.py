"""Inverse FP-tree: a prefix-tree over transactions sorted in i-flist order
(ascending support).

Because items appear in ascending-support order, the least frequent item of
the represented database occurs at exactly one node, a child of the root.
That makes two decompositions cheap:

* the projected tree of the lf-item x: the database of transactions that
  contain x, with x removed (the subtree rooted at x's node, reordered);
* the residual tree of x: the whole database with x removed (x's node is
  spliced out and its subtree merged back into the root's children).

``split`` is the paper's step, taken along the whole residual chain: it
yields each lf-item x with x's projected tree, then turns its tree into x's
residual tree in place, moving x's subtrees into the root: O(x's subtree)
per step, not O(tree). It consumes its tree; ``projected_tree`` and
``residual_tree`` leave theirs alone.

Every tree carries a pair table, FP-growth*'s FP-array (Grahne and Zhu,
IEEE TKDE 2005): ``pairs[a][b]`` is the support of {a, b} for each item b
after a in the tree's order. It is counted when first read, in one pass
over the tree's weighted paths, so a tree whose table nothing reads never
holds one.

One constructor, ``_prepare``, makes every tree, from weighted transactions
that it sorts into the tree's order and keeps in ``_pending``, where they
give its table. A tree makes their nodes itself, the first time its
``root`` or ``node_count`` is read, and drops each path once its nodes hold
it; everything else a tree answers, its order, supports, table and whether
it is empty, needs no node. So ``build_tree``, ``projected_tree`` and
``residual_tree`` make none, and a tree that nothing walks or splits never
gets any. ``_prepare`` leaves out the items below its ``min_support``: such
an item keeps its support in ``supports`` but gets no node, no place in the
order and no row or column in the table. The database is the projected
database of the empty prefix, and ``build_tree`` makes its tree.

The residual of x leaves every other itemset's support unchanged, so row x
of the table is x's projected supports at x's step of the chain, read with
no walk of x's subtree. ``projected_tree`` takes them from there, reads x's
paths, with the one walk ``_walk``, only if some item of that row reaches
its ``min_support``, and makes x's projection from them. ``_walk`` also
serves ``residual_tree``, ``tree_support`` and the count of a table once a
tree has nodes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

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
    __slots__ = ("_root", "order", "num_transactions", "supports", "_pending", "_pairs", "_nodes")

    def __init__(self, order: Iterable[int], num_transactions: int, supports: dict[int, int]):
        self._root = IFPNode(None)
        self.order: tuple[int, ...] = tuple(order)
        self.num_transactions = num_transactions
        self.supports = supports  # item -> support, also of items pruned from the tree (no node)
        # (path sorted into the order, count) of each transaction with no nodes yet
        self._pending: list[tuple[list[int], int]] = []
        self._pairs: dict[int, dict[int, int]] | None = None
        self._nodes = 0

    @property
    def root(self) -> IFPNode:
        """The unlabeled root. The first read makes the tree's nodes."""
        if self._pending:
            self._insert()
        return self._root

    @property
    def node_count(self) -> int:
        """Number of nodes below the root. Reading it makes them."""
        if self._pending:
            self._insert()
        return self._nodes

    def _insert(self) -> None:
        """Make the nodes of the pending paths, dropping each path once its
        nodes are made: the nodes hold it now."""
        pending, self._pending = self._pending, []
        # Popped from the end: inserted in order, and no path outlives its nodes,
        # so a large database's sorted paths and its nodes are never all held.
        pending.reverse()
        made = 0
        while pending:
            path, count = pending.pop()
            node = self._root
            for item in path:
                child = node.children.get(item)
                if child is None:
                    node.children[item] = child = IFPNode(item)
                    made += 1
                child.count += count
                node = child
        self._nodes += made

    @property
    def pairs(self) -> dict[int, dict[int, int]]:
        """a -> b -> support of {a, b}, for b after a in the order; no row is
        empty. Counted on first read: from the pending paths, or from a walk
        of the nodes once they are made."""
        if self._pairs is None:
            self._pairs = _count_pairs(self._pending or _walk(self.root))
        return self._pairs

    def is_empty(self) -> bool:
        # Every item of the order occurs in some path: no node is needed.
        return not self.order

    def sorted_children(self, node: IFPNode) -> list[IFPNode]:
        return [node.children[i] for i in sorted(node.children, key=self.order.index)]

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


def _count_pairs(paths: Iterable[tuple[Sequence[int], int]]) -> dict[int, dict[int, int]]:
    """The pair table of weighted paths sorted into one order."""
    pairs: dict[int, dict[int, int]] = {}
    for path, count in paths:
        for k in range(len(path) - 1):
            row = pairs.get(path[k])
            if row is None:
                row = pairs[path[k]] = {}
            for b in path[k + 1:]:  # the count once per pair, not once per unit
                row[b] = row.get(b, 0) + count
    return pairs


def _prepare(
    supports: dict[int, int],
    paths: Iterable[tuple[Iterable[int], int]],
    num_transactions: int,
    min_support: int = 0,
) -> IFPTree:
    """The tree of the weighted transactions ``paths``, ``(items, count)``
    pairs, with no nodes yet: the transactions wait in ``_pending``, sorted
    into its order, until the tree's nodes are read. The tree owns ``supports``;
    only the items whose support reaches ``min_support`` get a place in its
    order, the others are left out of its paths, and the paths left empty
    are dropped."""
    tree = IFPTree(
        (i for i in _order_items(supports) if supports[i] >= min_support),
        num_transactions,
        supports,
    )
    rank = {item: k for k, item in enumerate(tree.order)}
    tree._pending = [
        (path, count)
        for items, count in paths
        if (path := sorted([i for i in items if i in rank], key=rank.__getitem__))
    ]
    return tree


def build_tree(db: TransactionDatabase, min_support: int = 0) -> IFPTree:
    """Build the inverse FP-tree of a database without the items whose
    support is below ``min_support``; ``supports`` keeps every item. Empty
    transactions are counted in ``num_transactions`` but add no nodes."""
    return _prepare(item_supports(db), ((t, 1) for t in db.transactions), len(db), min_support)


def lf_item(tree: IFPTree) -> int:
    """Least frequent item of the tree (first in i-flist order)."""
    if not tree.order:
        raise EmptyTreeError("empty tree has no least-frequent item")
    return tree.order[0]


def _check_lf(tree: IFPTree, x: int) -> None:
    if not tree.order or tree.order[0] != x:
        raise ValueError(f"item {x} is not the least-frequent item of this tree")


def _walk(top: IFPNode) -> Iterator[tuple[Itemset, int]]:
    """Each path under ``top`` that transactions end on, with its
    multiplicity, in one walk in dict order."""
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
            yield tuple(path), count


def projected_tree(tree: IFPTree, x: int, min_support: int = 0) -> IFPTree:
    """Tree of the projected database of x: transactions containing x, with x
    removed. Requires x to be the lf-item, so the whole projection is the
    single subtree rooted at x's node. Item order is recomputed because
    supports change under projection. ``supports`` holds every item's
    projected support, but the items below ``min_support`` get no node, so
    the tree represents the projected database without them. The supports
    are read from the pair table first: x's paths are read only if some item
    reaches ``min_support``."""
    _check_lf(tree, x)
    # Row x of the pair table: items that never occur with x are absent, and
    # so are the items the tree holds no node of.
    supports = dict(tree.pairs.get(x, ()))
    xnode = tree.root.children[x]
    keep = any(n >= min_support for n in supports.values())
    return _prepare(supports, _walk(xnode) if keep else (), xnode.count, min_support)


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


def split(tree: IFPTree, min_support: int = 0) -> Iterator[tuple[int, IFPTree]]:
    """Walk the tree's residual chain, consuming it: for each lf-item x,
    yield ``(x, projected_tree(tree, x, min_support))``, then turn the tree
    into x's residual tree in place (the other supports stay, so the order
    just loses x and the pair table its row x)."""
    while tree.order:
        x = tree.order[0]
        yield x, projected_tree(tree, x, min_support)  # reads the pair table and makes the nodes
        root = tree.root
        tree._nodes -= 1 + _merge_into(root, root.children.pop(x))
        tree.order = tree.order[1:]
        del tree.supports[x]
        tree._pairs.pop(x, None)


def residual_tree(tree: IFPTree, x: int) -> IFPTree:
    """Tree of the residual database of x: every transaction, with x removed.
    Requires x to be the lf-item; the input tree is left unchanged."""
    _check_lf(tree, x)
    supports = dict(tree.supports)
    # The rest of the order reaches x's support; items with no node fall below it.
    floor = supports.pop(x)
    return _prepare(supports, _walk(tree.root), tree.num_transactions, floor)


def tree_support(tree: IFPTree, s: Iterable[int]) -> int:
    """Support of an itemset in the represented database. The empty itemset
    has support ``num_transactions``; items absent from the tree force 0."""
    items = set(s)
    if not items:
        return tree.num_transactions
    return sum(count for path, count in _walk(tree.root) if items.issubset(path))
