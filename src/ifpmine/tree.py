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

Every tree carries a pair table, FP-growth*'s FP-array (Grahne and Zhu,
IEEE TKDE 2005): ``pairs[a][b]`` is the support of {a, b} for each item b
after a in the tree's order. It is counted when first read, in one pass
over the tree's weighted paths, so a tree whose table nothing reads never
holds one. Every tree is made from weighted transactions, each sorted into
the tree's order once by ``_sorted_paths``. ``_build``, and so
``build_tree``, inserts each one as it is sorted; ``_prepare`` keeps them
on the tree, where they give its table, and ``insert_pending`` makes their
nodes later, if at all. Both leave out the items below their
``min_support``: such an item keeps its support in ``supports`` but gets
no node, no place in the order and no row or column in the table. The
miners build their tree at their floor this way.

The residual of x leaves every other itemset's support unchanged, so row x
of the table is x's projected supports at x's step of the chain, read with
no walk of x's subtree. ``pending_projection`` takes them from there, reads
x's paths, with the one walk ``_walk``, only if some item of that row
reaches its ``min_support``, and prepares x's projection from them; the
miners insert its nodes only when they are going to split it.
``projected_tree`` is ``pending_projection`` followed by ``insert_pending``.
``_walk`` also serves ``residual_tree``, ``tree_support`` and the count of a
built tree's table.
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
    __slots__ = ("root", "order", "rank", "num_transactions", "supports", "pending", "_pairs", "node_count")

    def __init__(self, order: Iterable[int], num_transactions: int, supports: dict[int, int]):
        self.root = IFPNode(None)
        self.order: tuple[int, ...] = tuple(order)
        self.rank: dict[int, int] = {item: i for i, item in enumerate(self.order)}
        self.num_transactions = num_transactions
        self.supports = supports  # item -> support, also of items pruned from the tree (no node)
        # (path sorted into the order, count) of each transaction with no nodes yet
        self.pending: list[tuple[list[int], int]] = []
        self._pairs: dict[int, dict[int, int]] | None = None
        self.node_count = 0

    @property
    def pairs(self) -> dict[int, dict[int, int]]:
        """a -> b -> support of {a, b}, for b after a in the order; no row is
        empty. Counted on first read, from the pending paths or the nodes."""
        if self._pairs is None:
            self._pairs = _count_pairs(self.pending or _walk(self.root))
        return self._pairs

    def is_empty(self) -> bool:
        return not self.root.children

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


def _empty_tree(supports: dict[int, int], num_transactions: int, min_support: int) -> IFPTree:
    """A tree with no node that owns ``supports``; only the items whose
    support reaches ``min_support`` get a place in its order."""
    return IFPTree(
        (i for i in _order_items(supports) if supports[i] >= min_support),
        num_transactions,
        supports,
    )


def _sorted_paths(
    tree: IFPTree, paths: Iterable[tuple[Iterable[int], int]]
) -> Iterator[tuple[list[int], int]]:
    """Each weighted transaction sorted into the tree's order, without the
    items that have no place in it; the ones left empty are dropped."""
    rank = tree.rank
    for items, count in paths:
        path = sorted([i for i in items if i in rank], key=rank.__getitem__)
        if path:
            yield path, count


def _grow(tree: IFPTree, sorted_paths: Iterable[tuple[list[int], int]]) -> int:
    """Insert paths sorted into the tree's order as nodes; returns the
    number of nodes made."""
    made = 0
    for path, count in sorted_paths:
        node = tree.root
        for item in path:
            child = node.children.get(item)
            if child is None:
                node.children[item] = child = IFPNode(item)
                made += 1
            child.count += count
            node = child
    tree.node_count += made
    return made


def _prepare(
    supports: dict[int, int],
    paths: Iterable[tuple[Iterable[int], int]],
    num_transactions: int,
    min_support: int = 0,
) -> IFPTree:
    """The tree of the weighted transactions ``paths``, ``(items, count)``
    pairs, with its order but no nodes yet: the transactions wait in
    ``pending``, sorted into its order, for ``insert_pending``. See
    ``_empty_tree`` for ``supports`` and ``min_support``."""
    tree = _empty_tree(supports, num_transactions, min_support)
    tree.pending = list(_sorted_paths(tree, paths))
    return tree


def insert_pending(tree: IFPTree) -> int:
    """Make the nodes of the tree's pending paths, which it then drops: the
    nodes hold them now. Returns the number of nodes made."""
    pending, tree.pending = tree.pending, []
    return _grow(tree, pending)


def _build(
    supports: dict[int, int],
    paths: Iterable[tuple[Iterable[int], int]],
    num_transactions: int,
    min_support: int = 0,
) -> IFPTree:
    """The tree of the weighted transactions ``paths`` with its nodes, each
    inserted as it is sorted, so they are never all held at once; see
    ``_prepare``."""
    tree = _empty_tree(supports, num_transactions, min_support)
    _grow(tree, _sorted_paths(tree, paths))
    return tree


def build_tree(db: TransactionDatabase, min_support: int = 0) -> IFPTree:
    """Build the inverse FP-tree of a database without the items whose
    support is below ``min_support``; ``supports`` keeps every item. Empty
    transactions are counted in ``num_transactions`` but add no nodes."""
    return _build(item_supports(db), ((t.items, 1) for t in db.transactions), len(db), min_support)


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


def pending_projection(tree: IFPTree, x: int, min_support: int = 0) -> IFPTree:
    """``projected_tree`` with its nodes pending: see ``insert_pending``.
    x's paths are read only if some item reaches ``min_support``."""
    _check_lf(tree, x)
    # Row x of the pair table: items that never occur with x are absent, and
    # so are the items the tree holds no node of.
    supports = dict(tree.pairs.get(x, ()))
    xnode = tree.root.children[x]
    keep = any(n >= min_support for n in supports.values())
    return _prepare(supports, _walk(xnode) if keep else (), xnode.count, min_support)


def projected_tree(tree: IFPTree, x: int, min_support: int = 0) -> IFPTree:
    """Tree of the projected database of x: transactions containing x, with x
    removed. Requires x to be the lf-item, so the whole projection is the
    single subtree rooted at x's node. Item order is recomputed because
    supports change under projection. ``supports`` holds every item's
    projected support, but the items below ``min_support`` get no node, so
    the tree represents the projected database without them. The supports
    are read from the pair table first: x's paths are read only if some item
    reaches ``min_support``."""
    proj = pending_projection(tree, x, min_support)
    insert_pending(proj)
    return proj


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
    other supports stay, so the order just loses x and the pair table its
    row x). Take what x's step needs, such as ``projected_tree(tree, x)``,
    before resuming."""
    while tree.order:
        x = tree.order[0]
        yield x, tree
        tree.node_count -= 1 + _merge_into(tree.root, tree.root.children.pop(x))
        tree.order = tree.order[1:]
        del tree.rank[x]
        del tree.supports[x]
        if tree._pairs is not None:
            tree._pairs.pop(x, None)


def residual_tree(tree: IFPTree, x: int) -> IFPTree:
    """Tree of the residual database of x: every transaction, with x removed.
    Requires x to be the lf-item; the input tree is left unchanged."""
    _check_lf(tree, x)
    supports = dict(tree.supports)
    # The rest of the order reaches x's support; items with no node fall below it.
    floor = supports.pop(x)
    return _build(supports, _walk(tree.root), tree.num_transactions, floor)


def tree_support(tree: IFPTree, s: Iterable[int]) -> int:
    """Support of an itemset in the represented database. The empty itemset
    has support ``num_transactions``; items absent from the tree force 0."""
    items = set(s)
    if not items:
        return tree.num_transactions
    return sum(count for path, count in _walk(tree.root) if items.issubset(path))
