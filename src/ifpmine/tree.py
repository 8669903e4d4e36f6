"""Inverse FP-tree: the transactions of a database sorted in i-flist order
(ascending support), kept as merged weighted paths.

Because items appear in ascending-support order, every transaction that
holds the least frequent item x of the represented database starts with x.
That makes two decompositions cheap:

* the projected tree of the lf-item x: the database of transactions that
  contain x, with x removed (the suffixes after x of the paths that start
  with x);
* the residual tree of x: the whole database with x removed (those paths
  lose their first item and join the others).

A tree keeps its transactions in one of two forms. On paths, ``_paths``
maps each item to the paths whose first item it is, ``{path tuple:
count}``, with identical paths merged into one of the summed count, as in
H-Mine's queues (Pei et al., ICDM 2001). In vertical form, ``_tids`` maps
each item of the order to its tidset, one ``int`` with a bit per
transaction, as Eclat's (Zaki, IEEE TKDE 2000). One constructor,
``_prepare``, makes every tree from weighted transactions, and picks its
form there, once, from the supports it is given (``_takes_bitsets``): a
dense tree gets its tidsets straight from the transactions, one ``|=``
per kept item occurrence, and any other is made on paths, each
transaction sorted into the tree's order and merged there. ``_prepare``
leaves out the items below its ``min_support``: such an item keeps its
support in ``supports`` but has no place in the order, the paths or the
tidsets and no row or column in the table. The database is the projected
database of the empty prefix, and ``build_tree`` makes its tree.

``split`` is the paper's step, taken along the whole residual chain: it
yields each lf-item x with x's projected tree, then turns its tree into x's
residual tree in place. On paths it moves each path of x's bucket, without
x, into the bucket of its next item: O(x's paths) per step, not O(tree). In
vertical form x's projection is each tidset of row x ANDed with x's, and
the residual step deletes x's tidset: no path is sorted and no bucket is
moved. ``split`` consumes its tree. ``projected_tree(tree, min_support)``
and ``residual_tree(tree)`` take one step at the tree's own lf-item,
``tree.order[0]``, and leave the tree alone: ``residual_tree`` is
``split``'s residual step on a copy. On an empty tree both raise the
``IndexError`` of ``order[0]``. A tree's form never changes: the residual
trees and projections of a vertical tree are vertical, and a projection
of a tree on paths takes the form ``_prepare`` picks for it.

Every tree carries a pair table, FP-growth*'s FP-array (Grahne and Zhu,
IEEE TKDE 2005): ``pairs[a][b]`` is the support of {a, b} for each item b
after a in the tree's order. It is counted when first read, so a tree whose
table nothing reads never holds one, by the kernel of the tree's form. The
path kernel adds each distinct path's count to each of its n(n - 1)/2
pairs. The bitset kernel reads each of the m(m - 1)/2 pairs of the order's
m items as the ``bit_count`` of an AND of two tidsets. An AND costs in
proportion to the tree's width in bits, so a tree of many transactions,
such as a big sparse database's, is made on its paths and splits on them.
The residual of x leaves every other itemset's support unchanged, so row x
of the table is x's projected supports at x's step of the chain.
``projected_tree`` takes them from there and, on paths, reads x's paths
only if some item of that row reaches its ``min_support``.

``paths()`` yields the distinct transactions in either form; a vertical
tree derives them from its tidsets on each read. ``dump`` renders them as
the paper's prefix tree, one line per distinct prefix; ``node_count``
counts those lines and ``tree_support`` sums the paths that hold an
itemset. Reading ``pairs`` the first time stores the table in the tree:
read it before sharing a tree between threads.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

from .data import TransactionDatabase, item_supports


class IFPTree:
    __slots__ = ("order", "num_transactions", "supports", "_paths", "_tids", "_pairs")

    def __init__(self, order: Iterable[int], num_transactions: int, supports: dict[int, int]):
        self.order: tuple[int, ...] = tuple(order)
        self.num_transactions = num_transactions
        self.supports = supports  # item -> support, also of items pruned from the tree (no path)
        # first item -> {path sorted into the order: number of transactions on it}; empty when vertical
        self._paths: dict[int, dict[tuple[int, ...], int]] = {}
        # item -> tidset, in place of ``_paths`` when the tree is vertical (see ``_takes_bitsets``)
        self._tids: dict[int, int] | None = None
        self._pairs: dict[int, dict[int, int]] | None = None

    def paths(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Each distinct nonempty transaction, sorted into the order, with its
        count; a vertical tree derives them from its tidsets on each read."""
        if self._tids is not None:
            return iter(_tid_paths(self.order, self._tids).items())
        return chain.from_iterable(map(dict.items, self._paths.values()))

    @property
    def single_path(self) -> bool:
        """Whether the tree holds at most one distinct path. A vertical
        tree, whose tidsets are never empty, holds one exactly when all its
        tidsets are equal."""
        if self._tids is not None:
            tids = iter(self._tids.values())
            first = next(tids, 0)
            return all(t == first for t in tids)
        return len(list(islice(self.paths(), 2))) < 2

    @property
    def node_count(self) -> int:
        """Number of lines of ``dump``: the distinct nonempty prefixes of the
        paths. Sorted, each path adds its items after the prefix it shares
        with the one before it."""
        total = 0
        prev: Sequence[int] = ()
        for path in sorted(path for path, _ in self.paths()):
            total += len(path) - _common_prefix(prev, path)
            prev = path
        return total

    @property
    def pairs(self) -> dict[int, dict[int, int]]:
        """a -> b -> support of {a, b}, for b after a in the order; no row is
        empty and no entry is 0. Counted on first read, by the kernel of the
        tree's form (``_count_pairs``), and kept: the only read that writes
        to the tree, and it never changes the tree's form."""
        if self._pairs is None:
            self._pairs = _count_pairs(self)
        return self._pairs

    def dump(self, labels: dict[int, str] | None = None) -> str:
        """The paths' prefix tree, one ``item:count`` line per distinct
        prefix, indented by its depth, children in tree order, the empty
        prefix left out. The paths are walked once in that order: each adds
        its items after the prefix it shares with the one before it, and
        its count to each line of its own prefixes."""
        rank = {item: k for k, item in enumerate(self.order)}
        heads: list[str] = []
        counts: list[int] = []
        stack: list[int] = []  # the lines of the current path's prefixes
        prev: Sequence[int] = ()
        for path, count in sorted(self.paths(), key=lambda pc: [rank[i] for i in pc[0]]):
            k = _common_prefix(prev, path)
            del stack[k:]
            for depth in range(k, len(path)):
                stack.append(len(heads))
                name = labels.get(path[depth], str(path[depth])) if labels else str(path[depth])
                heads.append("  " * depth + name)
                counts.append(0)
            for line in stack:
                counts[line] += count
            prev = path
        return "\n".join(f"{head}:{count}" for head, count in zip(heads, counts))

def _common_prefix(prev: Sequence[int], path: Sequence[int]) -> int:
    """Number of leading items ``path`` shares with ``prev``."""
    k, n = 0, min(len(path), len(prev))
    while k < n and path[k] == prev[k]:
        k += 1
    return k


def _count_pairs(tree: IFPTree) -> dict[int, dict[int, int]]:
    """The tree's pair table, counted in the tree's form: on its paths, or
    as ANDs of its tidsets when it is vertical."""
    if tree._tids is None:
        return _path_pairs(tree.paths())
    return _bitset_pairs(tree.order, tree._tids)


def _takes_bitsets(m: int, s: int, t: int) -> bool:
    """Whether a tree of m items whose supports sum to s, over t
    transactions, is made vertical: whether its pair table costs less as
    ANDs of tidsets than as increments on paths. A transaction of n items
    costs n(n - 1)/2 increments on paths and n bit settings on tidsets,
    n(n - 3)/2 more; the tidsets cost m(m - 1)/2 ANDs. An AND of two w-bit
    ints costs about 0.14 µs at 600 bits and 14 µs at 100k, so each counts
    one more unit per 1024 bits of width, bounded here by t: without that
    term a big sparse tree (m = 499, 99,420 transactions) took bitsets and
    ran twice as slow. Σ n(n - 3) is taken as that of t transactions of the
    mean length s/t, s·s/t - 3s, so the supports alone decide, before any
    path is made; both sides are multiplied by t. A tie takes the paths."""
    return s * s - 3 * s * t > m * (m - 1) * (1 + t // 1024) * t


def _path_pairs(paths: Iterable[tuple[Sequence[int], int]]) -> dict[int, dict[int, int]]:
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


def _tidsets(order: Sequence[int], paths: Iterable[tuple[Iterable[int], int]]) -> dict[int, int]:
    """Eclat's tidsets of weighted transactions over the items of
    ``order``: a transaction of count c sets a run of c bits, its own, in
    the bitset of each of its items of the order. A transaction with no
    item of the order still takes its bits."""
    tids = dict.fromkeys(order, 0)
    offset = 0
    for items, count in paths:
        run = ((1 << count) - 1) << offset
        for item in items:
            if item in tids:
                tids[item] |= run
        offset += count
    return tids


def _bitset_pairs(order: Sequence[int], tids: dict[int, int]) -> dict[int, dict[int, int]]:
    """The pair table of the tidsets of the items of ``order``: a pair's
    support is the number of bits its two tidsets share. Pairs that share
    none get no entry."""
    bits = [tids[item] for item in order]
    pairs: dict[int, dict[int, int]] = {}
    for k, a in enumerate(order):
        tid_a = bits[k]
        row = {b: n for b, tid_b in zip(order[k + 1:], bits[k + 1:]) if (n := (tid_a & tid_b).bit_count())}
        if row:
            pairs[a] = row
    return pairs


def _tid_paths(order: Sequence[int], tids: dict[int, int]) -> Counter[tuple[int, ...]]:
    """The distinct nonempty transactions of tidsets over ``order``, sorted
    into it, with their counts. Each tidset's set bits are walked once, in
    the order, and each adds its item to its transaction."""
    rows: defaultdict[int, list[int]] = defaultdict(list)
    for item in order:
        bits = bin(tids[item])
        end = len(bits) - 1
        k = bits.find("1")
        while k >= 0:
            rows[end - k].append(item)
            k = bits.find("1", k + 1)
    return Counter(map(tuple, rows.values()))


def _iflist(supports: dict[int, int], min_support: int) -> list[int]:
    """The i-flist of the items whose support reaches ``min_support``:
    ascending support, ties by item id."""
    return sorted((i for i in supports if supports[i] >= min_support), key=lambda i: (supports[i], i))


def _prepare(
    supports: dict[int, int],
    paths: Iterable[tuple[Iterable[int], int]],
    num_transactions: int,
    min_support: int = 0,
) -> IFPTree:
    """The tree of the weighted transactions ``paths``, ``(items, count)``
    pairs. The tree owns ``supports``; only the items whose support reaches
    ``min_support`` get a place in its order, the others are left out of its
    transactions. Its form is picked from those supports alone
    (``_takes_bitsets``): vertical, each transaction setting its bits in
    its items' tidsets, or on paths, each transaction sorted into the order
    and merged into its first item's bucket, the ones left empty dropped."""
    order = _iflist(supports, min_support)
    tree = IFPTree(order, num_transactions, supports)
    if _takes_bitsets(len(order), sum(map(supports.__getitem__, order)), num_transactions):
        tree._tids = _tidsets(order, paths)
        return tree
    rank = {item: k for k, item in enumerate(order)}
    buckets = tree._paths
    for items, count in paths:
        if path := tuple(sorted(filter(rank.__contains__, items), key=rank.__getitem__)):
            bucket = buckets.get(path[0])
            if bucket is None:
                buckets[path[0]] = {path: count}
            else:
                bucket[path] = bucket.get(path, 0) + count
    return tree


def build_tree(db: TransactionDatabase, min_support: int = 0) -> IFPTree:
    """Build the inverse FP-tree of a database without the items whose
    support is below ``min_support``; ``supports`` keeps every item. Empty
    transactions are counted in ``num_transactions`` but add no path. A
    dense database's tree is vertical: transaction t is bit t of its
    items' tidsets."""
    return _prepare(item_supports(db), ((t, 1) for t in db.transactions), len(db), min_support)


def projected_tree(tree: IFPTree, min_support: int = 0) -> IFPTree:
    """Tree of the projected database of the tree's lf-item x: transactions
    containing x, with x removed. Since x is the lf-item, the whole
    projection is the paths of x's bucket, without x. Item order is
    recomputed because supports change under projection. ``supports`` holds
    every item's projected support, but the items below ``min_support`` are
    left out of the paths. The supports are read from the pair table first:
    x's paths are read only if some item reaches ``min_support``. The
    projection of a vertical tree is vertical, each item's tidset ANDed
    with x's; that of a tree on paths takes the form ``_prepare`` picks."""
    x = tree.order[0]
    # Row x of the pair table: items that never occur with x are absent, and
    # so are the items the tree leaves out.
    supports = dict(tree.pairs.get(x, ()))
    if tree._tids is not None:
        proj = IFPTree(_iflist(supports, min_support), tree.supports[x], supports)
        tids, tid_x = tree._tids, tree._tids[x]
        proj._tids = {b: tids[b] & tid_x for b in proj.order}
        return proj
    keep = any(n >= min_support for n in supports.values())
    paths = ((path[1:], n) for path, n in tree._paths[x].items()) if keep else ()
    return _prepare(supports, paths, tree.supports[x], min_support)


def _drop_lf(tree: IFPTree) -> None:
    """Turn the tree into the residual tree of its lf-item x in place: each
    path of x's bucket moves, without x, to the bucket of its next item;
    a vertical tree just drops x's tidset. Every itemset without x keeps
    its support, so the order, ``supports`` and the pair table, if one was
    counted, just lose x: row x is the one table entry that holds it, as x
    comes first in the order."""
    x = tree.order[0]
    if tree._tids is not None:
        del tree._tids[x]
    else:
        buckets = tree._paths
        for path, count in buckets.pop(x).items():
            if rest := path[1:]:  # the transaction's other items, merged with equal ones
                bucket = buckets.get(rest[0])
                if bucket is None:
                    buckets[rest[0]] = {rest: count}
                else:
                    bucket[rest] = bucket.get(rest, 0) + count
    tree.order = tree.order[1:]
    del tree.supports[x]
    if tree._pairs is not None:
        tree._pairs.pop(x, None)


def split(tree: IFPTree, min_support: int = 0) -> Iterator[tuple[int, IFPTree]]:
    """Walk the tree's residual chain, consuming it: for each lf-item x,
    yield ``(x, projected_tree(tree, min_support))``, then turn the tree
    into x's residual tree in place (``_drop_lf``). The first projection
    reads the tree's pair table. The tree keeps its form along the whole
    chain: a vertical tree splits on ANDs, and each projection it yields is
    vertical; a tree on paths moves its paths, and ``_prepare`` picks the
    form of each projection it yields."""
    while tree.order:
        yield tree.order[0], projected_tree(tree, min_support)
        _drop_lf(tree)


def residual_tree(tree: IFPTree) -> IFPTree:
    """Tree of the residual database of the tree's lf-item x: every
    transaction, with x removed. It is ``split``'s residual step taken on a
    copy, so the input tree is left unchanged; the copy counts its own pair
    table when first read."""
    copy = IFPTree(tree.order, tree.num_transactions, dict(tree.supports))
    copy._paths = {item: dict(bucket) for item, bucket in tree._paths.items()}
    copy._tids = None if tree._tids is None else dict(tree._tids)
    _drop_lf(copy)
    return copy


def tree_support(tree: IFPTree, s: Iterable[int]) -> int:
    """Support of an itemset in the represented database. The empty itemset
    has support ``num_transactions``; items absent from the tree force 0."""
    items = set(s)
    if not items:
        return tree.num_transactions
    return sum(count for path, count in tree.paths() if items.issubset(path))
