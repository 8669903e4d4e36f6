"""Inverse FP-tree: a database's transactions sorted in i-flist order
(ascending support), so every transaction that holds the least frequent
item (lf-item) x of the tree starts with x, and x's projected and residual
trees are cheap to take. Each rule is stated where it is implemented:

* ``IFPTree``: a tree's two forms, on paths or vertical, and its reads.
  The form is one ``if`` on ``_tids`` inside each of the seven operations
  that depend on it: ``paths``, ``single_path``, ``pairs``,
  ``frequent_pairs``, ``projected_tree``, ``_drop_lf`` and
  ``residual_tree``;
* ``build_tree`` makes the database's tree and picks the run's form, the
  one ``_takes_bitsets`` gives; ``_prepare`` builds trees on paths;
* ``_tidsets``, the one tidset build, also ``apriori_min``'s, and
  ``_add_paths``, the one merge of equal paths;
* ``IFPTree.pairs``, the pair table, counted by the kernel of the tree's
  form, ``_path_pairs`` or ``_bitset_pairs``, and
  ``IFPTree.frequent_pairs``, the pairs above a support of a tree that is
  not split, which on tidsets counts no table;
* ``split``, the residual chain: each lf-item with the tree at its
  step, whose projection the caller takes with ``projected_tree``;
  ``projected_tree`` and ``residual_tree`` take one step and leave the
  tree alone.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

from .data import TransactionDatabase, item_supports


class IFPTree:
    """A database's transactions in one of two forms, fixed for the run:
    ``build_tree`` picks it, and every tree made from that tree keeps it.
    On paths, each transaction is sorted into ``order`` and merged with
    the equal ones into one path in the bucket of its first item, as in
    H-Mine's queues (Pei et al., ICDM 2001). In vertical form, each item
    of the order has its tidset, one ``int`` with a bit per transaction, as
    in Eclat (Zaki, IEEE TKDE 2000). Every read gives the same answer in
    both forms. Items left out of the order keep their support in
    ``supports`` but are in no path, tidset or pair table entry."""

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
        """a -> b -> support of {a, b}, for b after a in the order, as
        FP-growth*'s FP-array (Grahne and Zhu, IEEE TKDE 2005); no row is
        empty and no entry is 0. Counted on first read, by the kernel of the
        tree's form, ``_path_pairs`` or ``_bitset_pairs``, so a tree whose
        table nothing reads never holds one, and kept: the only read that
        writes to the tree, so read it before sharing a tree between
        threads. It never changes the tree's form."""
        if self._pairs is None:
            self._pairs = _path_pairs(self.paths()) if self._tids is None else _bitset_pairs(self.order, self._tids)
        return self._pairs

    def frequent_pairs(self, min_support: int) -> list[tuple[tuple[int, int], int]]:
        """Each pair ``(a, b)``, a < b, of the tree's items whose support
        reaches ``min_support``, with its support: the read of a tree that
        is not split, which needs no table rows for projections. On paths it
        is read from ``pairs``. Vertical, it takes one AND per pair of the
        order, in ascending order of item ids, and keeps no table."""
        if self._tids is None:
            return [
                ((a, b) if a < b else (b, a), n)
                for a, row in self.pairs.items()
                for b, n in row.items()
                if n >= min_support
            ]
        items = sorted(self._tids)
        bits = [self._tids[item] for item in items]
        return [
            ((a, b), n)
            for k, (a, tid_a) in enumerate(zip(items, bits))
            for b, tid_b in zip(items[k + 1:], bits[k + 1:])
            if (n := (tid_a & tid_b).bit_count()) >= min_support
        ]

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


def _takes_bitsets(m: int, s: int, t: int, o: int) -> bool:
    """Whether a run is made vertical: whether the whole run costs less on
    tidsets than on paths, priced on what the supports give before any
    tree is made. The database tree's order holds m items whose supports
    sum to s, over t transactions whose items' supports, those the order
    leaves out included, sum to o. The unit is one increment on paths.

    * Paths: the top table's increments, s·s/t for t transactions of the
      mean length s/t, and the residual chain's moves, one per item
      occurrence in the tree, s. The projections' sorts and tables are
      taken to grow with these.
    * Vertical: the tidset build, one OR per item occurrence, o, and the
      top table's m(m - 1)/2 ANDs, each weighted 30 for the projections'
      ANDs it stands for. Each op costs 2 + t // 64 word steps, its
      tidsets' width in 64-bit words plus a fixed cost of two, and 500
      word steps cost one increment.

    So a run is vertical when (o + 15·m(m - 1))·(2 + t // 64)/500 is below
    s·s/t + s. Both sides are multiplied by 500·t to stay in integers, and
    a tie, t = 0 included, takes the paths. The constants were fitted on
    whole ``ifp`` runs, with the database tree forced into each form, on
    the cells of ``tools/form_cells.py``, whose ``FITTED`` holds each
    cell's m, s, t, o and both forms' times. The rule picks the faster
    form on every cell, or one within 10% of it on two near ties. It does
    not see sigma. A benchmark workload fixes every item's support, so
    each of its queries gets one verdict on all seeds. Below 64
    transactions a run is on paths only when 15·m(m - 1) outweighs about
    250·(s·s/t + s): a database of a few dozen rows is vertical unless it
    holds dozens of items that are each in only a row or two.
    ``build_tree`` asks the rule once per run, for the database's tree. A
    change to either form's cost, such as a faster tidset build, needs the
    constants refitted on the tool's output."""
    return (o + 15 * m * (m - 1)) * (2 + t // 64) * t < 500 * (s * s + s * t)


def _path_pairs(paths: Iterable[tuple[Sequence[int], int]]) -> dict[int, dict[int, int]]:
    """The pair table of weighted paths sorted into one order: each path
    of n items adds its count to each of its n(n - 1)/2 pairs."""
    pairs: dict[int, dict[int, int]] = {}
    for path, count in paths:
        for k in range(len(path) - 1):
            row = pairs.get(path[k])
            if row is None:
                row = pairs[path[k]] = {}
            for b in path[k + 1:]:  # the count once per pair, not once per unit
                row[b] = row.get(b, 0) + count
    return pairs


def _tidsets(transactions: Iterable[Iterable[int]]) -> dict[int, int]:
    """Eclat's tidsets of transactions, for every item they hold:
    transaction t sets bit t in the tidset of each of its items. A
    transaction with no item still takes its bit. The only code that sets
    a transaction's bit, for both miners; a vertical tree's projections
    AND the database's tidsets and set no bit of their own."""
    tids: dict[int, int] = {}
    for t, items in enumerate(transactions):
        bit = 1 << t
        for i in items:
            tids[i] = tids.get(i, 0) | bit
    return tids


def _bitset_pairs(order: Sequence[int], tids: dict[int, int]) -> dict[int, dict[int, int]]:
    """The pair table of the tidsets of the items of ``order``: each of the
    m(m - 1)/2 pairs of its m items has the ``bit_count`` of the AND of its
    two tidsets, which costs in proportion to their width in bits. Pairs
    that share no bit get no entry."""
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


def _add_paths(
    buckets: dict[int, dict[tuple[int, ...], int]],
    paths: Iterable[tuple[tuple[int, ...], int]],
) -> None:
    """Add weighted paths, sorted into the tree's order, each to the bucket
    of its first item, where a path equal to it merges their counts; an
    empty path adds nothing."""
    for path, count in paths:
        if path:
            bucket = buckets.get(path[0])
            if bucket is None:
                buckets[path[0]] = {path: count}
            else:
                bucket[path] = bucket.get(path, 0) + count


def _prepare(tree: IFPTree, paths: Iterable[tuple[Iterable[int], int]]) -> None:
    """The builder of trees on paths: add the weighted transactions
    ``paths``, ``(items, count)`` pairs, to the new tree, each sorted into
    its order without the items the order leaves out."""
    rank = {item: k for k, item in enumerate(tree.order)}
    _add_paths(
        tree._paths,
        ((tuple(sorted(filter(rank.__contains__, items), key=rank.__getitem__)), count) for items, count in paths),
    )


def build_tree(db: TransactionDatabase, min_support: int = 0) -> IFPTree:
    """Build the inverse FP-tree of a database, the projected database of
    the empty prefix, without the items whose support is below
    ``min_support``; ``supports`` keeps every item. Empty transactions are
    counted in ``num_transactions`` but add no path or bit. The one place
    a tree's form is picked: ``_takes_bitsets`` prices the whole run in
    each form from the supports, those of the order's items and those of
    every item, and every tree made from this one keeps the form it
    gives."""
    supports = item_supports(db)
    tree = IFPTree(_iflist(supports, min_support), len(db), supports)
    if _takes_bitsets(len(tree.order), sum(map(supports.__getitem__, tree.order)), len(db), sum(supports.values())):
        tids = _tidsets(db.transactions)
        tree._tids = {item: tids[item] for item in tree.order}
    else:
        _prepare(tree, ((t, 1) for t in db.transactions))
    return tree


def projected_tree(tree: IFPTree, min_support: int = 0) -> IFPTree:
    """Tree of the projected database of the tree's lf-item x: transactions
    containing x, with x removed. Its ``supports`` are every item's
    projected support, row x of the tree's pair table, which holds every
    pair with x as x comes first in the order; the items below
    ``min_support`` are left out of its order, and item order is recomputed
    because supports change under projection. It has the tree's form: on
    paths, x's paths without x, read only if some item reaches
    ``min_support``; vertical, each tidset ANDed with x's."""
    x = tree.order[0]
    # Row x of the pair table: items that never occur with x are absent, and
    # so are the items the tree leaves out.
    supports = dict(tree.pairs.get(x, ()))
    proj = IFPTree(_iflist(supports, min_support), tree.supports[x], supports)
    if tree._tids is not None:
        tids, tid_x = tree._tids, tree._tids[x]
        proj._tids = {b: tids[b] & tid_x for b in proj.order}
    elif proj.order:
        _prepare(proj, ((path[1:], n) for path, n in tree._paths[x].items()))
    return proj


def _drop_lf(tree: IFPTree) -> None:
    """``split``'s residual step: turn the tree into the residual tree of
    its lf-item x in place. Every itemset without x keeps its support, so
    the order, ``supports`` and the pair table, if one was counted, just
    lose x: row x is the one table entry that holds it, as x comes first in
    the order."""
    x = tree.order[0]
    if tree._tids is not None:
        del tree._tids[x]
    else:
        _add_paths(tree._paths, ((path[1:], count) for path, count in tree._paths.pop(x).items()))
    tree.order = tree.order[1:]
    del tree.supports[x]
    if tree._pairs is not None:
        tree._pairs.pop(x, None)


def split(tree: IFPTree) -> Iterator[tuple[int, IFPTree]]:
    """The paper's step, taken along the tree's whole residual chain,
    consuming the tree: for each lf-item x in turn, yield x with the tree
    at x's step, whose ``projected_tree`` is x's projected tree, then turn
    the tree into x's residual tree in place (``_drop_lf``). The caller
    takes the projection of the x it needs, at the floor it needs, before
    it asks for the next step. Since x comes first in every transaction
    that holds it, on paths x's bucket is its projection, and the residual
    step moves each of those paths, without x, to the bucket of its next
    item: O(x's paths) per step, not O(tree). In vertical form the
    projection is each tidset ANDed with x's, and the residual step deletes
    x's tidset. A tree keeps its form along the chain, and its projections
    take it too."""
    while tree.order:
        yield tree.order[0], tree
        _drop_lf(tree)


def residual_tree(tree: IFPTree) -> IFPTree:
    """Tree of the residual database of the tree's lf-item x: every
    transaction, with x removed. It is ``split``'s residual step taken on a
    copy, so the input tree is left unchanged; the copy counts its own pair
    table when first read. On an empty tree, as ``projected_tree``, it
    raises the ``IndexError`` of ``order[0]``."""
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
