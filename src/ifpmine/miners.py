"""Mining minimally infrequent itemsets: itemsets below the support threshold
whose every proper subset is frequent.

Two miners produce identical output:

* ``ifp_min`` takes each itemset length from one source. The MIIs of one
  item are the items below ``sigma``, read from the database tree's
  ``supports``, which keep every item. Every tree leaves those items out,
  the database's as the projection of the empty prefix, so its pair MIIs
  are the pairs below ``sigma`` in its pair table (see ``tree``), with 0
  when a pair is absent. Longer MIIs come from projections: ``_mii_rec``
  loops over ``split``, which splits the tree on each least frequent item
  x in turn into the projected tree (transactions containing x, without
  x), on which alone it recurses, and the residual tree (the tree without
  x, the next step). MIIs containing x are x joined with
  itemsets minimally infrequent in the projected tree but not in the
  residual one; folding the steps back from the chain's end finds the
  residual tree's MIIs collected by the time it reaches x. A projection's
  supports are row x of the tree's pair table, and its own pair table is
  counted in the form the projection was made in: on x's paths, or on its
  tidsets, each item's ANDed with x's below a vertical tree; a dense
  database's tree is made vertical from its transactions. A tree is
  split only if its table holds a frequent pair: otherwise no itemset
  beyond a pair is minimal. A tree of one distinct path, FP-growth's
  single-path case (Han, Pei and Yin, SIGMOD 2000), holds no MII of two
  or more items, so its table is not counted and it is not split.
* ``apriori_min`` is level-wise candidate generation where the rejected
  candidates are the MIIs. It counts supports on tidsets (one ``int`` bitset
  of transaction ids per item, ANDed along each candidate), as in Eclat and
  MAFIA, so it scans the database once, to build the items' tidsets.

The brute-force reference behind ``mine_mii``'s ``oracle`` choice counts with
``data.support`` and shares no counting code with either miner.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .data import (
    InvalidThresholdError,
    Itemset,
    TransactionDatabase,
    _ResultRendering,
    in_result_order,
    support,
)
from .oracle import mii_oracle
from .tree import IFPTree, build_tree, split
from .tree import residual_tree  # noqa: F401 -- not called here; benchmark/test_benchmark.py reads miners.residual_tree


class MiningStats:
    """Peak count of tree nodes on the recursion stack during a mining run:
    the summed ``node_count`` of the trees being split, each the distinct
    prefixes of its paths, the lines of its ``dump``, when its split began,
    whatever the tree's form. A vertical tree, such as a dense database's
    from the start, derives its paths from its tidsets for the count, one
    walk of their set bits, so a run with stats takes longer than one
    without on dense data.

    A deterministic memory proxy for benchmarking; a run that splits no tree
    leaves it at zero.
    """

    __slots__ = ("peak_nodes",)

    def __init__(self) -> None:
        self.peak_nodes = 0


@dataclass(frozen=True)
class MIIResult(_ResultRendering):
    """Deterministically ordered minimally infrequent itemsets of one run;
    every miner builds it with ``of``."""

    miis: tuple[Itemset, ...]
    supports: dict[Itemset, int] = field(compare=False)
    sigma: int = 0
    algorithm: str = field(default="", compare=False)

    @classmethod
    def of(cls, found: dict[Itemset, int], sigma: int, algorithm: str) -> MIIResult:
        """The result of the MIIs ``found`` with their supports, in result order."""
        return cls(miis=in_result_order(found), supports=found, sigma=sigma, algorithm=algorithm)

    @property
    def _order(self) -> tuple[Itemset, ...]:
        return self.miis


def unify(x: int, sets: dict[Itemset, int]) -> dict[Itemset, int]:
    """Dot-operation: include x in every member of the collection, keeping
    each member's value. An empty collection stays empty. Members are
    canonical and do not hold x, as every itemset of x's projected tree,
    so x is inserted in place."""
    out = {}
    for s, n in sets.items():
        k = bisect_left(s, x)
        out[(*s[:k], x, *s[k:])] = n
    return out


def _mii_rec(tree: IFPTree, sigma: int, live: int, stats: MiningStats | None) -> dict[Itemset, int]:
    """MIIs of two or more items of the tree, which holds no item below
    ``sigma`` in its order, with their supports in it; consumes the tree.
    Its pairs are read from its pair table, in ascending order of item ids,
    the order ``in_result_order`` sorts them into, and it is split only if the
    table holds a frequent pair; ``live`` counts the nodes of the split
    trees above it, for ``stats``, and is read only if ``stats`` is given.
    Dropping items leaves the other itemsets' supports alone, and
    supp(x + s) here is supp(s) in x's projection. A tree of one distinct
    path (``single_path``, in either form) is cut before its table is
    read: there every itemset has its deepest item's support, which
    reaches ``sigma``."""
    if tree.single_path:
        return {}
    result = {}  # its items are frequent: each pair of them below sigma is an MII
    pairs = tree.pairs
    ids = sorted(tree.order)
    rows = {i: pairs.get(i, {}) for i in ids}
    for k, a in enumerate(ids):
        row = rows[a]
        # {a, b} is in the row of whichever comes first in the order; no entry is 0.
        result.update(((a, b), n) for b in ids[k + 1:] if (n := row.get(b) or rows[b].get(a, 0)) < sigma)
    if not any(max(row.values()) >= sigma for row in pairs.values()):
        return result  # no itemset beyond a pair is minimal
    if stats is not None:
        live += tree.node_count
        stats.peak_nodes = max(stats.peak_nodes, live)
    steps = [(x, _mii_rec(proj, sigma, live, stats)) for x, proj in split(tree, sigma)]
    # When the fold reaches x, ``result`` holds the MIIs of x's residual tree;
    # its other entries all hold an item outside x's projection.
    for x, s_p in reversed(steps):
        result.update(unify(x, {s: n for s, n in s_p.items() if s not in result}))
    return result


def ifp_min(db: TransactionDatabase, sigma: int, stats: MiningStats | None = None) -> MIIResult:
    """Mine all minimally infrequent itemsets of the database at absolute
    threshold ``sigma`` (>= 1), on ``build_tree(db, sigma)``, its tree
    without the infrequent items. Those items, in its ``supports``, are the
    MIIs of one item. ``stats``, if given, gets the run's ``peak_nodes``."""
    if sigma < 1:
        raise InvalidThresholdError(f"sigma must be >= 1, got {sigma}")
    tree = build_tree(db, sigma)
    found = {(i,): n for i, n in tree.supports.items() if n < sigma}  # before the tree is consumed
    found.update(_mii_rec(tree, sigma, 0, stats))
    return MIIResult.of(found, sigma, "ifp")


def _apriori_candidates(level: list[Itemset]) -> list[Itemset]:
    """Prefix-join frequent l-itemsets into (l+1)-candidates and keep those
    whose every immediate subset is frequent."""
    level_sorted = sorted(level)
    level_set = set(level_sorted)
    out = []
    for i, a in enumerate(level_sorted):
        for j in range(i + 1, len(level_sorted)):
            b = level_sorted[j]
            if a[:-1] != b[:-1]:
                break
            cand = a + (b[-1],)
            if all(cand[:k] + cand[k + 1:] in level_set for k in range(len(cand))):
                out.append(cand)
    return out


def apriori_min(db: TransactionDatabase, sigma: int) -> MIIResult:
    """Level-wise MII mining: candidates that fail the threshold are exactly
    the minimally infrequent itemsets, because candidate generation only
    proposes itemsets whose immediate subsets are all frequent.

    Supports are counted on tidsets: each item's transactions are one ``int``
    with bit t set for transaction t, made in one pass over the database. A
    frequent itemset keeps its tidset; a candidate's is its prefix's AND its
    last item's, and its support is that tidset's ``bit_count()``."""
    if sigma < 1:
        raise InvalidThresholdError(f"sigma must be >= 1, got {sigma}")
    tidsets: dict[int, int] = {}
    for tid, t in enumerate(db.transactions):
        bit = 1 << tid
        for i in t:
            tidsets[i] = tidsets.get(i, 0) | bit
    found: dict[Itemset, int] = {}
    level: dict[Itemset, int] = {}
    for i, tids in tidsets.items():
        if (n := tids.bit_count()) < sigma:
            found[(i,)] = n
        else:
            level[(i,)] = tids
    while level:
        next_level = {}
        for cand in _apriori_candidates(list(level)):
            tids = level[cand[:-1]] & tidsets[cand[-1]]
            if (n := tids.bit_count()) < sigma:
                found[cand] = n
            else:
                next_level[cand] = tids
        level = next_level
    return MIIResult.of(found, sigma, "apriori")


def mine_mii(
    db: TransactionDatabase,
    sigma: int,
    algorithm: str = "ifp",
    stats: MiningStats | None = None,
) -> MIIResult:
    """Run the selected MII miner over a database. ``oracle`` selects the
    brute-force reference implementation."""
    if algorithm == "ifp":
        return ifp_min(db, sigma, stats=stats)
    if algorithm == "apriori":
        return apriori_min(db, sigma)
    if algorithm == "oracle":
        return MIIResult.of({s: support(db, s) for s in mii_oracle(db, sigma)}, sigma, "oracle")
    raise ValueError(f"unknown algorithm: {algorithm!r}")
