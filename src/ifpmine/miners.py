"""Mining minimally infrequent itemsets: itemsets below the support threshold
whose every proper subset is frequent.

Two miners produce identical output:

* ``ifp_min`` takes each itemset length from one source. The MIIs of one
  item are the items below ``sigma``, read from the database tree's
  ``supports``, which keep every item. Every tree leaves those items out,
  the database's as the projection of the empty prefix, so its pair MIIs
  are the pairs below ``sigma`` in its pair table, with 0 when a pair is
  absent. Longer MIIs come from projections: ``_mii_rec`` loops over
  ``split`` and recurses on lf-item x's projected tree alone. MIIs
  containing x are x joined with itemsets minimally infrequent in the
  projected tree but not in the residual one; folding the steps back from
  the chain's end finds the residual tree's MIIs collected by the time it
  reaches x. A tree is split only if its table holds a frequent pair:
  otherwise no itemset beyond a pair is minimal. Only the x with two or
  more frequent partners are projected, Apriori's subset test (Agrawal
  and Srikant, VLDB 1994) on x's pairs. A tree of one distinct path,
  FP-growth's single-path case (Han, Pei and Yin, SIGMOD 2000), holds no
  MII of two or more items, so its table is not counted and it is not
  split.
* ``apriori_min`` is level-wise candidate generation where the rejected
  candidates are the MIIs: Apriori-gen (Agrawal and Srikant, VLDB 1994)
  joins each prefix class once and checks only the subsets that drop a
  prefix item, none at level 2. It counts supports on tidsets, as in Eclat
  and MAFIA, built by the tree's tidset builder in one scan of the database.

The brute-force reference behind ``mine_mii``'s ``oracle`` choice counts with
``data.support`` and shares no counting code with either miner.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations, groupby

from .data import (
    InvalidThresholdError,
    Itemset,
    TransactionDatabase,
    _ResultRendering,
    in_result_order,
    support,
)
from .oracle import mii_oracle
from .tree import IFPTree, _tidsets, build_tree, projected_tree, split
from .tree import residual_tree  # noqa: F401 -- not called here; benchmark/test_benchmark.py reads miners.residual_tree


class MiningStats:
    """Peak count of tree nodes on the recursion stack during a mining run:
    the summed ``node_count`` of the trees being split, each the distinct
    prefixes of its paths, the lines of its ``dump``, when its split began,
    whatever the tree's form. A vertical tree derives its paths from its
    tidsets for the count, so a run with stats takes longer than one
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
    so x is inserted in place. Only ``_mii_rec``'s fold uses it: the MLMS
    miner passes its prefix down instead."""
    out = {}
    for s, n in sets.items():
        k = bisect_left(s, x)
        out[(*s[:k], x, *s[k:])] = n
    return out


def _pair_read(tree: IFPTree, sigma: int) -> tuple[dict[Itemset, int], dict[int, int]]:
    """One pass over the pair table of a tree without items below
    ``sigma``: its pair MIIs, with their supports, in ascending order of
    item ids, the order ``in_result_order`` sorts them into, and for each
    item whose row holds a frequent pair, its number of frequent partners
    after it in the order. Every pair starts at support 0, as a pair absent
    from the table; the pairs below ``sigma`` take their count and the
    frequent ones are deleted. Row x holds every pair of x and a later
    item, so at x's step of the chain, x's count is the number of items in
    x's projection that reach ``sigma``."""
    miis = dict.fromkeys(combinations(sorted(tree.order), 2), 0)
    partners = {}
    for a, row in tree.pairs.items():
        hits = 0
        for b, n in row.items():
            if n < sigma:
                miis[(a, b) if a < b else (b, a)] = n
            else:
                del miis[(a, b) if a < b else (b, a)]
                hits += 1
        if hits:
            partners[a] = hits
    # Deleting leaves the dict sized for all m(m - 1)/2 pairs, and the fold
    # inserts into it: a copy holds the MIIs' slots alone.
    return dict(miis), partners


def _mii_rec(tree: IFPTree, sigma: int, live: int, stats: MiningStats | None) -> dict[Itemset, int]:
    """MIIs of two or more items of the tree, which holds no item below
    ``sigma`` in its order, with their supports in it; consumes the tree.
    Its pairs come from ``_pair_read``, and it is split only if its table
    holds a frequent pair; ``live`` counts the nodes of the split trees
    above it, for ``stats``, and is read only if ``stats`` is given.
    Dropping items leaves the other itemsets' supports alone, and
    supp(x + s) here is supp(s) in x's projection. Only the lf-items with
    two or more frequent partners are projected: an MII of x and two or
    more items has every subset frequent, so its pairs with x are, which is
    Apriori's subset test (Agrawal and Srikant, VLDB 1994). The projection
    of any other x has at most one item in its order, one path. A tree of
    one distinct path (``single_path``, in either form) is cut before its
    table is read: there every itemset has its deepest item's support,
    which reaches ``sigma``."""
    if tree.single_path:
        return {}
    result, partners = _pair_read(tree, sigma)  # its items are frequent: each pair of them below sigma is an MII
    if not partners:
        return result  # no itemset beyond a pair is minimal
    if stats is not None:
        live += tree.node_count
        stats.peak_nodes = max(stats.peak_nodes, live)
    steps = [
        (x, _mii_rec(projected_tree(step, sigma), sigma, live, stats))
        for x, step in split(tree)
        if partners.get(x, 0) > 1
    ]
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


def apriori_min(db: TransactionDatabase, sigma: int) -> MIIResult:
    """Level-wise MII mining: candidates that fail the threshold are exactly
    the minimally infrequent itemsets, because candidate generation only
    proposes itemsets whose immediate subsets are all frequent.

    Candidates come from Apriori-gen's join (Agrawal and Srikant, VLDB 1994),
    run once per prefix class: frequent l-itemsets ``prefix + (a,)`` and
    ``prefix + (b,)``, a < b, join into ``prefix + (a, b)``. Its subsets
    without a or b are in the level by construction, so only those that drop
    a prefix item are checked, and none are at level 2.

    Supports are counted on tidsets: each item's transactions are one ``int``
    with bit t set for transaction t, made in one pass over the database by
    ``tree._tidsets``, the build of a vertical database tree. A frequent
    itemset keeps its tidset; a candidate's is that of ``prefix + (a,)``
    AND b's, and its support is that tidset's ``bit_count()``."""
    if sigma < 1:
        raise InvalidThresholdError(f"sigma must be >= 1, got {sigma}")
    tidsets = _tidsets(db.transactions)
    found: dict[Itemset, int] = {}
    level: dict[Itemset, int] = {}
    for i, tids in tidsets.items():
        if (n := tids.bit_count()) < sigma:
            found[(i,)] = n
        else:
            level[(i,)] = tids
    while level:
        next_level = {}
        for prefix, members in groupby(sorted(level), key=lambda s: s[:-1]):
            lasts = [s[-1] for s in members]
            for k, a in enumerate(lasts):
                head = (*prefix, a)
                head_tids = level[head]
                for b in lasts[k + 1:]:
                    cand = (*head, b)
                    if prefix and not all(cand[:j] + cand[j + 1:] in level for j in range(len(prefix))):
                        continue
                    tids = head_tids & tidsets[b]
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
