"""Mining minimally infrequent itemsets: itemsets below the support threshold
whose every proper subset is frequent.

Two miners produce identical output:

* ``ifp_min`` recurses over the tree, splitting on the least frequent item x
  into the residual tree (database without x) and the projected tree
  (transactions containing x, without x). MIIs not containing x are exactly
  the MIIs of the residual database; MIIs containing x are x joined with
  itemsets minimally infrequent in the projected database but not in the
  residual one, plus the zero-support pairs of x with frequent items that
  never co-occur with it.
* ``apriori_min`` is level-wise candidate generation where the rejected
  candidates are the MIIs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .data import (
    InvalidThresholdError,
    Itemset,
    TransactionDatabase,
    canonical_itemset,
    item_supports,
    itemset_sort_key,
    itemsets_json,
    render_itemset_lines,
    support,
)
from .tree import (
    IFPTree,
    _build_weighted,
    build_tree,
    decompress,
    lf_item,
    projected_tree,
    residual_tree,
    tree_items,
)


class MiningStats:
    """Peak count of tree nodes simultaneously alive during a mining run.

    A deterministic memory proxy for benchmarking; miners that build no trees
    leave it at zero.
    """

    __slots__ = ("live_nodes", "peak_nodes")

    def __init__(self) -> None:
        self.live_nodes = 0
        self.peak_nodes = 0

    def push(self, nodes: int) -> None:
        self.live_nodes += nodes
        if self.live_nodes > self.peak_nodes:
            self.peak_nodes = self.live_nodes

    def pop(self, nodes: int) -> None:
        self.live_nodes -= nodes


@dataclass(frozen=True)
class MIIResult:
    """Deterministically ordered minimally infrequent itemsets of one run."""

    miis: tuple[Itemset, ...]
    supports: dict[Itemset, int] = field(compare=False)
    sigma: int = 0
    algorithm: str = field(default="", compare=False)
    elapsed: float = field(default=0.0, compare=False)

    def entries(self) -> list[tuple[Itemset, int]]:
        return [(s, self.supports[s]) for s in self.miis]

    def to_text(self, labels: dict[int, str] | None = None) -> str:
        return render_itemset_lines(self.entries(), labels)

    def to_json(self) -> str:
        return itemsets_json(self.entries())


def unify(x: int, sets: dict[Itemset, int]) -> dict[Itemset, int]:
    """Dot-operation: include x in every member of the collection, keeping
    each member's value. An empty collection stays empty."""
    return {canonical_itemset((x, *s)): n for s, n in sets.items()}


def _split_infrequent(tree: IFPTree, sigma: int) -> tuple[dict[Itemset, int], IFPTree]:
    """Collect the infrequent 1-itemsets of the tree with their supports and
    rebuild it over the database with those items removed."""
    infrequent = {(i,): tree.supports[i] for i in tree.order if tree.supports[i] < sigma}
    if not infrequent:
        return {}, tree
    bad = {i for (i,) in infrequent}
    weighted = [
        (tuple(i for i in s if i not in bad), w) for s, w in decompress(tree)
    ]
    return infrequent, _build_weighted(weighted, tree.num_transactions)


def _mii_rec(tree: IFPTree, sigma: int, stats: MiningStats) -> dict[Itemset, int]:
    """MIIs of the tree with their supports in it. Pruning items leaves the
    other itemsets' supports alone, the residual tree keeps those of the
    itemsets without x, and supp(x + s) here is supp(s) in x's projection."""
    result, t = _split_infrequent(tree, sigma)
    pruned_nodes = t.node_count if t is not tree else 0
    stats.push(pruned_nodes)
    try:
        if t.is_empty():
            return result
        x = lf_item(t)
        proj = projected_tree(t, x)
        resid = residual_tree(t, x)
        stats.push(proj.node_count + resid.node_count)
        try:
            s_r = _mii_rec(resid, sigma, stats)
            s_p = _mii_rec(proj, sigma, stats)
            zero_pair_items = tree_items(resid) - tree_items(proj)
        finally:
            stats.pop(proj.node_count + resid.node_count)

        result.update(s_r)
        result.update(unify(x, {s: n for s, n in s_p.items() if s not in s_r}))
        result.update(unify(x, {(y,): 0 for y in zero_pair_items}))
        return result
    finally:
        stats.pop(pruned_nodes)


def ifp_min(tree: IFPTree, sigma: int, stats: MiningStats | None = None) -> MIIResult:
    """Mine all minimally infrequent itemsets of the database the tree
    represents, at absolute threshold ``sigma`` (>= 1)."""
    if sigma < 1:
        raise InvalidThresholdError(f"sigma must be >= 1, got {sigma}")
    if stats is None:
        stats = MiningStats()
    start = time.perf_counter()
    stats.push(tree.node_count)
    try:
        found = _mii_rec(tree, sigma, stats)
    finally:
        stats.pop(tree.node_count)
    return MIIResult(
        miis=tuple(sorted(found, key=itemset_sort_key)),
        supports=found,
        sigma=sigma,
        algorithm="ifp",
        elapsed=time.perf_counter() - start,
    )


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
    proposes itemsets whose immediate subsets are all frequent."""
    if sigma < 1:
        raise InvalidThresholdError(f"sigma must be >= 1, got {sigma}")
    start = time.perf_counter()
    counts = item_supports(db)
    found: set[Itemset] = {(i,) for i, c in counts.items() if c < sigma}
    level: list[Itemset] = sorted((i,) for i, c in counts.items() if c >= sigma)
    while level:
        next_level = []
        for cand in _apriori_candidates(level):
            if support(db, cand) < sigma:
                found.add(cand)
            else:
                next_level.append(cand)
        level = next_level
    ordered = tuple(sorted(found, key=itemset_sort_key))
    supports = {s: support(db, s) for s in ordered}
    return MIIResult(
        miis=ordered,
        supports=supports,
        sigma=sigma,
        algorithm="apriori",
        elapsed=time.perf_counter() - start,
    )


def mine_mii(
    db: TransactionDatabase,
    sigma: int,
    algorithm: str = "ifp",
    stats: MiningStats | None = None,
) -> MIIResult:
    """Run the selected MII miner over a database. ``oracle`` selects the
    brute-force reference implementation."""
    if algorithm == "ifp":
        return ifp_min(build_tree(db), sigma, stats=stats)
    if algorithm == "apriori":
        return apriori_min(db, sigma)
    if algorithm == "oracle":
        from .oracle import mii_oracle

        start = time.perf_counter()
        found = mii_oracle(db, sigma)
        ordered = tuple(sorted(found, key=itemset_sort_key))
        return MIIResult(
            miis=ordered,
            supports={s: support(db, s) for s in ordered},
            sigma=sigma,
            algorithm="oracle",
            elapsed=time.perf_counter() - start,
        )
    raise ValueError(f"unknown algorithm: {algorithm!r}")
