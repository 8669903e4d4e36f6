"""Frequent itemset mining with one minimum support per itemset length.

A k-itemset is frequent when its support reaches the k-th threshold. The
thresholds need not be monotone, so the classic downward-closure pruning is
unavailable: a 3-itemset can be frequent while its 2-subsets are not.

The miner walks the residual chain with the MII miner's ``split``: itemsets
with the least support item x come from x's projected tree, the others from
the residual tree, the chain's next step. Itemsets mined from the projected
tree carry x as an implied prefix, so a k-itemset found under a prefix of
length p is tested against the threshold for length k+p ("frequent*").
Under a prefix of length p a tree's singletons have length p+1 and are read
from its supports, which keep every item; its pairs have length p+2 and are
read from its pair table (see ``tree``), with no projection made. Only
itemsets of three items or more need the tree split, so it is split, and
its nodes inserted, only when p + 2 < L, the last configured length: longer
itemsets are never frequent*. The tree the miner builds from the database
leaves out the items below min(σ₂..σ_L) (σ₁ when L = 1), which are in no
frequent* pair or longer itemset, and x's projection, whose pairs and
longer itemsets get lengths p+3..L, leaves out the items below the least of
those lengths' thresholds. Its supports, row x of the pair table, keep the
items it leaves out. ``sigma_low_prune=False`` turns off every one of these
prunings: each tree is built at floor 0 and split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .data import (
    InvalidThresholdError,
    Itemset,
    SupportThreshold,
    TransactionDatabase,
    in_result_order,
    itemsets_json,
    render_itemset_lines,
)
from .miners import unify
from .tree import IFPTree, build_tree, insert_pending, pending_projection, split


@dataclass(frozen=True)
class ThresholdVector:
    """Resolved absolute minimum supports, indexed by itemset length 1..L."""

    sigmas: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sigmas:
            raise InvalidThresholdError("threshold vector must not be empty")
        for k, s in enumerate(self.sigmas, start=1):
            if s < 1:
                raise InvalidThresholdError(f"sigma_{k} must be >= 1, got {s}")

    @classmethod
    def from_text(cls, text: str, num_transactions: int) -> "ThresholdVector":
        """Parse a comma-separated list of absolute counts or percentages,
        e.g. ``"4,4,3,2,1"`` or ``"10%,8%,5%"``. The list length defines L.
        An empty field, as in ``"4,,2"``, is an error, not skipped."""
        parts = text.split(",")
        for k, p in enumerate(parts, start=1):
            if not p.strip():
                raise InvalidThresholdError(f"threshold {k} of {len(parts)} is empty in {text!r}")
        return cls(tuple(SupportThreshold.parse(p).resolve(num_transactions) for p in parts))

    @property
    def max_length(self) -> int:
        return len(self.sigmas)

    def sigma(self, length: int) -> int:
        return self.sigmas[length - 1]


def is_frequent_star(k: int, p: int, supp: int, tv: ThresholdVector) -> bool:
    """Whether a k-itemset with the given support, found under a prefix of
    length p, is frequent for its extended length k+p. Lengths beyond the
    vector have no threshold and are never frequent."""
    if k < 1 or p < 0:
        raise ValueError(f"need k >= 1 and p >= 0, got k={k}, p={p}")
    total = k + p
    return total <= tv.max_length and supp >= tv.sigma(total)


def _mlms_rec(tree: IFPTree, tv: ThresholdVector, p: int, prune: bool) -> dict[Itemset, int]:
    """``ifp_mlms`` under a prefix of length p on a tree it consumes, whose
    pending paths get nodes only if it is split. With ``prune`` the tree
    holds no item below the least threshold of lengths p+2..L: no item that
    can be in one of its frequent* itemsets beyond the singletons."""
    # Singletons are read from the supports, which keep every item.
    out = {(i,): n for i, n in tree.supports.items() if is_frequent_star(1, p, n, tv)}
    if prune and p + 2 >= tv.max_length:
        # Nothing longer than its pairs, of length p + 2, can be frequent*.
        if p + 2 == tv.max_length:
            sigma = tv.sigma(p + 2)
            for a, row in tree.pairs.items():
                out.update(((a, b) if a < b else (b, a), n) for b, n in row.items() if n >= sigma)
        return out
    insert_pending(tree)
    # x's projection holds the itemsets of lengths p+2..L: lengths p+3..L beyond its singletons.
    floor = min(tv.sigmas[p + 2:]) if prune else 0
    for x, t in split(tree):
        out.update(unify(x, _mlms_rec(pending_projection(t, x, floor), tv, p + 1, prune)))
    return out


def ifp_mlms(
    db: TransactionDatabase,
    tv: ThresholdVector,
    *,
    sigma_low_prune: bool = True,
) -> dict[Itemset, int]:
    """Frequent* itemsets of the database under the empty prefix, with their
    supports, mined on a tree built without the items below min(σ₂..σ_L)
    (σ₁ when L = 1). The singletons come from the tree's supports, which
    keep every item, so an item between σ₁ and that floor is still found.

    Each step takes the lf-item x of the residual chain: supp(x + s) in the
    tree is supp(s) in x's projection, and the residual tree keeps the
    supports of every itemset without x. ``sigma_low_prune=False`` disables
    every skip of a projection and every item dropped from a tree; it never
    changes the result, only the work, which can grow exponentially in the
    transaction length: two identical n-item transactions at ``(2, 2)`` make
    2^n - 1 projections, none with pruning, and every tree on the recursion
    stack keeps its pair table of up to n(n - 1)/2 entries. The CLI always
    prunes.
    """
    floor = min(tv.sigmas[1:] or tv.sigmas) if sigma_low_prune else 0
    return _mlms_rec(build_tree(db, floor), tv, 0, sigma_low_prune)


@dataclass(frozen=True)
class MLMSResult:
    frequent: tuple[Itemset, ...]
    supports: dict[Itemset, int] = field(compare=False)
    thresholds: ThresholdVector | None = field(default=None, compare=False)

    def entries(self) -> list[tuple[Itemset, int]]:
        return [(s, self.supports[s]) for s in self.frequent]

    def to_text(self, labels: dict[int, str] | None = None) -> str:
        return render_itemset_lines(self.entries(), labels)

    def to_json(self) -> str:
        return itemsets_json(self.entries())


def mine_mlms(
    db: TransactionDatabase,
    tv: ThresholdVector,
    *,
    sigma_low_prune: bool = True,
) -> MLMSResult:
    """Mine the database under the empty prefix; the miner returns each
    itemset's support along with it. ``sigma_low_prune=False`` leaves the
    result alone but can make the work exponential in the transaction
    length; see ``ifp_mlms``."""
    found = ifp_mlms(db, tv, sigma_low_prune=sigma_low_prune)
    return MLMSResult(
        frequent=in_result_order(found),
        supports=found,
        thresholds=tv,
    )
