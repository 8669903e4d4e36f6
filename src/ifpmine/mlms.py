"""Frequent itemset mining with one minimum support per itemset length.

A k-itemset is frequent when its support reaches the k-th threshold. The
thresholds need not be monotone, so the classic downward-closure pruning is
unavailable: a 3-itemset can be frequent while its 2-subsets are not.

The miner loops over ``split``, as the MII miner does: itemsets with the
least support item x come from x's projected tree, which it takes at x's
step of the chain and passes straight into its recursive call, and the
others from the residual tree, the chain's next step. Unlike ``ifp_min``,
it projects every x: its thresholds per length are not monotone. Itemsets
mined from the projected tree carry x as an implied prefix, so a k-itemset
found under a prefix of length p is tested against the threshold for
length k+p ("frequent*"). Each itemset length has one source. ``ifp_mlms``
reads the singletons from the database tree's supports, which keep every
item. Under a prefix of length p a tree's pairs have length p+2 and are
read from its pair table (see ``tree``) if p + 2 <= L, the last configured
length; longer itemsets come from projections, so a tree is split only
if p + 3 <= L. The database's tree, the projection of
the empty prefix, leaves out the items below min(σ₂..σ_L) (σ₁ when
L = 1), which are in no frequent* pair or longer itemset, and x's
projection, whose pairs and longer itemsets get lengths p+3..L, leaves out
the items below the least of those lengths' thresholds: the floor it is
projected at. ``sigma_low_prune=False`` turns off every one of these
prunings: each tree is made at floor 0 and split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .data import (
    InvalidThresholdError,
    Itemset,
    SupportThreshold,
    TransactionDatabase,
    _ResultRendering,
    in_result_order,
)
from .miners import unify
from .tree import IFPTree, build_tree, projected_tree, split


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


def _mlms_rec(tree: IFPTree, tv: ThresholdVector, p: int, prune: bool) -> dict[Itemset, int]:
    """``ifp_mlms``'s frequent* itemsets of two or more items under a prefix
    of length p, on a tree it consumes: its pairs, from its pair table, and
    the longer ones, from its projections, made only if p + 3 <= L or
    without ``prune``. With ``prune`` the tree holds no item below the least
    threshold of lengths p+2..L."""
    out = {}
    if p + 2 <= tv.max_length:  # else no pair table is counted
        sigma = tv.sigma(p + 2)
        for a, row in tree.pairs.items():
            out.update(((a, b) if a < b else (b, a), n) for b, n in row.items() if n >= sigma)
    if prune and p + 3 > tv.max_length:
        return out
    # x's projection gives the itemsets of lengths p+3..L: x joined with its pairs and longer ones.
    floor = min(tv.sigmas[p + 2:]) if prune else 0
    for x, step in split(tree):
        out.update(unify(x, _mlms_rec(projected_tree(step, floor), tv, p + 1, prune)))
    return out


def ifp_mlms(
    db: TransactionDatabase,
    tv: ThresholdVector,
    *,
    sigma_low_prune: bool = True,
) -> dict[Itemset, int]:
    """Frequent* itemsets of the database under the empty prefix, with their
    supports, mined on ``build_tree(db, floor)``, its tree without the items
    below min(σ₂..σ_L) (σ₁ when L = 1), which is split only when L > 2.
    The singletons are read here, from the tree's
    supports, which keep every item, so an item between σ₁ and that floor is
    still found; ``_mlms_rec`` gives the rest.

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
    tree = build_tree(db, floor)
    found = {(i,): n for i, n in tree.supports.items() if n >= tv.sigma(1)}  # before the tree is consumed
    found.update(_mlms_rec(tree, tv, 0, sigma_low_prune))
    return found


@dataclass(frozen=True)
class MLMSResult(_ResultRendering):
    frequent: tuple[Itemset, ...]
    supports: dict[Itemset, int] = field(compare=False)

    @property
    def _order(self) -> tuple[Itemset, ...]:
        return self.frequent


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
    )
