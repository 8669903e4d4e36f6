"""Brute-force reference implementations and a reproducible synthetic
database generator.

The oracles are written directly from the definitions, with no shared code
paths with the tree miners, so equivalence tests against them are meaningful.
Guards make them refuse instances they cannot exhaust instead of silently
truncating.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING

from .data import (
    InvalidThresholdError,
    Itemset,
    TransactionDatabase,
    support,
)

if TYPE_CHECKING:
    from .mlms import ThresholdVector

_MASK64 = (1 << 64) - 1

MAX_ORACLE_FREQUENT_ITEMS = 25
MAX_ORACLE_TRANSACTION_LEN = 25


class OracleGuardError(ValueError):
    """Raised when an instance is too large for exhaustive reference mining."""


def mii_oracle(db: TransactionDatabase, sigma: int) -> set[Itemset]:
    """All minimally infrequent itemsets, straight from the definition.

    Infrequent single items qualify immediately. Larger itemsets are
    enumerated level-wise over extensions of frequent itemsets by frequent
    items; a candidate whose immediate subsets are all frequent has every
    proper subset frequent (support is anti-monotone), so it is an MII
    exactly when its own support is below the threshold.
    """
    if sigma < 1:
        raise InvalidThresholdError(f"sigma must be >= 1, got {sigma}")
    counts = {i: support(db, (i,)) for i in {i for t in db for i in t}}
    frequent_items = sorted(i for i, c in counts.items() if c >= sigma)
    if len(frequent_items) > MAX_ORACLE_FREQUENT_ITEMS:
        raise OracleGuardError(
            f"{len(frequent_items)} frequent items exceed the exhaustive-search "
            f"guard of {MAX_ORACLE_FREQUENT_ITEMS}"
        )
    miis: set[Itemset] = {(i,) for i, c in counts.items() if c < sigma}

    frequent_level: set[Itemset] = {(i,) for i in frequent_items}
    while frequent_level:
        candidates = {
            tuple(sorted(set(s) | {y}))
            for s in frequent_level
            for y in frequent_items
            if y not in s
        }
        next_level: set[Itemset] = set()
        for cand in sorted(candidates):
            if all(cand[:k] + cand[k + 1:] in frequent_level for k in range(len(cand))):
                if support(db, cand) < sigma:
                    miis.add(cand)
                else:
                    next_level.add(cand)
        frequent_level = next_level
    return miis


def mlms_oracle(db: TransactionDatabase, tv: ThresholdVector) -> set[Itemset]:
    """Frequent itemsets under per-length thresholds by checking the support
    of every itemset that occurs in at least one transaction.

    Enumerating each transaction's subsets counts every occurrence, so the
    tally per itemset is exactly its support. Zero-support itemsets never
    occur and can never qualify since every threshold is at least 1.
    """
    counts: dict[Itemset, int] = {}
    max_len = tv.max_length
    for tid, t in enumerate(db.transactions):
        if len(t) > MAX_ORACLE_TRANSACTION_LEN:
            raise OracleGuardError(
                f"transaction {tid} has {len(t)} items, over the "
                f"subset-enumeration guard of {MAX_ORACLE_TRANSACTION_LEN}"
            )
        for k in range(1, min(len(t), max_len) + 1):
            for sub in combinations(t, k):
                counts[sub] = counts.get(sub, 0) + 1
    return {s for s, c in counts.items() if c >= tv.sigma(len(s))}


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _xoshiro256starstar(seed: int) -> Iterator[int]:
    """The 64-bit outputs of xoshiro256** 1.0, seeded by expanding one 64-bit
    seed with splitmix64.

    The generator choice and draw order are part of the synthetic-data
    contract: given the same seed the byte-for-byte same databases must come
    out of any implementation.
    """
    s, s0 = _splitmix64(seed & _MASK64)
    s, s1 = _splitmix64(s)
    s, s2 = _splitmix64(s)
    s, s3 = _splitmix64(s)
    while True:
        x = (s1 * 5) & _MASK64
        yield ((x << 7 | x >> 57) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = (s3 << 45 | s3 >> 19) & _MASK64


@dataclass(frozen=True)
class SynthConfig:
    """Bernoulli transaction generator: each item lands in each transaction
    independently with probability ``density``."""

    num_items: int
    num_transactions: int
    density: float
    seed: int

    def __post_init__(self) -> None:
        if self.num_items < 1:
            raise ValueError(f"num_items must be positive, got {self.num_items}")
        if self.num_transactions < 1:
            raise ValueError(f"num_transactions must be positive, got {self.num_transactions}")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density must be in [0,1], got {self.density}")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


def gen_synthetic(cfg: SynthConfig) -> TransactionDatabase:
    """Generate a database as a pure function of the config.

    Draw order is item-major: for item id j = 0..num_items-1, then for
    transaction t = 0..num_transactions-1, one xoshiro256** value u is drawn
    and j joins transaction t iff the [0,1) double (u >> 11) * 2**-53 is
    strictly below ``density``. That product is exact, so the test is done
    on integers as u >> 11 < ceil(density * 2**53).
    """
    draws = _xoshiro256starstar(cfg.seed)
    cut = math.ceil(cfg.density * 2.0**53)
    members: list[list[int]] = [[] for _ in range(cfg.num_transactions)]
    for item in range(cfg.num_items):
        # members first: zip stops at the end of the rows before it takes a draw
        for row, u in zip(members, draws):
            if u >> 11 < cut:
                row.append(item)
    return TransactionDatabase.from_itemsets(members)
