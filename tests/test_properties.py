"""Property tests: the miners agree with the brute-force oracles on generated
databases. Every database stays inside the oracles' guards
(``MAX_ORACLE_FREQUENT_ITEMS`` frequent items, ``MAX_ORACLE_TRANSACTION_LEN``
items per transaction), and the runs are derandomized, so they repeat."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ifpmine.miners
from ifpmine import (
    ThresholdVector,
    TransactionDatabase,
    apriori_min,
    build_tree,
    ifp_min,
    mii_oracle,
    mine_mlms,
    mine_mii,
    mlms_oracle,
    support,
)
from ifpmine.oracle import MAX_ORACLE_FREQUENT_ITEMS, MAX_ORACLE_TRANSACTION_LEN

NUM_ITEMS = 14

databases = st.lists(
    st.lists(st.integers(0, NUM_ITEMS - 1), max_size=MAX_ORACLE_TRANSACTION_LEN),
    max_size=30,
).map(TransactionDatabase.from_itemsets)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

WIDE_ITEMS = 20

assert max(NUM_ITEMS, WIDE_ITEMS) <= min(MAX_ORACLE_FREQUENT_ITEMS, MAX_ORACLE_TRANSACTION_LEN)


@PROPERTY
@given(db=databases, data=st.data())
def test_mii_miners_agree_with_oracle(db, data):
    sigma = data.draw(st.integers(1, len(db) + 1), label="sigma")
    want = mii_oracle(db, sigma)
    for result in (ifp_min(build_tree(db), sigma), apriori_min(db, sigma)):
        assert set(result.miis) == want
        assert result.supports == {s: support(db, s) for s in want}


@PROPERTY
@given(db=databases, data=st.data())
def test_mlms_agrees_with_oracle_on_non_monotone_thresholds(db, data):
    sigmas = data.draw(
        st.lists(st.integers(1, len(db) + 1), min_size=1, max_size=6), label="sigmas"
    )
    tv = ThresholdVector(tuple(sigmas))
    want = mlms_oracle(db, tv)
    for prune in (True, False):
        result = mine_mlms(db, tv, sigma_low_prune=prune)
        assert set(result.frequent) == want
        assert result.supports == {s: support(db, s) for s in want}


def _wide_database(rng: random.Random) -> TransactionDatabase:
    """65-300 transactions over ``WIDE_ITEMS`` items of frequencies 0.05-0.6,
    so a tidset can span more than one 64-bit word."""
    freqs = [rng.uniform(0.05, 0.6) for _ in range(WIDE_ITEMS)]
    rows = [
        [i for i, f in enumerate(freqs) if rng.random() < f]
        for _ in range(rng.randint(65, 300))
    ]
    return TransactionDatabase.from_itemsets(rows)


@pytest.mark.parametrize("seed", range(6))
def test_apriori_tidsets_wider_than_a_machine_word(seed):
    rng = random.Random(seed)
    db = _wide_database(rng)
    for sigma in sorted(rng.sample(range(1, len(db) // 2), 4)):
        want = mii_oracle(db, sigma)
        result = apriori_min(db, sigma)
        assert set(result.miis) == want
        assert result.supports == {s: support(db, s) for s in want}


def test_apriori_does_not_scan_the_database(monkeypatch):
    db = _wide_database(random.Random(99))
    sigma = len(db) // 10
    want = mii_oracle(db, sigma)
    supports = {s: support(db, s) for s in want}

    def scan(db, s):
        raise AssertionError("apriori_min scanned the database")

    monkeypatch.setattr(ifpmine.miners, "support", scan)
    for result in (apriori_min(db, sigma), mine_mii(db, sigma, algorithm="apriori")):
        assert set(result.miis) == want
        assert result.supports == supports
