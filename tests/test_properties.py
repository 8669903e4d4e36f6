"""Property tests: the miners agree with the brute-force oracles on generated
databases, and the tree layer agrees with trees rebuilt from the databases
its operations stand for. Every database stays inside the oracles' guards
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
    item_supports,
    lf_item,
    mii_oracle,
    mine_mlms,
    mine_mii,
    mlms_oracle,
    projected_tree,
    residual_tree,
    support,
    tree_support,
)
from ifpmine.oracle import MAX_ORACLE_FREQUENT_ITEMS, MAX_ORACLE_TRANSACTION_LEN
from ifpmine.tree import insert_pending, pending_projection, split

NUM_ITEMS = 20

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
    for result in (ifp_min(db, sigma), apriori_min(db, sigma)):
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


# Ids NUM_ITEMS and NUM_ITEMS + 1 occur in no database.
itemsets = st.lists(st.lists(st.integers(0, NUM_ITEMS + 1), max_size=5), max_size=6)


def _rebuilt(rows, keep) -> TransactionDatabase:
    return TransactionDatabase.from_itemsets([[i for i in r if keep(i)] for r in rows])


def _assert_same_tree(tree, db: TransactionDatabase) -> None:
    rebuilt = build_tree(db)
    assert tree.dump() == rebuilt.dump()
    assert tree.order == rebuilt.order
    assert tree.node_count == rebuilt.node_count
    assert tree.num_transactions == rebuilt.num_transactions
    _assert_pair_table(tree, db)


def _assert_pair_table(tree, db: TransactionDatabase) -> None:
    """The tree's pair table holds the database's support of each pair of
    its items that occurs, under the item that comes first in its order."""
    want = {}
    for k, a in enumerate(tree.order):
        row = {b: n for b in tree.order[k + 1:] if (n := support(db, (a, b)))}
        if row:
            want[a] = row
    assert tree.pairs == want


@PROPERTY
@given(db=databases, data=st.data())
def test_tree_layer_matches_rebuilt_trees(db, data):
    tree = build_tree(db)
    rows = [t.items for t in db.transactions]
    db_supports = item_supports(db)
    for s in data.draw(itemsets, label="itemsets"):
        assert tree_support(tree, s) == support(db, s)

    floor = data.draw(st.integers(0, len(db) + 1), label="floor")
    pruned = build_tree(db, floor)
    _assert_same_tree(pruned, _rebuilt(rows, lambda i: db_supports[i] >= floor))
    assert pruned.supports == db_supports
    # Each step of the chain drops its lf-item's row; the other pairs keep their supports.
    chain = build_tree(db, floor)
    for x, t in split(chain):
        _assert_pair_table(t, db)
    _assert_pair_table(chain, db)
    # A table first read after some steps is counted from the residual's nodes.
    late = data.draw(st.integers(0, len(pruned.order)), label="first read")
    for k, (x, t) in enumerate(split(build_tree(db, floor))):
        if k >= late:
            _assert_pair_table(t, db)
    if tree.is_empty():
        return

    x = lf_item(tree)
    resid = residual_tree(tree, x)
    _assert_same_tree(resid, without_x := _rebuilt(rows, lambda i: i != x))
    assert resid.supports == item_supports(without_x)

    proj_rows = [[i for i in r if i != x] for r in rows if x in r]
    proj_supports = item_supports(TransactionDatabase.from_itemsets(proj_rows))
    m = data.draw(st.integers(0, db_supports[x] + 1), label="projection floor")
    proj = projected_tree(tree, x, m)
    kept = _rebuilt(proj_rows, lambda i: proj_supports[i] >= m)
    _assert_same_tree(proj, kept)
    # The table of a projection whose nodes are pending is counted from its paths.
    pending = pending_projection(tree, x, m)
    _assert_pair_table(pending, kept)
    assert pending.node_count == 0
    assert insert_pending(pending) == proj.node_count
    _assert_same_tree(pending, kept)
    assert proj.supports == proj_supports
    assert projected_tree(tree, x).supports == proj_supports
    for s in data.draw(itemsets, label="projected itemsets"):
        assert tree_support(proj, s) == support(kept, s)


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
