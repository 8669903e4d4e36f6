"""Property tests: the miners agree with the brute-force oracles on generated
databases. Every database stays inside the oracles' guards
(``MAX_ORACLE_FREQUENT_ITEMS`` frequent items, ``MAX_ORACLE_TRANSACTION_LEN``
items per transaction), and the runs are derandomized, so they repeat."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ifpmine import (
    ThresholdVector,
    TransactionDatabase,
    apriori_min,
    build_tree,
    ifp_min,
    mii_oracle,
    mine_mlms,
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

assert NUM_ITEMS <= MAX_ORACLE_FREQUENT_ITEMS


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
