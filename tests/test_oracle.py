import math
import random
from functools import partial

import pytest

import ifpmine.data
import ifpmine.oracle
import ifpmine.tree
from ifpmine import (
    OracleGuardError,
    SynthConfig,
    ThresholdVector,
    TransactionDatabase,
    gen_synthetic,
    item_supports,
    mii_oracle,
    mlms_oracle,
    support,
    to_fimi,
)
from ifpmine.oracle import _splitmix64, _xoshiro256starstar

import conftest
from conftest import MII_EXPECTED, MLMS_EXPECTED, MLMS_SIGMAS

random_db = partial(conftest.random_db, max_items=8, max_tx=20, max_density=0.7)


class TestMiiOracle:
    def test_worked_example(self, mii_db):
        assert mii_oracle(mii_db, 2) == MII_EXPECTED

    def test_single_transaction_sigma_one(self):
        db = TransactionDatabase.from_itemsets([[0, 1]])
        assert mii_oracle(db, 1) == set()

    def test_zero_support_pair(self):
        db = TransactionDatabase.from_itemsets([[0], [1]])
        assert mii_oracle(db, 1) == {(0, 1)}

    def test_counts_singletons_without_the_miners_counter(self, mii_db, monkeypatch):
        # The oracle shares no counting with the miners: an off-by-one
        # ``item_supports``, the counter ``build_tree`` uses, leaves it alone.
        want = mii_oracle(mii_db, 2)

        def off_by_one(db):
            return {i: n + 1 for i, n in item_supports(db).items()}

        for module in (ifpmine.data, ifpmine.tree, ifpmine.oracle):
            monkeypatch.setattr(module, "item_supports", off_by_one, raising=False)
        assert mii_oracle(mii_db, 2) == want == MII_EXPECTED

    def test_guard_on_frequent_item_count(self):
        db = TransactionDatabase.from_itemsets([list(range(26))])
        with pytest.raises(OracleGuardError):
            mii_oracle(db, 1)

    def test_antichain_and_definition(self):
        rng = random.Random(21)
        for _ in range(25):
            db = random_db(rng)
            sigma = rng.randint(1, 4)
            miis = mii_oracle(db, sigma)
            for s in miis:
                assert support(db, s) < sigma
                for k in range(len(s)):
                    if len(s) > 1:
                        assert support(db, s[:k] + s[k + 1:]) >= sigma
            sets = [set(s) for s in miis]
            assert not any(a < b for a in sets for b in sets)

    def test_no_large_itemset_contains_infrequent_item(self):
        rng = random.Random(22)
        for _ in range(25):
            db = random_db(rng)
            sigma = rng.randint(1, 4)
            counts = item_supports(db)
            infrequent = {i for i, c in counts.items() if c < sigma}
            for s in mii_oracle(db, sigma):
                if len(s) >= 2:
                    assert not infrequent & set(s)


class TestMlmsOracle:
    def test_worked_example(self, mlms_db):
        assert mlms_oracle(mlms_db, ThresholdVector(MLMS_SIGMAS)) == set(MLMS_EXPECTED)

    def test_threshold_one_returns_all_items(self):
        db = TransactionDatabase.from_itemsets([[3, 5], [7]])
        assert mlms_oracle(db, ThresholdVector((1,))) == {(3,), (5,), (7,)}

    def test_non_monotone_vector(self):
        db = TransactionDatabase.from_itemsets([[0, 1, 2]])
        assert mlms_oracle(db, ThresholdVector((1, 5, 1))) == {(0,), (1,), (2,), (0, 1, 2)}

    def test_transaction_order_invariance(self):
        rng = random.Random(23)
        for _ in range(10):
            db = gen_synthetic(SynthConfig(6, 15, 0.4, rng.getrandbits(64)))
            tv = ThresholdVector(tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4))))
            rows = [list(t) for t in db]
            rng.shuffle(rows)
            shuffled = TransactionDatabase.from_itemsets(rows)
            assert mlms_oracle(db, tv) == mlms_oracle(shuffled, tv)

    def test_guard_on_transaction_length(self):
        db = TransactionDatabase.from_itemsets([list(range(26))])
        with pytest.raises(OracleGuardError):
            mlms_oracle(db, ThresholdVector((1,)))


class TestSplitmix64:
    def test_known_answer_for_seed_zero(self):
        # Reference stream of splitmix64 starting from state 0.
        state, outputs = 0, []
        for _ in range(4):
            state, z = _splitmix64(state)
            outputs.append(z)
        assert outputs == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]


class TestXoshiro:
    def test_stream_is_stable(self):
        # Frozen golden values pin the generator contract across releases.
        draws = _xoshiro256starstar(42)
        got = [next(draws) for _ in range(4)]
        assert got == [
            0x15780B2E0C2EC716,
            0x6104D9866D113A7E,
            0xAE17533239E499A1,
            0xECB8AD4703B360A1,
        ]


class TestGenSynthetic:
    def test_density_zero(self):
        db = gen_synthetic(SynthConfig(5, 10, 0.0, 1))
        assert all(t == () for t in db)

    def test_density_one(self):
        db = gen_synthetic(SynthConfig(5, 10, 1.0, 1))
        assert all(t == (0, 1, 2, 3, 4) for t in db)

    def test_supports_within_binomial_band(self):
        db = gen_synthetic(SynthConfig(10, 1000, 0.3, 42))
        counts = item_supports(db)
        assert len(counts) == 10
        assert all(230 <= c <= 370 for c in counts.values())

    def test_reproducible(self):
        cfg = SynthConfig(8, 50, 0.35, 123456789)
        assert to_fimi(gen_synthetic(cfg)) == to_fimi(gen_synthetic(cfg))

    def test_golden_first_transactions(self):
        # Pins the item-major draw order.
        db = gen_synthetic(SynthConfig(4, 6, 0.5, 0))
        assert list(db) == [
            (1, 2), (3,), (0, 2, 3), (0, 2, 3), (1, 3), (1, 2),
        ]

    @pytest.mark.parametrize("density", [0.3, 0.5, 2.0**-53, 1 - 2.0**-53])
    def test_integer_cut_matches_the_float_rule(self, density, monkeypatch):
        # u joins a row iff its top 53 bits v give v * 2**-53 < density;
        # the draws straddle the integer cut ceil(density * 2**53).
        cut = math.ceil(density * 2.0**53)
        values = [0, cut - 1, cut, 2**53 - 1]
        monkeypatch.setattr(ifpmine.oracle, "_xoshiro256starstar", lambda seed: iter([v << 11 for v in values]))
        db = gen_synthetic(SynthConfig(1, len(values), density, 0))
        assert [t == (0,) for t in db] == [v * 2.0**-53 < density for v in values]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(0, 5, 0.5, 1)
        with pytest.raises(ValueError):
            SynthConfig(5, 0, 0.5, 1)
        with pytest.raises(ValueError):
            SynthConfig(5, 5, 1.5, 1)
        with pytest.raises(ValueError):
            SynthConfig(5, 5, 0.5, -1)
