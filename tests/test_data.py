import random
import re
from collections import Counter

import pytest

from ifpmine import (
    FimiParseError,
    InvalidThresholdError,
    SupportThreshold,
    TransactionDatabase,
    SynthConfig,
    build_tree,
    canonical_itemset,
    gen_synthetic,
    item_supports,
    parse_fimi,
    support,
    to_fimi,
    tree_support,
)

from conftest import decompress, universe


def random_db(rng: random.Random, max_items=8, max_tx=25) -> TransactionDatabase:
    cfg = SynthConfig(
        num_items=rng.randint(1, max_items),
        num_transactions=rng.randint(1, max_tx),
        density=rng.uniform(0.1, 0.8),
        seed=rng.getrandbits(64),
    )
    return gen_synthetic(cfg)


class TestParseFimi:
    def test_two_lines(self):
        db = parse_fimi("5 6\n1 2 3\n")
        assert list(db) == [(5, 6), (1, 2, 3)]

    def test_empty_input(self):
        db = parse_fimi("")
        assert len(db) == 0
        assert universe(db) == frozenset()

    def test_nine_transaction_example(self, mii_db):
        text = to_fimi(mii_db)
        db = parse_fimi(text)
        assert len(db) == 9
        assert len(universe(db)) == 6

    def test_blank_lines_become_empty_transactions(self):
        db = parse_fimi("1 2\n\n3\n")
        assert list(db) == [(1, 2), (), (3,)]

    def test_duplicates_collapse(self):
        db = parse_fimi("3 1 3 3 2\n")
        assert db.transactions[0] == (1, 2, 3)

    def test_non_integer_token(self):
        with pytest.raises(FimiParseError, match="line 2"):
            parse_fimi("1 2\n3 x\n")

    def test_negative_item(self):
        with pytest.raises(FimiParseError, match="line 1: negative item id -4"):
            parse_fimi("1 -4\n")

    @pytest.mark.parametrize("tok", ["1_0", "+2", "\u0663", "\u00b2", "1.0", "0x1", "1e3", "-", "-\u00b2"])
    def test_only_ascii_decimal_digits(self, tok):
        # int() takes the first three; FIMI ids are plain decimal numbers.
        with pytest.raises(FimiParseError, match=re.escape(f"line 2: non-integer token {tok!r}")):
            parse_fimi(f"1\n3 {tok} 4\n")

    def test_leading_zeros_and_huge_ids(self):
        db = parse_fimi("007 18446744073709551616\n")
        assert db.transactions[0] == (7, 2**64)

    def test_id_longer_than_the_int_digit_limit(self, int_digit_limit):
        tok = "1" * (int_digit_limit + 1)
        msg = f"line 2: item id 1111111111... has {len(tok)} digits"
        with pytest.raises(FimiParseError, match=re.escape(msg)):
            parse_fimi(f"1\n3 {tok}\n")

    def test_roundtrip_identity(self):
        rng = random.Random(42)
        for _ in range(20):
            db = random_db(rng)
            again = parse_fimi(to_fimi(db))
            assert list(again) == list(db)


class TestSupport:
    def test_pair_bd(self, mii_db):
        assert support(mii_db, (1, 3)) == 1

    def test_pair_ae_zero(self, mii_db):
        assert support(mii_db, (0, 4)) == 0

    def test_empty_itemset(self, mii_db):
        assert support(mii_db, ()) == len(mii_db)

    def test_item_outside_universe(self, mii_db):
        assert support(mii_db, (99,)) == 0

    def test_anti_monotone(self):
        rng = random.Random(7)
        for _ in range(30):
            db = random_db(rng)
            items = sorted(universe(db))
            if not items:
                continue
            big = tuple(sorted(rng.sample(items, rng.randint(1, min(4, len(items))))))
            for k in range(len(big)):
                small = big[:k]
                assert support(db, small) >= support(db, big)


class TestIflistOrder:
    """A database's i-flist order is the order of its tree."""

    def test_mlms_example(self, mlms_db):
        # B, A, D, T, W, C: supports 1, 4, 4, 4, 5, 6 with id tie-break
        assert build_tree(mlms_db).order == (1, 0, 3, 4, 5, 2)

    def test_mii_example(self, mii_db):
        # F first (support 1); the rest tie at 4 and order by id
        assert build_tree(mii_db).order == (5, 0, 1, 2, 3, 4)

    def test_single_item(self):
        db = TransactionDatabase.from_itemsets([[9]])
        assert build_tree(db).order == (9,)

    def test_permutation_and_nondecreasing(self):
        rng = random.Random(11)
        for _ in range(30):
            db = random_db(rng)
            order = build_tree(db).order
            assert sorted(order) == sorted(universe(db))
            counts = item_supports(db)
            supports_in_order = [counts[i] for i in order]
            assert supports_in_order == sorted(supports_in_order)


def _transactions(tree) -> Counter:
    """The nonempty transactions a tree represents, as canonical itemsets."""
    return Counter({canonical_itemset(s): n for s, n in decompress(tree)})


class TestPruneInfrequentItems:
    """Items below sigma are pruned where the tree is built: ``build_tree(db,
    sigma)`` represents the database without them, and its ``supports``
    keep theirs."""

    def test_removes_f(self, mii_db):
        tree = build_tree(mii_db, 2)
        assert [(i, n) for i, n in tree.supports.items() if i not in tree.order] == [(5, 1)]
        assert _transactions(tree)[(4,)] == 1  # F E, without F
        assert tree.num_transactions == len(mii_db)

    def test_sigma_zero_is_identity(self, mii_db):
        tree = build_tree(mii_db, 0)
        assert set(tree.order) == set(tree.supports)
        assert _transactions(tree) == Counter(mii_db)

    def test_all_items_pruned(self):
        db = TransactionDatabase.from_itemsets([[1], [2]])
        tree = build_tree(db, 2)
        assert not tree.order and tree.num_transactions == 2
        assert tree.order == () and tree.supports == {1: 1, 2: 1}

    def test_support_preserved_for_untouched_itemsets(self):
        rng = random.Random(3)
        for _ in range(20):
            db = random_db(rng)
            if not universe(db):
                continue
            sigma = rng.randint(1, 4)
            tree = build_tree(db, sigma)
            counts = item_supports(db)
            survivors = sorted(i for i in universe(db) if counts[i] >= sigma)
            assert survivors == sorted(tree.order)
            for _ in range(5):
                k = rng.randint(0, min(3, len(survivors)))
                s = tuple(sorted(rng.sample(survivors, k)))
                assert support(db, s) == tree_support(tree, s)


class TestSupportThreshold:
    def test_absolute(self):
        assert SupportThreshold.parse("3").resolve(100) == 3

    def test_percent_ceil(self):
        assert SupportThreshold.parse("30%").resolve(10000) == 3000
        assert SupportThreshold.parse("25%").resolve(9) == 3  # ceil(2.25)
        # Exact products that a binary float pushes just above an integer.
        cases = {
            100: {7: 7, 14: 14, 28: 28, 55: 55, 56: 56},
            200: {7: 14, 14: 28, 28: 56, 55: 110, 56: 112},
            600: {7: 42, 14: 84, 17: 102, 28: 168, 34: 204, 56: 336, 68: 408, 81: 486},
            10000: {7: 700, 14: 1400, 17: 1700, 28: 2800, 34: 3400, 56: 5600, 68: 6800, 81: 8100},
        }
        for n, by_pct in cases.items():
            for pct, sigma in by_pct.items():
                assert SupportThreshold.parse(f"{pct}%").resolve(n) == sigma, (pct, n)
        assert SupportThreshold.parse("12.5%").resolve(100) == 13

    def test_bad_values(self):
        with pytest.raises(InvalidThresholdError):
            SupportThreshold.parse("abc")
        with pytest.raises(InvalidThresholdError):
            SupportThreshold.parse("150%")
        for text in ("nan%", "inf%", "-inf%", "1/0%", "1/2%", "1e999999999%",
                     "+1", "1_0", "\u0663", "1 0", "", "1_0%", "\u0663%"):
            with pytest.raises(InvalidThresholdError):
                SupportThreshold.parse(text)
        assert SupportThreshold.parse("1e-999999999%").resolve(100) == 0

    def test_count_longer_than_the_int_digit_limit(self, int_digit_limit):
        text = "1" * (int_digit_limit + 1)
        msg = f"bad threshold: 1111111111... has {len(text)} digits"
        with pytest.raises(InvalidThresholdError, match=re.escape(msg)):
            SupportThreshold.parse(text)
        with pytest.raises(InvalidThresholdError):
            SupportThreshold("absolute", -1)
        with pytest.raises(InvalidThresholdError, match="unknown threshold kind: 'percent'"):
            SupportThreshold("percent", 1)


def test_canonical_itemset():
    assert canonical_itemset([3, 1, 3, 2]) == (1, 2, 3)
    assert canonical_itemset([]) == ()
