import random

import pytest

from ifpmine import mlms as mlms_module
from ifpmine import (
    InvalidThresholdError,
    SynthConfig,
    ThresholdVector,
    TransactionDatabase,
    gen_synthetic,
    ifp_mlms,
    is_frequent_star,
    mine_mlms,
    mlms_oracle,
    parse_fimi,
    support,
)

from conftest import MLMS_EXPECTED, MLMS_SIGMAS, universe


def random_db(rng: random.Random, max_items=8, max_tx=25) -> TransactionDatabase:
    return gen_synthetic(
        SynthConfig(
            num_items=rng.randint(1, max_items),
            num_transactions=rng.randint(1, max_tx),
            density=rng.uniform(0.1, 0.7),
            seed=rng.getrandbits(64),
        )
    )


def random_tv(rng: random.Random) -> ThresholdVector:
    return ThresholdVector(tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 6))))


class TestThresholdVector:
    def test_zero_threshold_rejected(self):
        with pytest.raises(InvalidThresholdError):
            ThresholdVector((4, 0, 1))

    def test_empty_rejected(self):
        with pytest.raises(InvalidThresholdError):
            ThresholdVector(())

    def test_from_text(self):
        assert ThresholdVector.from_text("4,4,3,2,1", 6).sigmas == (4, 4, 3, 2, 1)
        assert ThresholdVector.from_text("10%,8%,5%", 100).sigmas == (10, 8, 5)
        assert ThresholdVector.from_text(" 4 , 2 ", 10).sigmas == (4, 2)

    @pytest.mark.parametrize(
        "text, position",
        [("4,,2", 2), ("4,2,", 3), (",4", 1), ("4, ,2", 2), ("", 1), ("4,2,,", 3)],
    )
    def test_empty_field_rejected_by_position(self, text, position):
        # Dropping the field would shift the later thresholds to shorter lengths.
        with pytest.raises(InvalidThresholdError, match=f"threshold {position} of "):
            ThresholdVector.from_text(text, 10)

    def test_non_monotone_allowed(self):
        tv = ThresholdVector((1, 5, 1))
        assert tv.sigma(2) == 5
        assert min(tv.sigmas) == 1


class TestIsFrequentStar:
    def test_length_one_no_prefix(self):
        assert is_frequent_star(1, 0, 4, ThresholdVector(MLMS_SIGMAS))

    def test_extended_length_threshold(self):
        # a 3-itemset under a length-1 prefix is tested against sigma_4 = 2
        assert not is_frequent_star(3, 1, 1, ThresholdVector(MLMS_SIGMAS))

    def test_beyond_configured_lengths_never_frequent(self):
        assert not is_frequent_star(2, 4, 10**9, ThresholdVector(MLMS_SIGMAS))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            is_frequent_star(0, 0, 1, ThresholdVector((1,)))


class TestIfpMlms:
    def test_worked_example(self, mlms_db):
        found = ifp_mlms(mlms_db, ThresholdVector(MLMS_SIGMAS))
        assert found == MLMS_EXPECTED

    def test_low_support_item_excluded_everywhere(self, mlms_db):
        found = ifp_mlms(mlms_db, ThresholdVector(MLMS_SIGMAS))
        assert all(1 not in s for s in found)  # item B has support 1 < sigma_1

    def test_empty_tree(self):
        assert ifp_mlms(parse_fimi(""), ThresholdVector((1, 1))) == {}


class TestMineMlms:
    def test_worked_example_with_supports(self, mlms_db):
        result = mine_mlms(mlms_db, ThresholdVector(MLMS_SIGMAS))
        assert dict(result.entries()) == MLMS_EXPECTED
        assert len(result.frequent) == 18

    def test_empty_db(self):
        result = mine_mlms(parse_fimi(""), ThresholdVector((1,)))
        assert result.frequent == ()

    def test_many_items(self):
        # 1100 items in pairs that never meet: the residual chain is 1100
        # trees long, far deeper than the interpreter's recursion limit.
        db = TransactionDatabase.from_itemsets([[i, i + 1] for i in range(0, 1100, 2)])
        tv = ThresholdVector((1, 1))
        result = mine_mlms(db, tv)
        assert set(result.frequent) == mlms_oracle(db, tv)
        assert len(result.frequent) == 1100 + 550

    def test_long_transactions(self):
        # Paths of 1200 nodes: every walk over them must stay iterative.
        db = TransactionDatabase.from_itemsets([range(1200), range(1, 1200)])
        assert mine_mlms(db, ThresholdVector((3,))).frequent == ()

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(909)
        for _ in range(30):
            db = random_db(rng)
            tv = random_tv(rng)
            assert set(mine_mlms(db, tv).frequent) == mlms_oracle(db, tv)

    def test_output_sound(self):
        rng = random.Random(910)
        for _ in range(20):
            db = random_db(rng)
            tv = random_tv(rng)
            result = mine_mlms(db, tv)
            for s in result.frequent:
                assert len(s) <= tv.max_length
                assert support(db, s) >= tv.sigma(len(s))
                assert result.supports[s] == support(db, s)


class TestNoDownwardClosure:
    def test_frequent_triple_with_infrequent_pairs(self):
        # One transaction carrying a triple; pairs fail sigma_2=5 but the
        # triple passes sigma_3=1 and must still be reported.
        db = TransactionDatabase.from_itemsets([[0, 1, 2]])
        tv = ThresholdVector((1, 5, 1))
        result = mine_mlms(db, tv)
        assert (0, 1, 2) in result.frequent
        assert all(len(s) != 2 for s in result.frequent)
        assert set(result.frequent) == mlms_oracle(db, tv)


class TestSigmaLowPruning:
    def test_no_projection_beyond_the_last_threshold(self, mlms_db, monkeypatch):
        # Under the prefix of any item every itemset has length >= 2, and a
        # vector of one threshold makes none of them frequent*.
        calls = []
        real = mlms_module.pending_projection

        def counting(tree, x, min_support=0):
            calls.append(x)
            return real(tree, x, min_support)

        monkeypatch.setattr(mlms_module, "pending_projection", counting)
        tv = ThresholdVector((1,))
        result = mine_mlms(mlms_db, tv)
        assert calls == []
        assert set(result.frequent) == mlms_oracle(mlms_db, tv)
        mine_mlms(mlms_db, tv, sigma_low_prune=False)
        assert calls

    def test_projections_drop_items_below_the_remaining_thresholds(self, mlms_db, monkeypatch):
        # Beyond its singletons, read from the supports, the tree holds itemsets
        # of lengths 2..3, so it is built at min(2, 3) = 2. Under the empty
        # prefix a projection holds itemsets of lengths 2..3, of which only
        # those of length 3 need its items to be in its order: its floor is 3.
        tree_floors, floors = [], []
        real_build, real_project = mlms_module.build_tree, mlms_module.pending_projection

        def recording_build(db, min_support=0):
            tree_floors.append(min_support)
            return real_build(db, min_support)

        def recording(tree, x, min_support=0):
            floors.append(min_support)
            return real_project(tree, x, min_support)

        monkeypatch.setattr(mlms_module, "build_tree", recording_build)
        monkeypatch.setattr(mlms_module, "pending_projection", recording)
        tv = ThresholdVector((1, 2, 3))
        for prune, want_tree, want in ((True, [2], {3}), (False, [0], {0})):
            tree_floors.clear()
            floors.clear()
            result = mine_mlms(mlms_db, tv, sigma_low_prune=prune)
            assert tree_floors == want_tree
            assert set(floors) == want
            assert set(result.frequent) == mlms_oracle(mlms_db, tv)

    def test_last_length_projections_are_read_not_built(self, mlms_db, monkeypatch):
        # Under the empty prefix the itemsets beyond the singletons are pairs,
        # of the last length: their supports are read from the tree's pair
        # table and no projection is made.
        calls = []
        real = mlms_module.pending_projection

        def counting(tree, x, min_support=0):
            calls.append(x)
            return real(tree, x, min_support)

        monkeypatch.setattr(mlms_module, "pending_projection", counting)
        tv = ThresholdVector((2, 2))
        result = mine_mlms(mlms_db, tv)
        assert calls == []
        assert set(result.frequent) == mlms_oracle(mlms_db, tv)
        unpruned = mine_mlms(mlms_db, tv, sigma_low_prune=False)
        assert calls
        assert set(unpruned.frequent) == mlms_oracle(mlms_db, tv)

    def test_only_the_top_tree_is_built_at_three_thresholds(self, mlms_db, monkeypatch):
        # At L = 3 the projections under the empty prefix hold singletons and
        # pairs, read from their supports and pair tables: none gets a node.
        built, made = [], []
        real_build, real_insert = mlms_module.build_tree, mlms_module.insert_pending

        def recording_build(db, min_support=0):
            tree = real_build(db, min_support)
            built.append(tree.node_count)  # before the split consumes it
            return tree

        def recording_insert(tree):
            made.append(real_insert(tree))
            return made[-1]

        monkeypatch.setattr(mlms_module, "build_tree", recording_build)
        monkeypatch.setattr(mlms_module, "insert_pending", recording_insert)
        tv = ThresholdVector((3, 2, 2))
        result = mine_mlms(mlms_db, tv)
        assert set(result.frequent) == mlms_oracle(mlms_db, tv)
        assert any(len(s) == 3 for s in result.frequent)
        assert len(built) == 1 and built[0] > 0
        assert sum(made) == 0
        made.clear()
        mine_mlms(mlms_db, tv, sigma_low_prune=False)
        assert sum(made) > 0

    def test_tree_is_built_at_the_least_threshold_beyond_the_first(self, monkeypatch):
        # Items 0-9 occur 9 times each, items 10-9999 only in the long
        # transaction. At (1, 3) those are frequent alone but in no frequent
        # pair, so the tree leaves them out and its paths stay 10 items long.
        db = TransactionDatabase.from_itemsets(
            [range(10**4)] + [[i % 10, (i + 3) % 10] for i in range(40)]
        )
        floors = []
        real = mlms_module.build_tree

        def recording(db, min_support=0):
            floors.append(min_support)
            return real(db, min_support)

        monkeypatch.setattr(mlms_module, "build_tree", recording)
        tv = ThresholdVector((1, 3))
        result = mine_mlms(db, tv)
        assert floors == [3]
        # The oracle's guard refuses the long transaction: cut it to items 0-9.
        cut = TransactionDatabase.from_itemsets([range(10)] + [t.items for t in db.transactions[1:]])
        expected = mlms_oracle(cut, tv) | {(i,) for i in range(10, 10**4)}
        assert set(result.frequent) == expected
        assert result.supports == {s: support(db, s) for s in expected}

    def test_lossless_on_random_instances(self):
        rng = random.Random(911)
        for _ in range(30):
            db = random_db(rng)
            tv = random_tv(rng)
            with_prune = mine_mlms(db, tv)
            without = mine_mlms(db, tv, sigma_low_prune=False)
            assert with_prune.frequent == without.frequent


def _projected_db(db, x):
    return TransactionDatabase.from_itemsets(
        [[i for i in t.items if i != x] for t in db if x in t.items]
    )


def _residual_db(db, x):
    return TransactionDatabase.from_itemsets([[i for i in t.items if i != x] for t in db])


class TestPrefixShiftTheorems:
    def test_projection_shifts_the_threshold_index(self):
        # S frequent* in the projection at prefix p+1 iff x+S frequent* in
        # the database at prefix p, via raw supports.
        rng = random.Random(912)
        for _ in range(40):
            db = random_db(rng)
            if not universe(db):
                continue
            tv = random_tv(rng)
            items = sorted(universe(db))
            x = rng.choice(items)
            proj = _projected_db(db, x)
            p = rng.randint(0, 3)
            others = [i for i in items if i != x]
            for _ in range(5):
                k = rng.randint(1, min(3, len(others)) if others else 1)
                if not others:
                    break
                s = tuple(sorted(rng.sample(others, min(k, len(others)))))
                left = is_frequent_star(len(s), p + 1, support(proj, s), tv)
                right = is_frequent_star(len(s) + 1, p, support(db, tuple(sorted((x, *s)))), tv)
                assert left == right

    def test_residual_preserves_frequency_star(self):
        rng = random.Random(913)
        for _ in range(40):
            db = random_db(rng)
            if not universe(db):
                continue
            tv = random_tv(rng)
            items = sorted(universe(db))
            x = rng.choice(items)
            resid = _residual_db(db, x)
            p = rng.randint(0, 3)
            others = [i for i in items if i != x]
            for _ in range(5):
                if not others:
                    break
                k = rng.randint(1, min(3, len(others)))
                s = tuple(sorted(rng.sample(others, k)))
                assert is_frequent_star(len(s), p, support(db, s), tv) == is_frequent_star(
                    len(s), p, support(resid, s), tv
                )
