import random
from functools import partial

import pytest

from ifpmine import mlms as mlms_module
from ifpmine import tree as tree_module
from ifpmine import (
    InvalidThresholdError,
    SynthConfig,
    ThresholdVector,
    TransactionDatabase,
    gen_synthetic,
    ifp_mlms,
    mine_mlms,
    mlms_oracle,
    parse_fimi,
    support,
)

import conftest
from conftest import MLMS_EXPECTED, MLMS_SIGMAS, projected_db, residual_db, universe

random_db = partial(conftest.random_db, max_items=8, max_tx=25, max_density=0.7)


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

    @pytest.mark.parametrize("prune", [True, False])
    def test_only_itemsets_of_two_or_more_items_are_unified(self, mlms_db, monkeypatch, prune):
        # Singletons come from the database's tree alone and pairs from each
        # tree's pair table, so no projection hands up a singleton.
        members = []
        real_unify = mlms_module.unify

        def recording_unify(x, sets):
            members.extend(sets)
            return real_unify(x, sets)

        monkeypatch.setattr(mlms_module, "unify", recording_unify)
        seeded = gen_synthetic(SynthConfig(num_items=10, num_transactions=60, density=0.4, seed=23))
        for db, tv in ((mlms_db, ThresholdVector(MLMS_SIGMAS)), (seeded, ThresholdVector((20, 9, 5, 3)))):
            members.clear()
            result = mine_mlms(db, tv, sigma_low_prune=prune)
            assert result.supports == {s: support(db, s) for s in mlms_oracle(db, tv)}
            assert members and min(map(len, members)) >= 2


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
        real = tree_module.projected_tree

        def counting(tree, min_support=0):
            calls.append(tree.order[0])
            return real(tree, min_support)

        monkeypatch.setattr(tree_module, "projected_tree", counting)
        tv = ThresholdVector((1,))
        result = mine_mlms(mlms_db, tv)
        assert calls == []
        assert set(result.frequent) == mlms_oracle(mlms_db, tv)
        mine_mlms(mlms_db, tv, sigma_low_prune=False)
        assert calls

    def test_projections_drop_items_below_the_remaining_thresholds(self, mlms_db, monkeypatch):
        # Beyond its singletons, read from the supports, the tree holds itemsets
        # of lengths 2..3, so it is made at min(2, 3) = 2. Under the empty
        # prefix a projection holds itemsets of lengths 2..3, of which only
        # those of length 3 need its items to be in its order: its floor is 3.
        tree_floors, floors = [], []
        real_tree, real_project = mlms_module.build_tree, tree_module.projected_tree

        def recording_tree(db, min_support=0):
            tree_floors.append(min_support)
            return real_tree(db, min_support)

        def recording(tree, min_support=0):
            floors.append(min_support)
            return real_project(tree, min_support)

        monkeypatch.setattr(mlms_module, "build_tree", recording_tree)
        monkeypatch.setattr(tree_module, "projected_tree", recording)
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
        real = tree_module.projected_tree

        def counting(tree, min_support=0):
            calls.append(tree.order[0])
            return real(tree, min_support)

        monkeypatch.setattr(tree_module, "projected_tree", counting)
        tv = ThresholdVector((2, 2))
        result = mine_mlms(mlms_db, tv)
        assert calls == []
        assert set(result.frequent) == mlms_oracle(mlms_db, tv)
        unpruned = mine_mlms(mlms_db, tv, sigma_low_prune=False)
        assert calls
        assert set(unpruned.frequent) == mlms_oracle(mlms_db, tv)

    def test_no_split_at_two_thresholds(self, mlms_db, monkeypatch):
        # At L = 2 the pairs are read from the pair table of the database's
        # tree, counted from its transactions: no tree is split.
        calls = []
        real = tree_module.projected_tree

        def recording(tree, min_support=0):
            calls.append(tree.order[0])
            return real(tree, min_support)

        monkeypatch.setattr(tree_module, "projected_tree", recording)
        for tv in (ThresholdVector((2, 2)), ThresholdVector((3, 1))):
            result = mine_mlms(mlms_db, tv)
            assert calls == []
            assert set(result.frequent) == mlms_oracle(mlms_db, tv)
            assert result.supports == {s: support(mlms_db, s) for s in result.frequent}
        mine_mlms(mlms_db, ThresholdVector((2, 2)), sigma_low_prune=False)
        assert calls  # unpruned, the tree is split

    def test_only_the_top_tree_is_built_at_three_thresholds(self, mlms_db, monkeypatch):
        # At L = 3 the projections under the empty prefix hold singletons and
        # pairs, read from their supports and pair tables: only the top tree
        # is split.
        top, split_trees = [], []
        real_tree, real_split = mlms_module.build_tree, mlms_module.split

        def recording_tree(db, min_support=0):
            top.append(real_tree(db, min_support))
            return top[-1]

        def recording_split(tree, min_support=0):
            split_trees.append(tree)
            return real_split(tree, min_support)

        monkeypatch.setattr(mlms_module, "build_tree", recording_tree)
        monkeypatch.setattr(mlms_module, "split", recording_split)
        tv = ThresholdVector((3, 2, 2))
        result = mine_mlms(mlms_db, tv)
        assert set(result.frequent) == mlms_oracle(mlms_db, tv)
        assert any(len(s) == 3 for s in result.frequent)
        assert len(top) == 1
        assert split_trees == top  # no projection is split
        split_trees.clear()
        mine_mlms(mlms_db, tv, sigma_low_prune=False)
        assert len(split_trees) > 1  # unpruned, the projections are split too

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
        cut = TransactionDatabase.from_itemsets([range(10), *db.transactions[1:]])
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


class TestPrefixShiftTheorems:
    def test_projection_shifts_the_threshold_index(self):
        # S under prefix p+1 in the projection and x+S under prefix p in the
        # database have the same extended length, so one is frequent* iff
        # the other is exactly when their supports are equal.
        rng = random.Random(912)
        for _ in range(40):
            db = random_db(rng)
            if not universe(db):
                continue
            items = sorted(universe(db))
            x = rng.choice(items)
            proj = projected_db(db, x)
            others = [i for i in items if i != x]
            for _ in range(5):
                if not others:
                    break
                k = rng.randint(1, min(3, len(others)))
                s = tuple(sorted(rng.sample(others, k)))
                assert support(proj, s) == support(db, tuple(sorted((x, *s))))

    def test_residual_preserves_frequency_star(self):
        # S keeps its length and prefix in the residual, so its frequent*
        # status is kept exactly when its support is.
        rng = random.Random(913)
        for _ in range(40):
            db = random_db(rng)
            if not universe(db):
                continue
            items = sorted(universe(db))
            x = rng.choice(items)
            resid = residual_db(db, x)
            others = [i for i in items if i != x]
            for _ in range(5):
                if not others:
                    break
                k = rng.randint(1, min(3, len(others)))
                s = tuple(sorted(rng.sample(others, k)))
                assert support(db, s) == support(resid, s)
