import random
import re
from functools import partial

import pytest

from ifpmine import miners as miners_module
from ifpmine import tree as tree_module
from ifpmine import (
    InvalidThresholdError,
    MiningStats,
    SynthConfig,
    TransactionDatabase,
    apriori_min,
    build_tree,
    gen_synthetic,
    ifp_min,
    item_supports,
    mii_oracle,
    mine_mii,
    parse_fimi,
    support,
    unify,
)

import conftest
from conftest import MII_EXPECTED, MII_LABELS, projected_db, prune_infrequent_items, residual_db, universe

random_db = partial(conftest.random_db, max_items=8, max_tx=20, max_density=0.7)


class TestUnify:
    def test_includes_item_in_every_member(self):
        assert unify(0, {(1, 2): 3, (2, 3): 1}) == {(0, 1, 2): 3, (0, 2, 3): 1}
        assert unify(4, {(1, 2): 3, (3, 5): 1, (2, 6, 8): 2}) == {(1, 2, 4): 3, (3, 4, 5): 1, (2, 4, 6, 8): 2}

    def test_empty_collection_stays_empty(self):
        assert unify(7, {}) == {}

    def test_collection_of_empty_itemset(self):
        assert unify(7, {(): 4}) == {(7,): 4}


class TestIfpMin:
    def test_worked_example(self, mii_db):
        result = ifp_min(mii_db, 2)
        assert set(result.miis) == MII_EXPECTED
        assert result.sigma == 2
        assert result.algorithm == "ifp"

    def test_sigma_zero_rejected(self, mii_db):
        with pytest.raises(InvalidThresholdError):
            ifp_min(mii_db, 0)

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(101)
        for _ in range(30):
            db = random_db(rng)
            sigma = rng.randint(1, 5)
            assert set(ifp_min(db, sigma).miis) == mii_oracle(db, sigma)

    def test_single_node_base_keeps_pruned_singletons(self):
        # After pruning items 8 and 9 the tree is the single frequent node 7;
        # the pruned 1-itemsets are still part of the answer.
        db = TransactionDatabase.from_itemsets([[7, 8], [7, 9], [7]])
        result = ifp_min(db, 2)
        assert set(result.miis) == {(8,), (9,)}


    def test_many_items(self):
        # 550 pairs that never meet: every other pair of the 1100 items is an
        # MII of support 0. The residual chain is 1100 trees long, far deeper
        # than the interpreter's recursion limit.
        db = TransactionDatabase.from_itemsets([[2 * i, 2 * i + 1] for i in range(550)])
        result = ifp_min(db, 1)
        # Distinct pairs, none a transaction, as many as there are such pairs.
        assert len(result.miis) == 1100 * 1099 // 2 - 550
        assert all(len(s) == 2 and not (s[0] % 2 == 0 and s[1] == s[0] + 1) for s in result.miis)
        assert set(result.supports.values()) == {0}

    def test_long_transactions(self):
        # Paths of 1200 nodes: every walk over them must stay iterative.
        db = TransactionDatabase.from_itemsets([range(1200), range(1, 1200)])
        assert ifp_min(db, 3).miis == tuple((i,) for i in range(1200))
        db = TransactionDatabase.from_itemsets([range(1200), [0], [0]])
        assert ifp_min(db, 2).miis == tuple((i,) for i in range(1, 1200))

    def test_working_copy_leaves_out_infrequent_items(self):
        # Items 10-19 (supports 27 at most) are infrequent at sigma 40, items
        # 0-9 (86 at least) frequent. A tree with them would alone bring the
        # peak to the full tree's size.
        rng = random.Random(1)
        db = TransactionDatabase.from_itemsets(
            [[i for i in range(20) if rng.random() < (0.5 if i < 10 else 0.1)] for _ in range(200)]
        )
        stats = MiningStats()
        result = ifp_min(db, 40, stats)
        assert stats.peak_nodes < build_tree(db).node_count
        assert result == apriori_min(db, 40)
        assert result.supports == apriori_min(db, 40).supports

    def test_peak_counts_every_split_tree_on_the_stack(self):
        # At sigma 2 the database's tree has 6 nodes and frequent pairs, so it
        # is split. 0's projection, {1, 2} twice, {1} and {2}, has 3 nodes and
        # the frequent pair {1, 2}, so it is split too, under the first.
        db = TransactionDatabase.from_itemsets([[0, 1, 2]] * 2 + [[0, 1], [0, 2], [1, 2]])
        stats = MiningStats()
        result = ifp_min(db, 2, stats)
        assert build_tree(db, 2).node_count == 6
        assert stats.peak_nodes == 6 + 3
        assert result == apriori_min(db, 2)

    def test_projections_without_a_frequent_pair_are_not_split(self, monkeypatch):
        # Every pair of four items occurs twice and no triple occurs: the
        # tree's pairs are frequent at sigma 2, its projections' are not.
        # Their MIIs are read from their pair tables, and only the tree of
        # the database is split: the peak counts the prefixes of its paths.
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        db = TransactionDatabase.from_itemsets([p for p in pairs for _ in range(2)])
        top_nodes = build_tree(db, 2).node_count
        top, projections = [], []
        real_tree, real_project = miners_module.build_tree, tree_module.projected_tree

        def recording_tree(db, min_support=0):
            top.append(real_tree(db, min_support))
            return top[-1]

        def recording_projection(tree, min_support=0):
            projections.append(real_project(tree, min_support))
            return projections[-1]

        monkeypatch.setattr(miners_module, "build_tree", recording_tree)
        monkeypatch.setattr(tree_module, "projected_tree", recording_projection)
        stats = MiningStats()
        result = ifp_min(db, 2, stats)
        assert result == apriori_min(db, 2)
        assert result.supports == apriori_min(db, 2).supports
        assert len(top) == 1 and projections
        assert stats.peak_nodes == top_nodes > 0

    def test_no_split_without_a_frequent_pair(self):
        # Each pair of four items occurs once: every item is frequent at
        # sigma 2 and no pair is, so the MIIs are read from the tree's pair
        # table and the tree is never split.
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        db = TransactionDatabase.from_itemsets(pairs + [[4]])
        stats = MiningStats()
        result = ifp_min(db, 2, stats)
        assert stats.peak_nodes == 0
        assert result == apriori_min(db, 2)
        assert result.supports == apriori_min(db, 2).supports
        assert (4,) in result.miis and (0, 1) in result.miis

    def test_only_itemsets_of_two_or_more_items_are_unified(self, mii_db, monkeypatch):
        # Singletons come from the database's tree alone and pairs from each
        # tree's pair table, so no projection hands up a singleton.
        members = []
        real_unify = miners_module.unify

        def recording_unify(x, sets):
            members.extend(sets)
            return real_unify(x, sets)

        monkeypatch.setattr(miners_module, "unify", recording_unify)
        seeded = gen_synthetic(SynthConfig(num_items=12, num_transactions=80, density=0.4, seed=17))
        for db, sigma in ((mii_db, 2), (seeded, 6)):
            members.clear()
            result = ifp_min(db, sigma)
            assert set(result.miis) == mii_oracle(db, sigma)
            assert result.supports == apriori_min(db, sigma).supports
            assert members and min(map(len, members)) >= 2


class TestAprioriMin:
    def test_worked_example(self, mii_db):
        assert set(apriori_min(mii_db, 2).miis) == MII_EXPECTED

    def test_empty_db(self):
        assert apriori_min(parse_fimi(""), 2).miis == ()

    def test_rejected_triples_are_miis(self):
        # Four items, every pair occurs twice, no triple occurs at all:
        # at sigma=2 the rejected candidate triples are exactly the MIIs.
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        db = TransactionDatabase.from_itemsets([p for p in pairs for _ in range(2)])
        result = apriori_min(db, 2)
        expected = {(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)}
        assert set(result.miis) == expected
        assert mii_oracle(db, 2) == expected

    def test_sigma_zero_rejected(self, mii_db):
        with pytest.raises(InvalidThresholdError):
            apriori_min(mii_db, 0)


class TestEquivalence:
    def test_three_way_on_random_instances(self):
        rng = random.Random(202)
        for _ in range(30):
            db = random_db(rng)
            sigma = rng.randint(1, 5)
            a = set(ifp_min(db, sigma).miis)
            b = set(apriori_min(db, sigma).miis)
            c = mii_oracle(db, sigma)
            assert a == b == c


class TestDecompositionTheorems:
    def test_residual_miis_are_the_x_free_miis(self):
        # MIIs of the residual database of x are exactly the MIIs of the
        # database that do not contain x, both sides by brute force.
        rng = random.Random(303)
        for _ in range(25):
            db = random_db(rng)
            if not universe(db):
                continue
            x = build_tree(db).order[0]
            sigma = rng.randint(1, 4)
            left = mii_oracle(residual_db(db, x), sigma)
            right = {s for s in mii_oracle(db, sigma) if x not in s}
            assert left == right

    def test_x_miis_split_into_projected_difference_and_zero_pairs(self):
        # MIIs containing x = x joined with (MIIs of projected db minus MIIs
        # of residual db), plus x paired with frequent items that never
        # co-occur with x. Computed entirely with the oracle on raw databases,
        # over a database whose items are all frequent.
        rng = random.Random(404)
        checked = 0
        while checked < 25:
            raw = random_db(rng)
            sigma = rng.randint(1, 4)
            db = prune_infrequent_items(raw, sigma)
            frequent = sorted(universe(db))
            if not frequent:
                continue
            counts = item_supports(db)
            x = min(frequent, key=lambda i: (counts[i], i))
            proj = projected_db(db, x)
            resid = residual_db(db, x)
            with_x = {s for s in mii_oracle(db, sigma) if x in s}
            from_projection = {
                tuple(sorted((x, *s)))
                for s in mii_oracle(proj, sigma) - mii_oracle(resid, sigma)
            }
            zero_pairs = {
                tuple(sorted((x, y))) for y in frequent if y != x and y not in universe(proj)
            }
            assert with_x == from_projection | zero_pairs
            checked += 1


class TestGroupTwoB:
    def test_never_cooccurring_frequent_pair_reported(self):
        db = TransactionDatabase.from_itemsets([[0], [0], [0], [1], [1], [1]])
        expected = {(0, 1)}
        assert set(ifp_min(db, 2).miis) == expected
        assert set(apriori_min(db, 2).miis) == expected
        assert mii_oracle(db, 2) == expected

    def test_all_zero_support_pairs_present(self):
        rng = random.Random(505)
        for _ in range(25):
            db = random_db(rng)
            sigma = rng.randint(1, 4)
            counts = item_supports(db)
            frequent = [i for i, c in counts.items() if c >= sigma]
            zero_pairs = {
                (a, b)
                for ia, a in enumerate(sorted(frequent))
                for b in sorted(frequent)[ia + 1:]
                if support(db, (a, b)) == 0
            }
            miis = set(ifp_min(db, sigma).miis)
            assert zero_pairs <= miis


class TestSoundness:
    def test_definition_holds_member_wise(self):
        rng = random.Random(606)
        for _ in range(25):
            db = random_db(rng)
            sigma = rng.randint(1, 5)
            for algo in ("ifp", "apriori"):
                result = mine_mii(db, sigma, algorithm=algo)
                for s in result.miis:
                    assert support(db, s) < sigma
                    assert result.supports[s] == support(db, s)
                    # nonempty immediate subsets must be frequent (infrequent
                    # single items are unconditional MIIs)
                    for k in range(len(s)):
                        if len(s) > 1:
                            assert support(db, s[:k] + s[k + 1:]) >= sigma

    def test_unknown_algorithm_is_refused(self, mii_db):
        with pytest.raises(ValueError, match=re.escape("unknown algorithm: 'fp-growth'")):
            mine_mii(mii_db, 2, algorithm="fp-growth")

    def test_antichain(self):
        rng = random.Random(707)
        for _ in range(25):
            db = random_db(rng)
            sigma = rng.randint(1, 5)
            miis = [set(s) for s in ifp_min(db, sigma).miis]
            for i, a in enumerate(miis):
                for j, b in enumerate(miis):
                    if i != j:
                        assert not a < b


class TestDeterminism:
    def test_identical_across_runs(self):
        rng = random.Random(808)
        for _ in range(10):
            db = random_db(rng)
            sigma = rng.randint(1, 4)
            first = ifp_min(db, sigma)
            second = ifp_min(db, sigma)
            assert first.miis == second.miis
            assert first.to_text() == second.to_text()
            assert first.to_json() == second.to_json()


class TestResultFormats:
    def test_text_lines_sorted_and_labeled(self, mii_db):
        text = ifp_min(mii_db, 2).to_text(MII_LABELS)
        lines = text.splitlines()
        assert lines[0] == "F (1)"
        assert "B D (1)" in lines
        assert "A E (0)" in lines
        # shorter itemsets first, then lexicographic
        lengths = [len(line.split(" (")[0].split()) for line in lines]
        assert lengths == sorted(lengths)

    def test_json_shape(self, mii_db):
        import json

        payload = json.loads(ifp_min(mii_db, 2).to_json())
        assert isinstance(payload, list)
        assert {"items": [1, 3], "support": 1} in payload

    def test_supports_recorded(self, mii_db):
        result = ifp_min(mii_db, 2)
        assert result.supports[(0, 4)] == 0
        assert result.supports[(5,)] == 1
