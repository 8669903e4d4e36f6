import itertools
import random
from collections import Counter
from functools import partial

import pytest

from ifpmine import (
    TransactionDatabase,
    build_tree,
    parse_fimi,
    projected_tree,
    residual_tree,
    support,
    tree_support,
)

import conftest
from conftest import (
    MII_LABELS,
    MII_ROWS,
    decompress,
    dump_lines,
    forced_form,
    is_vertical,
    prune_infrequent_items,
    recording_kernels,
    universe,
)

random_db = partial(conftest.random_db, max_items=9, max_tx=30, max_density=0.9)


def _nodes(tree, item):
    """(depth, count) of every line of the tree's dump labeled with the item."""
    return [(depth, count) for depth, i, count in dump_lines(tree) if i == item]


@pytest.fixture
def t2_to_t9_tree():
    """Tree over the example's transactions 2..9; item E then has support 3
    and becomes the least frequent item."""
    return build_tree(TransactionDatabase.from_itemsets(MII_ROWS[1:]))


@pytest.fixture
def pruned_tree(mii_db):
    return build_tree(prune_infrequent_items(mii_db, 2))


class TestBuildTree:
    def test_golden_dump_t2_to_t9(self, t2_to_t9_tree):
        assert t2_to_t9_tree.dump(MII_LABELS) == "\n".join([
            "E:3",
            "  B:1",
            "  C:1",
            "  D:1",
            "A:4",
            "  B:2",
            "    C:1",
            "  C:1",
            "    D:1",
            "  D:1",
            "B:1",
            "  C:1",
            "    D:1",
        ])

    def test_shared_prefix_counts(self):
        tree = build_tree(TransactionDatabase.from_itemsets([[1, 2], [1, 2]]))
        assert tree.dump() == "1:2\n  2:2"

    def test_no_sharing(self):
        tree = build_tree(TransactionDatabase.from_itemsets([[1], [2]]))
        assert dump_lines(tree) == [(0, 1, 1), (0, 2, 1)]

    def test_empty_transactions_counted(self):
        tree = build_tree(parse_fimi("\n\n1\n"))
        assert tree.num_transactions == 3
        assert tree.node_count == 1

    def test_reconstruction_exact(self):
        rng = random.Random(5)
        for _ in range(40):
            db = random_db(rng)
            tree = build_tree(db)
            got = Counter()
            for s, w in decompress(tree):
                got[tuple(sorted(s))] += w
            want = Counter(t for t in db if t)
            assert got == want

    def test_decompress_long_transaction(self):
        tree = build_tree(TransactionDatabase.from_itemsets([range(1200)]))
        assert decompress(tree) == [(tuple(range(1200)), 1)]

    def test_dump_long_transaction(self):
        tree = build_tree(TransactionDatabase.from_itemsets([range(1200)]))
        assert len(tree.dump().splitlines()) == 1200

    def test_dump_wide_root(self):
        # Each path is a child of the root: one line each, in the order.
        tree = build_tree(TransactionDatabase.from_itemsets([[i] for i in range(20000)]))
        lines = tree.dump().splitlines()
        assert len(lines) == 20000
        assert (lines[0], lines[-1]) == ("0:1", "19999:1")

    def test_dump_repeated_long_transaction(self):
        tree = build_tree(TransactionDatabase.from_itemsets([range(5000)] * 2))
        lines = tree.dump().splitlines()
        assert len(lines) == 5000
        assert (lines[0], lines[-1]) == ("0:2", "  " * 4999 + "4999:2")

    def test_node_counts_of_each_item_sum_to_its_support(self):
        # The counts of an item's nodes sum to its support, for every item.
        rng = random.Random(6)
        for _ in range(30):
            db = random_db(rng)
            tree = build_tree(db)
            assert set(tree.order) == universe(db)
            for item in universe(db):
                assert sum(count for _, count in _nodes(tree, item)) == support(db, (item,))

    def test_node_count_bounded_by_occurrences(self):
        rng = random.Random(8)
        for _ in range(30):
            db = random_db(rng)
            tree = build_tree(db)
            occurrences = sum(len(t) for t in db)
            assert tree.node_count <= occurrences

    def test_counts_and_ranks_consistent(self):
        # Each line is a child of the line above it at one less depth: the
        # children's counts sum to at most their parent's, their items come
        # after its item in the order, and siblings come in that order.
        rng = random.Random(9)
        for _ in range(20):
            tree = build_tree(random_db(rng))
            rank = {item: k for k, item in enumerate(tree.order)}
            stack = [[-1, tree.num_transactions, -1]]  # [rank, count left, last child's rank] per open line
            for depth, item, count in dump_lines(tree):
                assert depth <= len(stack) - 1
                del stack[depth + 1:]
                parent = stack[-1]
                assert parent[0] < rank[item] and parent[2] < rank[item]
                parent[1] -= count
                parent[2] = rank[item]
                assert parent[1] >= 0
                stack.append([rank[item], count, -1])


class TestLfItem:
    def test_pruned_example_tree(self, pruned_tree):
        assert pruned_tree.order[0] == 0  # A: all supports tie at 4, lowest id

    def test_t2_to_t9_tree(self, t2_to_t9_tree):
        assert t2_to_t9_tree.order[0] == 4  # E has support 3, the rest 4

    def test_single_node(self):
        assert build_tree(TransactionDatabase.from_itemsets([[7]])).order[0] == 7

    def test_lf_item_has_single_root_child_node(self):
        rng = random.Random(10)
        for _ in range(30):
            tree = build_tree(random_db(rng))
            if not tree.order:
                continue
            x = tree.order[0]
            assert _nodes(tree, x) == [(0, tree.supports[x])]


class TestProjectedTree:
    def test_example_projection_of_a(self, pruned_tree):
        proj = projected_tree(pruned_tree)
        assert proj.num_transactions == 4
        assert proj.supports == {1: 2, 2: 2, 3: 2}
        got = Counter()
        for s, w in decompress(proj):
            got[tuple(sorted(s))] += w
        assert got == Counter({(1, 2): 1, (1,): 1, (3,): 1, (2, 3): 1})

    def test_golden_dump(self, pruned_tree):
        assert projected_tree(pruned_tree).dump(MII_LABELS) == "\n".join([
            "B:2",
            "  C:1",
            "C:1",
            "  D:1",
            "D:1",
        ])

    def test_item_always_alone_gives_empty_projection(self):
        tree = build_tree(TransactionDatabase.from_itemsets([[4], [4], [5], [5], [5]]))
        assert tree.order[0] == 4
        proj = projected_tree(tree)
        assert not proj.order
        assert proj.num_transactions == 2

    def test_projection_of_e_in_t2_to_t9(self, t2_to_t9_tree):
        # transactions with E are (E,B), (E,C), (E,D): projecting leaves
        # B, C and D once each
        proj = projected_tree(t2_to_t9_tree)
        assert proj.supports == {1: 1, 2: 1, 3: 1}
        assert proj.num_transactions == 3

    def test_min_support_drops_items_but_keeps_their_supports(self):
        rng = random.Random(16)
        for _ in range(60):
            db = random_db(rng)
            tree = build_tree(db)
            if not tree.order:
                continue
            full = projected_tree(tree)
            min_support = rng.randint(1, max(1, full.num_transactions))
            proj = projected_tree(tree, min_support)
            dropped = {i for i, n in full.supports.items() if n < min_support}
            kept = sorted(full.supports.keys() - dropped)
            assert proj.supports == full.supports
            assert set(proj.order) == set(kept)
            assert all(not _nodes(proj, i) for i in dropped)
            for _ in range(5):
                k = rng.randint(0, min(4, len(kept)))
                s = tuple(rng.sample(kept, k))
                assert tree_support(proj, s) == tree_support(full, s)

    def test_projection_of_infrequent_items_reads_no_path(self):
        # x = 0 occurs in three transactions, its projected items at most
        # twice. The tree is on its paths.
        rows = [[0, 1, 2], [0, 1], [0, 2, 3]] + [[1, 2, 3]] * 3
        with forced_form(False):
            tree = build_tree(TransactionDatabase.from_itemsets(rows))
        assert tree.order[0] == 0 and not is_vertical(tree)
        full = projected_tree(tree)
        assert full.supports == {1: 2, 2: 2, 3: 1}
        reads = []

        class WatchedBucket(dict):
            """x's bucket, recording each read of its paths."""

            def items(self):
                reads.append("items")
                return super().items()

            def __iter__(self):
                reads.append("iter")
                return super().__iter__()

        tree._paths[0] = WatchedBucket(tree._paths[0])
        proj = projected_tree(tree, 3)
        assert reads == []
        assert proj.order == () and proj.node_count == 0
        assert proj.supports == full.supports
        assert proj.num_transactions == full.num_transactions == 3
        projected_tree(tree, 2)
        assert len(reads) == 1


class TestResidualTree:
    def test_example_residual_of_a(self, pruned_tree):
        resid = residual_tree(pruned_tree)
        assert resid.num_transactions == 9
        assert resid.dump(MII_LABELS) == "\n".join([
            "B:4",
            "  C:2",
            "    D:1",
            "  E:1",
            "C:2",
            "  D:1",
            "  E:1",
            "D:2",
            "  E:1",
            "E:1",
        ])

    def test_matches_rebuild_from_raw_database(self):
        rng = random.Random(12)
        for _ in range(40):
            db = random_db(rng)
            tree = build_tree(db)
            if not tree.order:
                continue
            x = tree.order[0]
            spliced = residual_tree(tree)
            raw = TransactionDatabase.from_itemsets(
                [[i for i in t if i != x] for t in db]
            )
            rebuilt = build_tree(raw)
            assert spliced.dump() == rebuilt.dump()
            assert spliced.order == rebuilt.order
            assert spliced.num_transactions == rebuilt.num_transactions
            assert spliced.node_count == rebuilt.node_count
            assert spliced.supports == rebuilt.supports

    def test_copy_without_the_leading_items_matches_rebuild(self):
        # The miners' tree, built at a floor: the residual tree of the items
        # below it, which lead the order.
        rng = random.Random(16)
        for _ in range(40):
            db = random_db(rng)
            tree = build_tree(db)
            floor = rng.randint(0, len(db) + 1)
            dropped = {i for i in tree.order if tree.supports[i] < floor}
            pruned = build_tree(db, floor)
            rebuilt = build_tree(
                TransactionDatabase.from_itemsets([[i for i in t if i not in dropped] for t in db])
            )
            assert pruned.dump() == rebuilt.dump()
            assert pruned.order == rebuilt.order
            assert pruned.node_count == rebuilt.node_count
            assert pruned.supports == tree.supports

    def test_absent_item_leaves_database_unchanged(self):
        # Removing an item that occurs nowhere is the identity on the
        # database, hence on the rebuilt tree.
        db = TransactionDatabase.from_itemsets([[1, 2], [2, 3]])
        stripped = TransactionDatabase.from_itemsets(
            [[i for i in t if i != 99] for t in db]
        )
        assert build_tree(stripped).dump() == build_tree(db).dump()

    def test_input_tree_not_mutated(self, pruned_tree):
        before = pruned_tree.dump()
        residual_tree(pruned_tree)
        projected_tree(pruned_tree)
        assert pruned_tree.dump() == before


class TestPairKernelChoice:
    """A vertical tree counts its pair table on transaction bitsets, as do
    the trees below it, and a tree on paths counts on its paths; a tie of
    the form rule takes the paths. The rule's verdicts on the cells it was
    fitted on are checked in ``tests/test_form_cells.py``."""

    @staticmethod
    def _kernels(tree, monkeypatch) -> list[str]:
        """The kernels that count the tree's table on its first read."""
        used = recording_kernels(monkeypatch)
        tree.pairs
        return used

    def test_a_vertical_tree_keeps_bitsets_below_it(self, monkeypatch):
        # Dense rows of items 100-149 under a vertical top tree. Item 50,
        # the lf-item, is in 50 rows, each with one of those items: its
        # projection, 50 one-item paths, is vertical, as is the residual,
        # and reads as the same rows rebuilt on paths.
        dense = [[i for i in range(100, 150) if i % 10 != k % 10] for k in range(60)]
        db = TransactionDatabase.from_itemsets(dense + [[50, p] for p in range(100, 150)])
        with forced_form(True):
            tree = build_tree(db)
        with monkeypatch.context() as patch:
            assert self._kernels(tree, patch) == ["_bitset_pairs"]
        assert tree.order[0] == 50
        proj = projected_tree(tree)
        with forced_form(False):
            rebuilt = build_tree(TransactionDatabase.from_itemsets([p] for p in range(100, 150)))
        for below in (proj, residual_tree(tree)):
            with monkeypatch.context() as patch:
                assert self._kernels(below, patch) == ["_bitset_pairs"]
        assert proj.dump() == rebuilt.dump()

    def test_a_tie_takes_the_paths(self, monkeypatch):
        # Two rows of items 0-41, 10 empty rows and 86 rows of one item
        # each, which the floor of 2 leaves out: m = 42, s = 84, t = 98 and
        # o = 170 give (170 + 15 · 42 · 41)(2 + 1) · 98 = 7,644,000 =
        # 500 · (84 · 84 + 84 · 98).
        rows = [range(42)] * 2 + [[]] * 10 + [[100 + k] for k in range(86)]
        tree = build_tree(TransactionDatabase.from_itemsets(rows), 2)
        assert (len(tree.order), tree.num_transactions) == (42, 98)
        assert self._kernels(tree, monkeypatch) == ["_path_pairs"]


class TestFrequentPairs:
    """``frequent_pairs``, the read of a tree that is not split: the pairs
    that reach a support, in either form; a vertical tree counts no table."""

    @pytest.mark.parametrize("vertical", [True, False])
    def test_the_pairs_that_reach_the_support(self, mii_db, monkeypatch, vertical):
        with forced_form(vertical):
            tree = build_tree(mii_db)
        counted = recording_kernels(monkeypatch)
        pairs = itertools.combinations(sorted(universe(mii_db)), 2)
        supports = {pair: n for pair in pairs if (n := support(mii_db, pair))}
        for sigma in (1, 2, 3):
            want = [(pair, n) for pair, n in supports.items() if n >= sigma]
            got = tree.frequent_pairs(sigma)
            assert sorted(got) == want
            if vertical:
                assert got == want  # in ascending order of item ids
        assert counted == ([] if vertical else ["_path_pairs"])
        assert is_vertical(tree) == vertical


class TestTreeItems:
    """The items with a node in a tree are the items of its order."""

    def test_residual_and_projected_items(self, pruned_tree):
        assert set(residual_tree(pruned_tree).order) == {1, 2, 3, 4}
        assert set(projected_tree(pruned_tree).order) == {1, 2, 3}

    def test_empty(self):
        assert build_tree(parse_fimi("")).order == ()


class TestTreeSupport:
    def test_pair(self, mii_db):
        assert tree_support(build_tree(mii_db), (1, 3)) == 1

    def test_empty_itemset(self, mii_db):
        assert tree_support(build_tree(mii_db), ()) == 9

    def test_long_transaction(self):
        tree = build_tree(TransactionDatabase.from_itemsets([range(1200)]))
        assert tree_support(tree, range(1200)) == 1

    def test_agrees_with_raw_support(self):
        rng = random.Random(13)
        checked = 0
        while checked < 1000:
            db = random_db(rng)
            tree = build_tree(db)
            items = sorted(universe(db)) or [0]
            for _ in range(25):
                k = rng.randint(0, min(4, len(items)))
                s = tuple(sorted(rng.sample(items, k)))
                assert tree_support(tree, s) == support(db, s)
                checked += 1


class TestDecompositionIdentities:
    def test_residual_preserves_support_of_x_free_itemsets(self):
        rng = random.Random(14)
        for _ in range(60):
            db = random_db(rng)
            tree = build_tree(db)
            if not tree.order:
                continue
            x = tree.order[0]
            resid = residual_tree(tree)
            others = [i for i in sorted(universe(db)) if i != x]
            for _ in range(5):
                k = rng.randint(0, min(4, len(others)))
                s = tuple(sorted(rng.sample(others, k)))
                assert tree_support(resid, s) == tree_support(tree, s)

    def test_projection_shifts_support_by_x(self):
        rng = random.Random(15)
        for _ in range(60):
            db = random_db(rng)
            tree = build_tree(db)
            if not tree.order:
                continue
            x = tree.order[0]
            proj = projected_tree(tree)
            others = [i for i in sorted(universe(db)) if i != x]
            for _ in range(5):
                k = rng.randint(0, min(4, len(others)))
                s = tuple(sorted(rng.sample(others, k)))
                assert tree_support(proj, s) == tree_support(tree, tuple(sorted((*s, x))))
