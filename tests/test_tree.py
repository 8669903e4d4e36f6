import itertools
import random
from collections import Counter
from functools import partial

import pytest

from ifpmine import (
    SynthConfig,
    TransactionDatabase,
    build_tree,
    gen_synthetic,
    parse_fimi,
    projected_tree,
    residual_tree,
    support,
    tree_support,
)
from ifpmine import tree as tree_module

import conftest
from conftest import MII_LABELS, MII_ROWS, decompress, dump_lines, prune_infrequent_items, universe

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
        # twice. Items 10-209, three rows each alone, keep the tree on its
        # paths and stay out of x's projection.
        rows = [[0, 1, 2], [0, 1], [0, 2, 3]] + [[1, 2, 3]] * 3
        db = TransactionDatabase.from_itemsets(rows + [[i] for i in range(10, 210)] * 3)
        tree = build_tree(db)
        assert tree.order[0] == 0 and tree._tids is None
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


# The cells ``_takes_bitsets`` was fitted on: each one's (m, s, t, o), as
# ``tools/form_cells.py`` prints them, and whether its whole ``ifp`` run was
# faster vertical. The benchmark workloads' queries with equal supports
# share a cell. The 2-8-item rows are a near tie at sigma 1, and vertical
# ran 8-18% faster at 25 and 100, so they are vertical (see the rule).
FITTED_CELLS = {
    "mii-skewed, MII 1% and MLMS 2%,1%": ((148, 2750, 600, 2760), True),
    "mii-dense, MII 30%": ((20, 3907, 600, 7200), True),
    "mii-dense, MII 10% and MLMS 30%,10%": ((40, 7200, 600, 7200), True),
    "mlms-dense, MII 30%": ((21, 1360, 200, 2400), True),
    "mlms-dense, MII 10% and MLMS 25%,9%,3%": ((40, 2400, 200, 2400), True),
    "gen_synthetic 30 x 50,000 at 0.1, seed 1, 1%": ((30, 150416, 50000, 150416), True),
    "gen_synthetic 50 x 10,000 at 0.3, seed 42, 30%": ((30, 91182, 10000, 150564), True),
    "gen_synthetic 50 x 10,000 at 0.3, seed 42, 10% and 5%": ((50, 150564, 10000, 150564), True),
    "gen_synthetic 200 x 5,000 at 0.05, seed 7, 2%": ((200, 49962, 5000, 49962), True),
    "patterns 300 x 20,000, 2%, 1% and 0.5%": ((188, 181999, 20000, 181999), True),
    "5,000 rows of 2-8 of 200 items, 1, 25 and 100": ((200, 25044, 5000, 25044), True),
    "20,000 rows of 1-3 of 200 items, 1 and 25": ((200, 39928, 20000, 39928), False),
    "uniform_rows(500, 20000), 1.2%": ((151, 40765, 20000, 100000), False),
    "uniform_rows(500, 20000), 0.5%": ((500, 100000, 20000, 100000), False),
    "zipf_rows(1000, 50000), 1%": ((42, 61463, 50000, 154697), False),
    "zipf_rows(1000, 50000), 0.1%": ((761, 144122, 50000, 154697), False),
    "uniform_rows(1000, 100000), 1.2%": ((301, 406350, 100000, 1000000), False),
    "uniform_rows(1000, 100000), 1%": ((500, 625250, 100000, 1000000), False),
}


def _short_rows() -> list[list[int]]:
    """20,000 seeded transactions of 1-3 of 200 items."""
    rng = random.Random(1)
    return [rng.sample(range(200), rng.randint(1, 3)) for _ in range(20000)]


class TestPairKernelChoice:
    """A dense tree is made vertical and counts its pair table on
    transaction bitsets; a tree whose many transactions make each AND dear
    is made on its paths and counts on them."""

    @staticmethod
    def _kernels(tree, monkeypatch) -> list[str]:
        """The kernels that count the tree's table on its first read."""
        used = []
        for name in ("_path_pairs", "_bitset_pairs"):

            def recording(*args, name=name, real=getattr(tree_module, name)):
                used.append(name)
                return real(*args)

            monkeypatch.setattr(tree_module, name, recording)
        tree.pairs
        return used

    def test_dense_tree_takes_bitsets(self, monkeypatch):
        # The shape of the benchmark's dense workloads.
        db = gen_synthetic(SynthConfig(num_items=40, num_transactions=600, density=0.3, seed=1))
        assert self._kernels(build_tree(db), monkeypatch) == ["_bitset_pairs"]

    def test_wide_sparse_tree_takes_paths(self, monkeypatch):
        # 20,000 transactions of 1-3 of 200 items: each AND spans 313 words.
        # (o + 15·m(m - 1))(2 + t // 64) = 636,928 · 314 outweighs
        # 500(s·s/t + s) = 59,820,000 for the s = o = 39,928 item
        # occurrences, and whole runs took 43 ms on paths against 53 ms
        # vertical at 25, and 1.11 against 1.42 s at 1.
        tree = build_tree(TransactionDatabase.from_itemsets(_short_rows()))
        assert len(tree.order) == 200
        assert self._kernels(tree, monkeypatch) == ["_path_pairs"]

    def test_row_order_does_not_change_the_kernel(self, monkeypatch):
        # The rule reads the supports, which the row order leaves alone: the
        # short rows keep the tree on its paths, though the long rows alone
        # would be made vertical, m = 6 items in 3 rows.
        long = [[0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4], [0, 1, 2, 3, 5]]
        kernels = []
        for rows in (long, long + _short_rows(), _short_rows() + long):
            with monkeypatch.context() as patch:
                kernels.append(self._kernels(build_tree(TransactionDatabase.from_itemsets(rows)), patch))
        assert kernels == [["_bitset_pairs"], ["_path_pairs"], ["_path_pairs"]]

    def test_a_vertical_tree_keeps_bitsets_below_it(self, monkeypatch):
        # Dense rows of items 100-149 make the top tree vertical. Item 50,
        # the lf-item, is in 50 rows, each with one of those items: on its
        # own, its projection's 50 one-item paths would be made on paths,
        # (50 + 15 · 50 · 49) · 2 against 500 · (50 + 50), but it is made
        # vertical, as is the residual.
        dense = [[i for i in range(100, 150) if i % 10 != k % 10] for k in range(60)]
        db = TransactionDatabase.from_itemsets(dense + [[50, p] for p in range(100, 150)])
        tree = build_tree(db)
        with monkeypatch.context() as patch:
            assert self._kernels(tree, patch) == ["_bitset_pairs"]
        assert tree.order[0] == 50
        proj = projected_tree(tree)
        rebuilt = build_tree(TransactionDatabase.from_itemsets([p] for p in range(100, 150)))
        with monkeypatch.context() as patch:
            assert self._kernels(rebuilt, patch) == ["_path_pairs"]
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

    @pytest.mark.parametrize("features, vertical", list(FITTED_CELLS.values()), ids=list(FITTED_CELLS))
    def test_the_rule_takes_the_faster_form_on_each_fitted_cell(self, features, vertical):
        assert tree_module._takes_bitsets(*features) == vertical


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
