import random
from collections import Counter

import pytest

from ifpmine import tree as tree_module
from ifpmine import (
    EmptyTreeError,
    SynthConfig,
    TransactionDatabase,
    build_tree,
    gen_synthetic,
    lf_item,
    parse_fimi,
    projected_tree,
    residual_tree,
    support,
    tree_support,
)

from conftest import MII_LABELS, MII_ROWS, decompress, prune_infrequent_items, universe


def random_db(rng: random.Random, max_items=9, max_tx=30) -> TransactionDatabase:
    return gen_synthetic(
        SynthConfig(
            num_items=rng.randint(1, max_items),
            num_transactions=rng.randint(1, max_tx),
            density=rng.uniform(0.1, 0.9),
            seed=rng.getrandbits(64),
        )
    )


def _nodes(tree, item):
    """Every node of the tree labeled with the item."""
    found, stack = [], list(tree.root.children.values())
    while stack:
        node = stack.pop()
        if node.item == item:
            found.append(node)
        stack.extend(node.children.values())
    return found


@pytest.fixture
def t2_to_t9_tree():
    """Tree over the example's transactions 2..9; item E then has support 3
    and becomes the least frequent item."""
    return build_tree(TransactionDatabase.from_itemsets(MII_ROWS[1:], labels=MII_LABELS))


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
        assert len(tree.root.children) == 2
        assert all(c.count == 1 for c in tree.root.children.values())

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
            want = Counter(t.items for t in db if t.items)
            assert got == want

    def test_decompress_long_transaction(self):
        tree = build_tree(TransactionDatabase.from_itemsets([range(1200)]))
        assert decompress(tree) == [(tuple(range(1200)), 1)]

    def test_dump_long_transaction(self):
        tree = build_tree(TransactionDatabase.from_itemsets([range(1200)]))
        assert len(tree.dump().splitlines()) == 1200

    def test_header_chains_complete(self):
        # The counts of an item's nodes sum to its support, for every item.
        rng = random.Random(6)
        for _ in range(30):
            db = random_db(rng)
            tree = build_tree(db)
            assert set(tree.order) == universe(db)
            for item in universe(db):
                assert sum(n.count for n in _nodes(tree, item)) == support(db, (item,))

    def test_node_count_bounded_by_occurrences(self):
        rng = random.Random(8)
        for _ in range(30):
            db = random_db(rng)
            tree = build_tree(db)
            occurrences = sum(len(t.items) for t in db)
            assert tree.node_count <= occurrences

    def test_counts_and_ranks_consistent(self):
        rng = random.Random(9)
        for _ in range(20):
            tree = build_tree(random_db(rng))

            def walk(node):
                assert node.count >= sum(c.count for c in node.children.values())
                for item, child in node.children.items():
                    if node.item is not None:
                        assert tree.rank[item] > tree.rank[node.item]
                    walk(child)

            for child in tree.root.children.values():
                walk(child)


class TestLfItem:
    def test_pruned_example_tree(self, pruned_tree):
        assert lf_item(pruned_tree) == 0  # A: all supports tie at 4, lowest id

    def test_t2_to_t9_tree(self, t2_to_t9_tree):
        assert lf_item(t2_to_t9_tree) == 4  # E has support 3, the rest 4

    def test_single_node(self):
        assert lf_item(build_tree(TransactionDatabase.from_itemsets([[7]]))) == 7

    def test_empty_tree(self):
        with pytest.raises(EmptyTreeError):
            lf_item(build_tree(parse_fimi("")))

    def test_lf_item_has_single_root_child_node(self):
        rng = random.Random(10)
        for _ in range(30):
            tree = build_tree(random_db(rng))
            if tree.is_empty():
                continue
            x = lf_item(tree)
            nodes = _nodes(tree, x)
            assert len(nodes) == 1
            assert tree.root.children.get(x) is nodes[0]


class TestProjectedTree:
    def test_example_projection_of_a(self, pruned_tree):
        proj = projected_tree(pruned_tree, 0)
        assert proj.num_transactions == 4
        assert proj.supports == {1: 2, 2: 2, 3: 2}
        got = Counter()
        for s, w in decompress(proj):
            got[tuple(sorted(s))] += w
        assert got == Counter({(1, 2): 1, (1,): 1, (3,): 1, (2, 3): 1})

    def test_golden_dump(self, pruned_tree):
        assert projected_tree(pruned_tree, 0).dump(MII_LABELS) == "\n".join([
            "B:2",
            "  C:1",
            "C:1",
            "  D:1",
            "D:1",
        ])

    def test_item_always_alone_gives_empty_projection(self):
        tree = build_tree(TransactionDatabase.from_itemsets([[4], [4], [5], [5], [5]]))
        assert lf_item(tree) == 4
        proj = projected_tree(tree, 4)
        assert proj.is_empty()
        assert proj.num_transactions == 2

    def test_projection_of_e_in_t2_to_t9(self, t2_to_t9_tree):
        # transactions with E are (E,B), (E,C), (E,D): projecting leaves
        # B, C and D once each
        proj = projected_tree(t2_to_t9_tree, 4)
        assert proj.supports == {1: 1, 2: 1, 3: 1}
        assert proj.num_transactions == 3

    def test_not_lf_item_rejected(self, pruned_tree):
        with pytest.raises(ValueError, match="least-frequent"):
            projected_tree(pruned_tree, 4)

    def test_min_support_drops_items_but_keeps_their_supports(self):
        rng = random.Random(16)
        for _ in range(60):
            db = random_db(rng)
            tree = build_tree(db)
            if tree.is_empty():
                continue
            x = lf_item(tree)
            full = projected_tree(tree, x)
            min_support = rng.randint(1, max(1, full.num_transactions))
            proj = projected_tree(tree, x, min_support)
            dropped = {i for i, n in full.supports.items() if n < min_support}
            kept = sorted(full.supports.keys() - dropped)
            assert proj.supports == full.supports
            assert set(proj.order) == set(proj.rank) == set(kept)
            assert all(not _nodes(proj, i) for i in dropped)
            for _ in range(5):
                k = rng.randint(0, min(4, len(kept)))
                s = tuple(rng.sample(kept, k))
                assert tree_support(proj, s) == tree_support(full, s)

    def test_projection_of_infrequent_items_reads_no_path(self, monkeypatch):
        # x = 0 occurs in three transactions, its projected items at most twice.
        db = TransactionDatabase.from_itemsets([[0, 1, 2], [0, 1], [0, 2, 3]] + [[1, 2, 3]] * 3)
        tree = build_tree(db)
        assert lf_item(tree) == 0
        full = projected_tree(tree, 0)
        assert full.supports == {1: 2, 2: 2, 3: 1}
        calls = []
        real = tree_module._walk

        def counting(top):
            calls.append(top)
            return real(top)

        monkeypatch.setattr(tree_module, "_walk", counting)
        proj = projected_tree(tree, 0, 3)
        assert calls == []
        assert proj.order == () and proj.node_count == 0 and proj.is_empty()
        assert proj.supports == full.supports
        assert proj.num_transactions == full.num_transactions == 3
        projected_tree(tree, 0, 2)
        assert len(calls) == 1

    def test_projected_supports_not_lf_item_rejected(self, pruned_tree):
        # The miners prepare a projection, and read its supports, without projected_tree.
        with pytest.raises(ValueError, match="least-frequent"):
            tree_module.pending_projection(pruned_tree, 4)


class TestResidualTree:
    def test_example_residual_of_a(self, pruned_tree):
        resid = residual_tree(pruned_tree, 0)
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
            if tree.is_empty():
                continue
            x = lf_item(tree)
            spliced = residual_tree(tree, x)
            raw = TransactionDatabase.from_itemsets(
                [[i for i in t.items if i != x] for t in db]
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
                TransactionDatabase.from_itemsets([[i for i in t.items if i not in dropped] for t in db])
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
            [[i for i in t.items if i != 99] for t in db]
        )
        assert build_tree(stripped).dump() == build_tree(db).dump()

    def test_not_lf_item_rejected(self, pruned_tree):
        with pytest.raises(ValueError, match="least-frequent"):
            residual_tree(pruned_tree, 3)

    def test_input_tree_not_mutated(self, pruned_tree):
        before = pruned_tree.dump()
        residual_tree(pruned_tree, 0)
        projected_tree(pruned_tree, 0)
        assert pruned_tree.dump() == before


class TestTreeItems:
    """The items with a node in a tree are the items of its order."""

    def test_residual_and_projected_items(self, pruned_tree):
        assert set(residual_tree(pruned_tree, 0).order) == {1, 2, 3, 4}
        assert set(projected_tree(pruned_tree, 0).order) == {1, 2, 3}

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
            if tree.is_empty():
                continue
            x = lf_item(tree)
            resid = residual_tree(tree, x)
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
            if tree.is_empty():
                continue
            x = lf_item(tree)
            proj = projected_tree(tree, x)
            others = [i for i in sorted(universe(db)) if i != x]
            for _ in range(5):
                k = rng.randint(0, min(4, len(others)))
                s = tuple(sorted(rng.sample(others, k)))
                assert tree_support(proj, s) == tree_support(tree, tuple(sorted((*s, x))))
