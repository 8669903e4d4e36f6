"""Property tests: the miners agree with the brute-force oracles on generated
databases, the tree layer agrees with trees rebuilt from the databases
its operations stand for, and the output layer agrees with plain reference
formulas. Each claim is one property per strategy, and a property makes
every assertion its runs support, so no two properties repeat the same
runs: the oracle properties also check which projections ``ifp`` makes,
and the twin properties each tree's form and node count. The form rule's
arithmetic is not restated: ``test_build_tree_takes_the_form_of_the_rule``
calls ``tree._takes_bitsets`` itself, and every other property forces the
form it needs, so a refit of the rule changes nothing here. Every database
stays inside the oracles' guards (``MAX_ORACLE_FREQUENT_ITEMS`` frequent
items, ``MAX_ORACLE_TRANSACTION_LEN`` items per transaction), and the runs
are derandomized, so they repeat."""

import random
from contextlib import ExitStack, contextmanager
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ifpmine.miners
import ifpmine.mlms
import ifpmine.tree
from ifpmine import (
    MIIResult,
    ThresholdVector,
    TransactionDatabase,
    apriori_min,
    build_tree,
    ifp_min,
    ifp_mlms,
    item_supports,
    mii_oracle,
    mine_mlms,
    mine_mii,
    mlms_oracle,
    projected_tree,
    residual_tree,
    support,
    tree_support,
)
from ifpmine.data import render_itemset_lines
from ifpmine.oracle import MAX_ORACLE_FREQUENT_ITEMS, MAX_ORACLE_TRANSACTION_LEN
from ifpmine.tree import split

from conftest import forced_form, is_vertical

NUM_ITEMS = 20

databases = st.lists(
    st.lists(st.integers(0, NUM_ITEMS - 1), max_size=MAX_ORACLE_TRANSACTION_LEN),
    max_size=30,
).map(TransactionDatabase.from_itemsets)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

WIDE_ITEMS = 20

assert max(NUM_ITEMS, WIDE_ITEMS) <= min(MAX_ORACLE_FREQUENT_ITEMS, MAX_ORACLE_TRANSACTION_LEN)


def _sparse_rows_with_dense_projections(rng: random.Random) -> TransactionDatabase:
    """40-60 rows of two of items 1-19, and 4-6 rows of item 0 with 7-9 of
    items 1-9, which make the projections of the items they hold dense."""
    rows = [rng.sample(range(1, NUM_ITEMS), 2) for _ in range(rng.randint(40, 60))]
    rows += [[0, *rng.sample(range(1, 10), rng.randint(7, 9))] for _ in range(rng.randint(4, 6))]
    rng.shuffle(rows)
    return TransactionDatabase.from_itemsets(rows)


mixed_databases = databases | st.randoms(use_true_random=False).map(_sparse_rows_with_dense_projections)


def _assert_mii_miners_match_oracle(db, data):
    """``ifp`` and ``apriori`` give the oracle's MIIs and supports, and
    ``ifp``'s ``_mii_rec`` projects x at its step of ``split`` exactly when
    row x of the pair table holds two or more pairs that reach sigma, each
    projection holding two or more items in its order. Half the draws of
    sigma are 1-3, which split the trees of the larger databases."""
    sigma = data.draw(st.integers(1, 3) | st.integers(1, len(db) + 1), label="sigma")
    want = mii_oracle(db, sigma)
    events = []
    real_split, real_project = ifpmine.miners.split, ifpmine.miners.projected_tree

    def recording_split(tree):
        for x, step in real_split(tree):
            events.append(("step", x, sum(n >= sigma for n in step.pairs.get(x, {}).values()) >= 2))
            yield x, step

    def recording_projection(tree, min_support=0):
        proj = real_project(tree, min_support)
        events.append(("projection", tree.order[0], len(proj.order)))
        return proj

    # The form rule makes vertical the tree of nearly every database this
    # small, so ``ifp`` runs in a form drawn for each.
    with mock.patch.object(ifpmine.miners, "split", recording_split), mock.patch.object(
        ifpmine.miners, "projected_tree", recording_projection
    ), forced_form(data.draw(st.booleans(), label="vertical")):
        mined = ifp_min(db, sigma)
    for result in (mined, apriori_min(db, sigma)):
        assert set(result.miis) == want
        assert result.supports == {s: support(db, s) for s in want}
    # A projection is made right after its step, before the next one.
    for k, (kind, x, value) in enumerate(events):
        after = events[k + 1][:2] if k + 1 < len(events) else None
        if kind == "step":
            assert (after == ("projection", x)) == value
        else:
            assert events[k - 1] == ("step", x, True)
            assert value >= 2


@PROPERTY
@given(db=mixed_databases, data=st.data())
def test_mii_miners_agree_with_oracle(db, data):
    _assert_mii_miners_match_oracle(db, data)


# A few rows, each repeated: many projections are one distinct path.
repeated_rows = st.lists(
    st.tuples(st.lists(st.integers(0, NUM_ITEMS - 1), max_size=MAX_ORACLE_TRANSACTION_LEN), st.integers(1, 4)),
    max_size=5,
).map(lambda rows: TransactionDatabase.from_itemsets([r for r, n in rows for _ in range(n)]))


@PROPERTY
@given(db=repeated_rows, data=st.data())
def test_mii_miners_agree_with_oracle_on_repeated_rows(db, data):
    _assert_mii_miners_match_oracle(db, data)


def _assert_mlms_matches_oracle(db, data):
    sigmas = data.draw(
        st.lists(st.integers(1, len(db) + 1), min_size=1, max_size=6), label="sigmas"
    )
    tv = ThresholdVector(tuple(sigmas))
    want = mlms_oracle(db, tv)
    for prune in (True, False):
        with forced_form(data.draw(st.booleans(), label="vertical")):  # as for MII
            result = mine_mlms(db, tv, sigma_low_prune=prune)
        assert set(result.frequent) == want
        assert result.supports == {s: support(db, s) for s in want}


@PROPERTY
@given(db=mixed_databases, data=st.data())
def test_mlms_agrees_with_oracle_on_non_monotone_thresholds(db, data):
    _assert_mlms_matches_oracle(db, data)


@PROPERTY
@given(db=repeated_rows, data=st.data())
def test_mlms_agrees_with_oracle_on_repeated_rows(db, data):
    _assert_mlms_matches_oracle(db, data)


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
    # Every tree here, the rebuilt ones included, takes a form drawn for
    # the example, as the rule would make nearly all of them vertical.
    with forced_form(data.draw(st.booleans(), label="vertical")):
        _assert_tree_layer_matches_rebuilt_trees(db, data)


def _assert_tree_layer_matches_rebuilt_trees(db, data):
    tree = build_tree(db)
    rows = list(db.transactions)
    db_supports = item_supports(db)
    for s in data.draw(itemsets, label="itemsets"):
        assert tree_support(tree, s) == support(db, s)

    floor = data.draw(st.integers(0, len(db) + 1), label="floor")
    pruned = build_tree(db, floor)
    _assert_same_tree(pruned, _rebuilt(rows, lambda i: db_supports[i] >= floor))
    assert pruned.supports == db_supports
    # At each step of the chain the tree is the one rebuilt without the items
    # split off so far: its paths and the table that lost their rows.
    chain = build_tree(db, floor)
    for k, (x, _) in enumerate(split(chain)):
        later = set(pruned.order[k:])
        _assert_same_tree(chain, _rebuilt(rows, later.__contains__))
    _assert_same_tree(chain, _rebuilt(rows, lambda i: False))
    if not tree.order:
        return

    x = tree.order[0]
    resid = residual_tree(tree)
    _assert_same_tree(resid, without_x := _rebuilt(rows, lambda i: i != x))
    assert resid.supports == item_supports(without_x)

    proj_rows = [[i for i in r if i != x] for r in rows if x in r]
    proj_supports = item_supports(TransactionDatabase.from_itemsets(proj_rows))
    m = data.draw(st.integers(0, db_supports[x] + 1), label="projection floor")
    proj = projected_tree(tree, m)
    kept = _rebuilt(proj_rows, lambda i: proj_supports[i] >= m)
    _assert_same_tree(proj, kept)
    # A fresh projection's table, read before its dump, is the same.
    fresh = projected_tree(tree, m)
    _assert_pair_table(fresh, kept)
    assert fresh.node_count == proj.node_count
    _assert_same_tree(fresh, kept)
    assert proj.supports == proj_supports
    assert projected_tree(tree).supports == proj_supports
    for s in data.draw(itemsets, label="projected itemsets"):
        assert tree_support(proj, s) == support(kept, s)

    # At x's step of ``split``, ``projected_tree`` gives x's projection in the
    # residual tree of the items before x, without the items below its floor.
    m = data.draw(st.integers(0, len(db) + 1), label="split floor")
    for k, (x, step) in enumerate(split(build_tree(db, floor))):
        proj = projected_tree(step, m)
        later = set(pruned.order[k + 1:])
        x_rows = [[i for i in r if i in later] for r in rows if x in r]
        x_supports = item_supports(TransactionDatabase.from_itemsets(x_rows))
        _assert_same_tree(proj, _rebuilt(x_rows, lambda i: x_supports[i] >= m))


# Paths of up to 8 items of 0..NUM_ITEMS - 1 with counts up to 70, so a
# tree's width can pass a 64-bit machine word; the order leaves out some
# items, which the paths then skip, and may hold items on no path.
weighted_rows = st.lists(
    st.tuples(st.lists(st.integers(0, NUM_ITEMS - 1), unique=True, max_size=8), st.integers(1, 70)),
    max_size=12,
)


@PROPERTY
@given(rows=weighted_rows, data=st.data())
def test_pair_kernels_agree_on_weighted_paths(rows, data):
    order = data.draw(st.permutations(range(NUM_ITEMS)), label="order")[:data.draw(st.integers(0, NUM_ITEMS))]
    rank = {item: k for k, item in enumerate(order)}
    paths = [(p, n) for r, n in rows if (p := tuple(sorted((i for i in r if i in rank), key=rank.get)))]
    transactions = [r for r, n in rows for _ in range(n)]
    db = TransactionDatabase.from_itemsets(transactions)
    # The tidsets of the transactions the weighted rows stand for, empty
    # ones included: each item's sum of 2**t over the t-th that hold it.
    want_tids = {i: sum(1 << t for t, r in enumerate(transactions) if i in r) for r in transactions for i in r}
    tids = ifpmine.tree._tidsets(transactions)
    assert tids == want_tids
    want = {}
    for k, a in enumerate(order):
        if row := {b: n for b in order[k + 1:] if (n := support(db, (a, b)))}:
            want[a] = row
    assert ifpmine.tree._path_pairs(paths) == want
    assert ifpmine.tree._bitset_pairs(order, {i: tids.get(i, 0) for i in order}) == want
    # A vertical tree of the transactions holds those tidsets, for its
    # order's items only.
    floor = data.draw(st.integers(0, len(db) + 1), label="floor")
    with forced_form(True):
        tree = build_tree(db, floor)
    assert tree._tids == {i: want_tids[i] for i in tree.order}


@contextmanager
def _recording_forms():
    """Patch both miners to record whether each tree of their runs is
    vertical: each database tree, then each projection and each step of a
    residual chain, in the order they are made."""
    forms: list[bool] = []

    def recording(real):
        def stand_in(*args):
            tree = real(*args)
            forms.append(is_vertical(tree))
            return tree

        return stand_in

    def recording_split(tree):
        for x, step in split(tree):
            forms.append(is_vertical(step))
            yield x, step

    with ExitStack() as stack:
        for module in (ifpmine.miners, ifpmine.mlms):
            for name in ("build_tree", "projected_tree"):
                stack.enter_context(mock.patch.object(module, name, recording(getattr(module, name))))
            stack.enter_context(mock.patch.object(module, "split", recording_split))
        yield forms


def _assert_same_contents(vertical, on_paths, itemsets) -> None:
    """A vertical tree reads as the tree on paths of the same database, and
    the reads leave each in its form."""
    assert is_vertical(vertical) and not is_vertical(on_paths)
    assert vertical.order == on_paths.order
    assert vertical.supports == on_paths.supports
    assert vertical.num_transactions == on_paths.num_transactions
    assert vertical.pairs == on_paths.pairs
    assert vertical.dump() == on_paths.dump()
    assert vertical.node_count == on_paths.node_count
    assert vertical.single_path == on_paths.single_path
    for s in itemsets:
        assert tree_support(vertical, s) == tree_support(on_paths, s)
    for tree in (vertical, on_paths):
        assert tree.node_count == len(tree.dump().splitlines())
    assert is_vertical(vertical) and not is_vertical(on_paths)


def _assert_twins_agree_at_every_split_step(vertical, db, floor, m, probes) -> None:
    """``vertical``, a vertical ``build_tree(db, floor)``, reads as its twin
    on paths, and so do the two trees' projections and residuals at every
    step of their splits at ``m``. Every tree of the twin is made on paths."""
    with forced_form(False):
        on_paths = build_tree(db, floor)
        steps, vertical_steps = 0, split(vertical)
        for (x, step), (y, v_step) in zip(split(on_paths), vertical_steps):
            assert x == y
            _assert_same_contents(vertical, on_paths, probes)
            # Each projection and residual of a vertical tree is vertical.
            _assert_same_contents(projected_tree(v_step, m), projected_tree(step, m), probes)
            _assert_same_contents(residual_tree(vertical), residual_tree(on_paths), probes)
            steps += 1
        assert next(vertical_steps, None) is None  # the last residual step
        assert steps == len(build_tree(db, floor).order)
        _assert_same_contents(vertical, on_paths, probes)


@PROPERTY
@given(db=databases, data=st.data())
def test_vertical_tree_matches_the_tree_on_paths_at_every_split_step(db, data):
    floor = data.draw(st.integers(0, len(db) + 1), label="floor")
    m = data.draw(st.integers(0, len(db) + 1), label="split floor")
    probes = data.draw(itemsets, label="itemsets")
    with forced_form(True):
        vertical = build_tree(db, floor)
    _assert_twins_agree_at_every_split_step(vertical, db, floor, m, probes)


# 8-24 rows of 6-8 of items 0-7: dense trees, whose items nearly all meet.
# The databases built from them add empty rows and rows of items 10-19
# alone, which a floor above their supports prunes.
dense_rows = st.lists(st.lists(st.integers(0, 7), min_size=6, max_size=8, unique=True), min_size=8, max_size=24)
rare_rows = st.lists(st.lists(st.integers(10, NUM_ITEMS - 1), min_size=1, max_size=3, unique=True), max_size=3)


@PROPERTY
@given(rows=dense_rows, rare=rare_rows, empty=st.integers(0, 3), data=st.data())
def test_a_vertical_database_tree_matches_its_twin_on_paths(rows, rare, empty, data):
    rows = data.draw(st.permutations(rows + rare + [[]] * empty), label="row order")
    db = TransactionDatabase.from_itemsets(rows)
    rare_max = max((n for i, n in item_supports(db).items() if i >= 10), default=0)
    floor = data.draw(st.integers(rare_max + 1, rare_max + 4), label="floor")
    m = data.draw(st.integers(0, len(db) + 1), label="split floor")
    probes = data.draw(itemsets, label="itemsets")
    with forced_form(True):
        vertical = build_tree(db, floor)
    assert all(i < 10 for i in vertical.order)
    _assert_twins_agree_at_every_split_step(vertical, db, floor, m, probes)


def _sparse_rows_over_many_items(rng: random.Random) -> TransactionDatabase:
    """60-100 rows of one or two of 200 items: at low floors the form rule
    keeps the tree of so many items on its paths."""
    rows = [rng.sample(range(200), rng.randint(1, 2)) for _ in range(rng.randint(60, 100))]
    return TransactionDatabase.from_itemsets(rows)


@PROPERTY
@given(
    db=databases
    | dense_rows.map(TransactionDatabase.from_itemsets)
    | st.randoms(use_true_random=False).map(_sparse_rows_over_many_items),
    data=st.data(),
)
def test_build_tree_takes_the_form_of_the_rule(db, data):
    floor = data.draw(st.integers(0, len(db) + 1), label="floor")
    m = data.draw(st.integers(0, len(db) + 1), label="split floor")
    tree = build_tree(db, floor)
    assert tree.num_transactions == len(db)
    vertical = is_vertical(tree)
    s = sum(tree.supports[i] for i in tree.order)
    assert vertical == ifpmine.tree._takes_bitsets(len(tree.order), s, len(db), sum(tree.supports.values()))
    # The rule reads the supports alone, which the row order leaves be.
    rows = data.draw(st.permutations(db.transactions), label="row order")
    assert is_vertical(build_tree(TransactionDatabase.from_itemsets(rows), floor)) == vertical
    # Every step of the chain, every projection and every residual tree
    # keeps the database tree's form, whatever the rule says of it.
    for x, step in split(tree):
        assert is_vertical(step) == vertical
        assert is_vertical(projected_tree(step, m)) == vertical
        assert is_vertical(residual_tree(step)) == vertical
    # So does every tree of a run of each miner, whose database tree is at
    # its floor: ``ifp`` at sigma, MLMS at its least threshold with pruning
    # and at 0 without. Each run asks the rule once.
    sigma = max(floor, 1)
    tv = ThresholdVector((sigma,) * 4)
    for run in (partial(mine_mii, db, sigma), partial(mine_mlms, db, tv), partial(mine_mlms, db, tv, sigma_low_prune=False)):
        with _recording_forms() as forms, mock.patch.object(
            ifpmine.tree, "_takes_bitsets", wraps=ifpmine.tree._takes_bitsets
        ) as rule:
            run()
        assert rule.call_count == 1
        top, *below = forms
        assert set(below) <= {top}


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


def _render_reference(entries, labels=None) -> str:
    """The text format as one f-string per line."""
    name = str if labels is None else lambda i: labels.get(i, str(i))
    return "".join(f"{' '.join(map(name, s))} ({n})\n" for s, n in entries)


# Small ids and ids past 2**64; supports up to 2**70.
item_ids = st.integers(0, 30) | st.integers(2**64, 2**70)
render_entries = st.lists(
    st.tuples(st.lists(item_ids, unique=True, max_size=6).map(lambda s: tuple(sorted(s))), st.integers(0, 2**70)),
    max_size=25,
)


@PROPERTY
@given(
    entries=render_entries,
    labels=st.none() | st.dictionaries(item_ids, st.text(max_size=4)),
    in_result_order=st.booleans(),
)
def test_render_matches_the_f_string_formula(entries, labels, in_result_order):
    # Lengths mixed in any order, and labels that miss some items and may hold "%".
    if in_result_order:
        entries.sort(key=lambda e: (len(e[0]), e[0]))
    want = _render_reference(entries, labels)
    assert render_itemset_lines(entries, labels) == want
    assert render_itemset_lines(iter(entries), labels) == want


def test_render_of_the_empty_itemset():
    assert render_itemset_lines([((), 7)]) == _render_reference([((), 7)]) == " (7)\n"
    assert render_itemset_lines([((), 2), ((3,), 1), ((), 4)], {3: "c"}) == " (2)\nc (1)\n (4)\n"


def _result_order(found):
    return tuple(sorted(found, key=lambda s: (len(s), s)))


def _shuffled(found, data) -> dict:
    return dict(data.draw(st.permutations(list(found.items())), label="insertion order"))


@PROPERTY
@given(db=databases, data=st.data())
def test_mii_result_order_is_independent_of_insertion_order(db, data):
    sigma = data.draw(st.integers(1, len(db) + 1), label="sigma")
    result = ifp_min(db, sigma)
    shuffled = MIIResult.of(_shuffled(result.supports, data), sigma, "ifp")
    assert shuffled.miis == result.miis == _result_order(result.supports)
    assert shuffled.to_text() == result.to_text() == _render_reference(result.entries())
    assert shuffled.to_json() == result.to_json()


@PROPERTY
@given(db=databases, data=st.data())
def test_mlms_result_order_is_independent_of_insertion_order(db, data):
    sigmas = data.draw(st.lists(st.integers(1, len(db) + 1), min_size=1, max_size=4), label="sigmas")
    tv = ThresholdVector(tuple(sigmas))
    result = mine_mlms(db, tv)
    shuffled = _shuffled(ifp_mlms(db, tv), data)
    with mock.patch.object(ifpmine.mlms, "ifp_mlms", lambda *args, **kwargs: shuffled):
        from_shuffled = mine_mlms(db, tv)
    assert from_shuffled.frequent == result.frequent == _result_order(shuffled)
    assert from_shuffled.to_text() == result.to_text() == _render_reference(result.entries())
    assert from_shuffled.to_json() == result.to_json()


@PROPERTY
@given(db=databases)
def test_item_supports_matches_the_counting_loop(db):
    counts: dict[int, int] = {}
    for t in db.transactions:
        for i in t:
            counts[i] = counts.get(i, 0) + 1
    assert list(item_supports(db).items()) == list(counts.items())
