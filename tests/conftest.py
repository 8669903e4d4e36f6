import random
import sys
from unittest import mock

import pytest

import ifpmine.tree
from ifpmine import SynthConfig, TransactionDatabase, gen_synthetic, item_supports

# Nine-transaction example database (labels A..F as ids 0..5).
MII_LABELS = {0: "A", 1: "B", 2: "C", 3: "D", 4: "E", 5: "F"}
MII_ROWS = [
    [5, 4],        # F E
    [0, 1, 2],     # A B C
    [0, 1],        # A B
    [0, 3],        # A D
    [0, 2, 3],     # A C D
    [1, 2, 3],     # B C D
    [4, 1],        # E B
    [4, 2],        # E C
    [4, 3],        # E D
]

# The complete MII set of that database at sigma=2.
MII_EXPECTED = {
    (1, 4),        # B E
    (2, 4),        # C E
    (3, 4),        # D E
    (1, 3),        # B D
    (0, 1, 2),     # A B C
    (0, 2, 3),     # A C D
    (0, 4),        # A E
    (5,),          # F
}

# Six-transaction example for the per-length threshold model
# (labels A,B,C,D,T,W as ids 0..5).
MLMS_ROWS = [
    [0, 2, 4, 5],      # A C T W
    [2, 3, 5],         # C D W
    [0, 2, 4, 5],      # A C T W
    [0, 3, 2, 5],      # A D C W
    [0, 4, 2, 5, 3],   # A T C W D
    [2, 3, 4, 1],      # C D T B
]

MLMS_SIGMAS = (4, 4, 3, 2, 1)

# Frequent itemsets (with supports) at thresholds (4,4,3,2,1).
MLMS_EXPECTED = {
    (2,): 6, (5,): 5, (4,): 4, (3,): 4, (0,): 4,
    (2, 3): 4, (2, 5): 5, (0, 2): 4, (0, 5): 4, (2, 4): 4,
    (2, 4, 5): 3, (2, 3, 5): 3, (0, 2, 5): 4, (0, 2, 4): 3, (0, 4, 5): 3,
    (0, 2, 4, 5): 3, (0, 2, 3, 5): 2,
    (0, 2, 3, 4, 5): 1,
}


@pytest.fixture
def mii_db() -> TransactionDatabase:
    return TransactionDatabase.from_itemsets(MII_ROWS)


@pytest.fixture
def mlms_db() -> TransactionDatabase:
    return TransactionDatabase.from_itemsets(MLMS_ROWS)


@pytest.fixture
def int_digit_limit():
    """The most digits ``int()`` converts, set to Python's default for the
    test whatever the environment set (``PYTHONINTMAXSTRDIGITS``)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts ints of any length")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(before)


def forced_form(vertical: bool):
    """A patch under which ``build_tree`` makes the database's tree, and so
    every tree made from it, vertical (on tidsets) or on paths, whatever
    the form rule gives. It and ``is_vertical`` are all that the tests,
    but for those of the rule's verdicts, know of how a form is chosen and
    stored, so a refit of the rule's constants restates only those."""
    return mock.patch.object(ifpmine.tree, "_takes_bitsets", return_value=vertical)


def is_vertical(tree) -> bool:
    """Whether the tree is vertical, rather than on paths."""
    return tree._tids is not None


def recording_kernels(monkeypatch) -> list[str]:
    """Patch both pair kernels to record the name of each one called, in
    the list returned."""
    used = []
    for name in ("_path_pairs", "_bitset_pairs"):

        def recording(*args, name=name, real=getattr(ifpmine.tree, name)):
            used.append(name)
            return real(*args)

        monkeypatch.setattr(ifpmine.tree, name, recording)
    return used


def universe(db: TransactionDatabase) -> frozenset[int]:
    """The items that occur in at least one transaction."""
    return frozenset(i for t in db for i in t)


def random_db(rng: random.Random, max_items: int, max_tx: int, max_density: float) -> TransactionDatabase:
    """A synthetic database of up to ``max_items`` items and ``max_tx``
    transactions at a density of 0.1 to ``max_density``, all drawn from
    ``rng``; each test module binds its own bounds."""
    return gen_synthetic(
        SynthConfig(
            num_items=rng.randint(1, max_items),
            num_transactions=rng.randint(1, max_tx),
            density=rng.uniform(0.1, max_density),
            seed=rng.getrandbits(64),
        )
    )


def projected_db(db: TransactionDatabase, x: int) -> TransactionDatabase:
    """The transactions that hold x, without x."""
    return TransactionDatabase.from_itemsets([[i for i in t if i != x] for t in db if x in t])


def residual_db(db: TransactionDatabase, x: int) -> TransactionDatabase:
    """Every transaction, without x."""
    return TransactionDatabase.from_itemsets([[i for i in t if i != x] for t in db])


def prune_infrequent_items(db: TransactionDatabase, sigma: int) -> TransactionDatabase:
    """The database without the items whose support is below sigma; emptied
    transactions stay, so the transaction count does not change."""
    counts = item_supports(db)
    return TransactionDatabase.from_itemsets(
        [[i for i in t if counts[i] >= sigma] for t in db]
    )


def dump_lines(tree) -> list[tuple[int, int, int]]:
    """The tree's unlabeled ``dump`` read back: (depth, item, count) per line."""
    out = []
    for line in tree.dump().splitlines():
        name = line.lstrip(" ")
        item, count = map(int, name.split(":"))
        out.append(((len(line) - len(name)) // 2, item, count))
    return out


def decompress(tree) -> list[tuple[tuple[int, ...], int]]:
    """The database a tree represents, read back from its ``dump``: each
    nonempty transaction as (items in the tree's order, multiplicity), in
    tree order, a path before its extensions. The transactions that end at
    a line are its count minus its children's counts."""
    out, stack = [], []  # stack: the [path, ending] of each line on the current path
    for depth, item, count in dump_lines(tree):
        del stack[depth:]
        if stack:
            stack[-1][1] -= count
        entry = [(stack[-1][0] if stack else ()) + (item,), count]
        out.append(entry)
        stack.append(entry)
    return [(path, ending) for path, ending in out if ending > 0]
