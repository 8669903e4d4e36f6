"""Time both tree forms on the cells ``tree._takes_bitsets`` was fitted on.

    python3 tools/form_cells.py [--repeat N] [CELL ...]

The package is imported from the ``src/`` of the checkout that holds this
file. For each cell, an input and one query on it, one JSON object is
printed per line: the cell's name, the numbers the form rule reads
(``m``, ``s``, ``t``, ``o``, see ``_takes_bitsets``), the form it picks,
and the best of N wall times, in seconds, of the whole query with the
database tree forced vertical and forced onto its paths, the two forms
alternated. Both forced runs must render the same text, or the tool stops.
Name cells to run only those; with none, every cell runs, which takes a few
minutes (the largest input alone takes seconds to generate).

The inputs come from the benchmark's generators (``benchmark/workloads.py``,
imported, so a cell names the same rows as the benchmark) and from
``gen_synthetic``. ``FITTED`` holds the rows the rule's constants were
fitted on, as this tool printed them, and ``tests/test_form_cells.py``
checks that the rule picks the faster form on each, or one within 10%.

A change to either form's cost, such as a faster tidset build, needs a
refit: run every cell, fit the constants on the output, paste its rows
into ``FITTED`` and restate ``tests/test_tree.py``'s exact tie,
``test_a_tie_takes_the_paths``. Only if a benchmark query changes form is
``tests/test_form_cells.py::test_every_benchmark_query_runs_vertical``
restated. Every other test forces its form with ``conftest.forced_form``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import workloads  # noqa: E402
from ifpmine import SynthConfig, SupportThreshold, ThresholdVector, TransactionDatabase, gen_synthetic  # noqa: E402
from ifpmine import mine_mii, mine_mlms, parse_fimi, tree  # noqa: E402


@dataclass(frozen=True)
class Cell:
    """One query, ``("mii", threshold)`` or ``("mlms", vector)``, on the
    database ``make`` generates."""

    name: str
    make: Callable[[], TransactionDatabase]
    kind: str
    threshold: str


def run_of(db: TransactionDatabase, kind: str, threshold: str) -> Callable[[], str]:
    """The query as one call that returns its rendered text: ``ifp`` for
    MII, the pruned MLMS miner for a vector, as the benchmark runs them."""
    if kind == "mii":
        sigma = SupportThreshold.parse(threshold).resolve(len(db))
        return lambda: mine_mii(db, sigma, "ifp").to_text()
    tv = ThresholdVector.from_text(threshold, len(db))
    return lambda: mine_mlms(db, tv).to_text()


def features(run: Callable[[], object]) -> dict[str, int]:
    """The numbers the form rule reads in the run, which asks it once."""
    seen = []
    real = tree._takes_bitsets
    with mock.patch.object(tree, "_takes_bitsets", lambda *args: seen.append(args) or real(*args)):
        run()
    (args,) = seen
    return dict(zip("msto", args))


def timed(run: Callable[[], str], vertical: bool) -> tuple[float, str]:
    """Wall time of one run with the database tree forced into one form,
    and the run's text."""
    with mock.patch.object(tree, "_takes_bitsets", return_value=vertical):
        t0 = time.perf_counter()
        text = run()
        return time.perf_counter() - t0, text


def measure(cell: Cell, repeat: int) -> dict[str, object]:
    run = run_of(cell.make(), cell.kind, cell.threshold)
    f = features(run)
    best = {True: float("inf"), False: float("inf")}
    texts = set()
    for k in range(repeat):
        for vertical in (k % 2 == 0, k % 2 == 1):
            elapsed, text = timed(run, vertical)
            best[vertical] = min(best[vertical], elapsed)
            texts.add(text)
    if len(texts) != 1:
        raise SystemExit(f"{cell.name}: the two forms rendered different text")
    return {
        "cell": cell.name,
        **f,
        "rule": "vertical" if tree._takes_bitsets(*f.values()) else "paths",
        "vertical_s": round(best[True], 6),
        "paths_s": round(best[False], 6),
    }


def _workload(name: str, seed: int = 0) -> Callable[[], TransactionDatabase]:
    return lambda: parse_fimi(workloads.make_input(workloads.WORKLOADS[name], seed).text)


def _rows(make_rows: Callable[[random.Random], list[list[int]]]) -> Callable[[], TransactionDatabase]:
    return lambda: TransactionDatabase.from_itemsets(make_rows(random.Random("w:0")))


def _rows_of(n: int, lo: int, hi: int) -> Callable[[], TransactionDatabase]:
    """n seeded rows of ``lo``-``hi`` of 200 items, wide and sparse."""

    def make() -> TransactionDatabase:
        rng = random.Random(1)
        return TransactionDatabase.from_itemsets(rng.sample(range(200), rng.randint(lo, hi)) for _ in range(n))

    return make


def _patterns() -> TransactionDatabase:
    """ROADMAP's *patterns* file: 20,000 rows, each the union of 1-3 of 60
    patterns of 3-7 of 300 items, each item kept with probability 0.9."""
    rng = random.Random(11)
    pats = [rng.sample(range(300), rng.randint(3, 7)) for _ in range(60)]
    rows = []
    for _ in range(20000):
        row = set()
        for p in rng.sample(pats, rng.randint(1, 3)):
            row.update(i for i in p if rng.random() >= 0.1)
        rows.append(sorted(row))
    return TransactionDatabase.from_itemsets(rows)


def _gen(items: int, transactions: int, density: float, seed: int) -> Callable[[], TransactionDatabase]:
    return lambda: gen_synthetic(SynthConfig(items, transactions, density, seed))


def cells() -> list[Cell]:
    uniform_500 = _rows(lambda rng: workloads.uniform_rows(500, 20000, 0.01, rng, 0.01))
    zipf_1000 = _rows(lambda rng: workloads.zipf_rows(1000, 50000, 0.2, 0.8, rng))
    uniform_1000 = _rows(lambda rng: workloads.uniform_rows(1000, 100000, 0.01, rng, 0.01))
    out = [Cell(f"mii-skewed:{seed} mii 1%", _workload("mii-skewed", seed), "mii", "1%") for seed in (0, 1)]
    out.append(Cell("mii-skewed:0 mlms 2%,1%", _workload("mii-skewed"), "mlms", "2%,1%"))
    for name in ("mii-dense", "mlms-dense"):
        w = workloads.WORKLOADS[name]
        out += [Cell(f"{name}:0 mii {t}", _workload(name), "mii", t) for t in w.mii]
        out += [Cell(f"{name}:0 mlms {v}", _workload(name), "mlms", v) for v in w.mlms]
    out.append(Cell("gen 30x50000 density 0.1 seed 1 @1%", _gen(30, 50000, 0.1, 1), "mii", "1%"))
    out += [Cell(f"dense 50x10000 @{t}", _gen(50, 10000, 0.3, 42), "mii", t) for t in ("30%", "10%", "5%")]
    out.append(Cell("sparse 200x5000 @2%", _gen(200, 5000, 0.05, 7), "mii", "2%"))
    out += [Cell(f"patterns 300x20000 @{t}", _patterns, "mii", t) for t in ("2%", "1%", "0.5%")]
    out += [Cell(f"5000 rows of 2-8 of 200 @{t}", _rows_of(5000, 2, 8), "mii", t) for t in ("1", "25", "100")]
    out += [Cell(f"20000 rows of 1-3 of 200 @{t}", _rows_of(20000, 1, 3), "mii", t) for t in ("1", "25")]
    out += [Cell(f"uniform 500x20000 @{t}", uniform_500, "mii", t) for t in ("1.2%", "0.5%")]
    out += [Cell(f"zipf 1000x50000 @{t}", zipf_1000, "mii", t) for t in ("1%", "0.1%")]
    out += [Cell(f"uniform 1000x100000 @{t}", uniform_1000, "mii", t) for t in ("1.2%", "1%")]
    return out


# Per cell: m, s, t, o, and the best of 5 query times in ms, vertical and
# on paths (Python 3.11, 2 shared cores). The rows of 2-8 of 200 items tie
# at 1 (2.95-3.60 s vertical, 2.79-3.66 s on paths in four timings),
# and the rule, which does not see sigma, keeps them vertical.
FITTED = {
    "mii-skewed:0 mii 1%": (148, 2750, 600, 2760, 9.7, 11.3),
    "mii-skewed:1 mii 1%": (148, 2750, 600, 2760, 10.1, 11.3),
    "mii-skewed:0 mlms 2%,1%": (148, 2750, 600, 2760, 2.1, 2.0),
    "mii-dense:0 mii 30%": (20, 3907, 600, 7200, 1.0, 2.4),
    "mii-dense:0 mii 10%": (40, 7200, 600, 7200, 3.0, 15.5),
    "mii-dense:0 mlms 30%,10%": (40, 7200, 600, 7200, 1.5, 5.9),
    "mlms-dense:0 mii 30%": (21, 1360, 200, 2400, 0.5, 1.1),
    "mlms-dense:0 mii 10%": (40, 2400, 200, 2400, 2.8, 8.3),
    "mlms-dense:0 mlms 25%,9%,3%": (40, 2400, 200, 2400, 10.1, 18.7),
    "gen 30x50000 density 0.1 seed 1 @1%": (30, 150416, 50000, 150416, 70.7, 140),
    "dense 50x10000 @30%": (30, 91182, 10000, 150564, 27.9, 73.8),
    "dense 50x10000 @10%": (50, 150564, 10000, 150564, 30.5, 133),
    "dense 50x10000 @5%": (50, 150564, 10000, 150564, 82.3, 954),
    "sparse 200x5000 @2%": (200, 49962, 5000, 49962, 36.0, 62.9),
    "patterns 300x20000 @2%": (188, 181999, 20000, 181999, 128, 406),
    "patterns 300x20000 @1%": (188, 181999, 20000, 181999, 116, 353),
    "patterns 300x20000 @0.5%": (188, 181999, 20000, 181999, 118, 339),
    "5000 rows of 2-8 of 200 @1": (200, 25044, 5000, 25044, 3564, 3539),
    "5000 rows of 2-8 of 200 @25": (200, 25044, 5000, 25044, 49.8, 54.3),
    "5000 rows of 2-8 of 200 @100": (200, 25044, 5000, 25044, 46.1, 54.2),
    "20000 rows of 1-3 of 200 @1": (200, 39928, 20000, 39928, 1691, 1231),
    "20000 rows of 1-3 of 200 @25": (200, 39928, 20000, 39928, 88.2, 72.2),
    "uniform 500x20000 @1.2%": (151, 40765, 20000, 100000, 93.1, 68.4),
    "uniform 500x20000 @0.5%": (500, 100000, 20000, 100000, 304, 215),
    "zipf 1000x50000 @1%": (42, 61463, 50000, 154697, 91.6, 61.6),
    "zipf 1000x50000 @0.1%": (761, 144122, 50000, 154697, 999, 466),
    "uniform 1000x100000 @1.2%": (301, 406350, 100000, 1000000, 1237, 368),
    "uniform 1000x100000 @1%": (500, 625250, 100000, 1000000, 1794, 631),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeat", type=int, default=3, help="runs of each form per cell; the best is kept")
    parser.add_argument("cells", nargs="*", help="cell names to run (default: all)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    chosen = [c for c in cells() if not args.cells or c.name in args.cells]
    if unknown := sorted(set(args.cells) - {c.name for c in chosen}):
        parser.error(f"no such cell: {', '.join(unknown)}")
    for cell in chosen:
        print(json.dumps(measure(cell, args.repeat)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
