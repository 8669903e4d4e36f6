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
``gen_synthetic``. Refit the rule's constants on this output whenever a
change moves the cost of either form, such as a faster tidset build.
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
    """n seeded rows of ``lo``-``hi`` of 200 items: ``tests/test_tree.py``'s
    wide sparse rows are 20,000 of 1-3, and were 5,000 of 2-8."""

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
