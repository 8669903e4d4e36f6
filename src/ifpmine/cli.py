"""Command-line front end.

Commands: ``mine-mii``, ``mine-mlms``, ``check``, ``bench``, ``gen``.

Exit codes: 0 success, 1 check disagreement (or bench cross-check mismatch),
2 usage error, 3 I/O or input-format failure, 4 oracle guard violation,
5 out of memory or recursion depth.
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
import time
from collections import deque
from dataclasses import astuple, dataclass, fields
from itertools import islice
from multiprocessing.connection import Connection, wait

from .data import (
    FimiParseError,
    InvalidThresholdError,
    SupportThreshold,
    TransactionDatabase,
    read_fimi,
    to_fimi,
)
from .miners import MIIResult, MiningStats, mine_mii
from .mlms import MLMSResult, ThresholdVector, mine_mlms
from .oracle import OracleGuardError, SynthConfig, gen_synthetic

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_GUARD = 4
EXIT_RESOURCES = 5

MII_ALGORITHMS = ("ifp", "apriori", "oracle")

# A bench cell's result is awaited with poll(), whose timeout is a C int of milliseconds.
MAX_BENCH_TIMEOUT_S = (2**31 - 1) / 1000


@dataclass(frozen=True)
class BenchRecord:
    dataset: str
    algorithm: str
    threshold: str
    elapsed_ms: float
    itemsets: int
    peak_nodes: int

    def csv_row(self) -> str:
        return ",".join(map(str, astuple(self)))


BENCH_CSV_HEADER = ",".join(f.name for f in fields(BenchRecord))


def _comma_list(text: str, field: str) -> list[str]:
    """The fields of a comma list, none if every field is empty. An empty
    field among others, as in ``"2,,4"``, is an error, not skipped."""
    parts = text.split(",")
    if not any(p.strip() for p in parts):
        return []
    for k, p in enumerate(parts, start=1):
        if not p.strip():
            raise ValueError(f"{field} {k} of {len(parts)} is empty in {text!r}")
    return parts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifpmine",
        description="Minimally infrequent itemset mining and multi-level "
        "minimum support mining over FIMI transaction files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mii = sub.add_parser("mine-mii", help="mine minimally infrequent itemsets")
    mii.add_argument("--input", required=True, help="FIMI transaction file")
    mii.add_argument("--min-sup", required=True, help="threshold: count or percentage like 5%%")
    mii.add_argument("--algo", dest="algorithm", default="ifp", choices=MII_ALGORITHMS)
    mii.add_argument("--format", dest="fmt", default="text", choices=("text", "json"))
    mii.add_argument("--out", default=None, help="output file (default: stdout)")

    mlms = sub.add_parser("mine-mlms", help="mine frequent itemsets with per-length thresholds")
    mlms.add_argument("--input", required=True)
    mlms.add_argument("--thresholds", required=True, help='comma list, e.g. "4,4,3,2,1" or "10%%,8%%,5%%"')
    mlms.add_argument("--format", dest="fmt", default="text", choices=("text", "json"))
    mlms.add_argument("--out", default=None)

    check = sub.add_parser("check", help="cross-check ifp, apriori and the brute-force oracle")
    check.add_argument("--input", required=True)
    check.add_argument("--min-sup", required=True)

    bench = sub.add_parser(
        "bench",
        help="threshold sweep, CSV on stdout",
        description="Threshold sweep, CSV on stdout. An ifp cell's elapsed_ms includes counting its "
        "peak_nodes, which a vertical tree derives from its paths; apriori and oracle cells count none.",
    )
    bench.add_argument("--inputs", required=True, nargs="+")
    bench.add_argument(
        "--algos",
        dest="algorithms",
        metavar="ALGOS",
        default="ifp,apriori",
        help="comma list of ifp|apriori|oracle",
    )
    bench.add_argument("--thresholds", required=True, help="comma list of counts or percentages")
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--timeout", type=float, default=60.0, help="seconds per cell")

    gen = sub.add_parser("gen", help="write a synthetic FIMI dataset")
    gen.add_argument("--items", type=int, required=True)
    gen.add_argument("--transactions", type=int, required=True)
    gen.add_argument("--density", type=float, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)

    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def _render(result: MIIResult | MLMSResult, fmt: str) -> str:
    return result.to_json() if fmt == "json" else result.to_text()


def _resolve_sigma(text: str, db: TransactionDatabase) -> int:
    return SupportThreshold.parse(text).resolve(len(db))


def _run_mine_mii(args: argparse.Namespace) -> int:
    db = read_fimi(args.input)
    sigma = _resolve_sigma(args.min_sup, db)
    result = mine_mii(db, sigma, algorithm=args.algorithm)
    _emit(_render(result, args.fmt), args.out)
    return EXIT_OK


def _run_mine_mlms(args: argparse.Namespace) -> int:
    db = read_fimi(args.input)
    tv = ThresholdVector.from_text(args.thresholds, len(db))
    result = mine_mlms(db, tv)
    _emit(_render(result, args.fmt), args.out)
    return EXIT_OK


def _run_check(args: argparse.Namespace) -> int:
    db = read_fimi(args.input)
    sigma = _resolve_sigma(args.min_sup, db)
    results = {algo: mine_mii(db, sigma, algorithm=algo) for algo in MII_ALGORITHMS}
    reference = results["oracle"]
    ok = True
    for algo in ("ifp", "apriori"):
        result = results[algo]
        ours, theirs = set(result.miis), set(reference.miis)
        for s in sorted(ours ^ theirs):
            ok = False
            where = algo if s in ours else "oracle"
            print(f"DISAGREE {algo} vs oracle: {' '.join(map(str, s))} only in {where}")
        for s in sorted(ours & theirs):
            if result.supports[s] != reference.supports[s]:
                ok = False
                print(
                    f"DISAGREE {algo} vs oracle: {' '.join(map(str, s))} has support "
                    f"{result.supports[s]} in {algo}, {reference.supports[s]} in oracle"
                )
    if not ok:
        return EXIT_DISAGREEMENT
    print(f"OK: ifp, apriori and oracle agree on {len(reference.miis)} itemsets at sigma={sigma}")
    return EXIT_OK


def _bench_worker(path: str, algo: str, threshold: str, conn: Connection) -> None:
    """Runs one bench cell in a child process so timeouts can be enforced.
    The timed call includes ``ifp``'s ``MiningStats``: its ``peak_nodes``
    count, which a vertical tree derives from its paths."""
    try:
        db = read_fimi(path)
        sigma = _resolve_sigma(threshold, db)
        stats = MiningStats()
        t0 = time.perf_counter()
        result = mine_mii(db, sigma, algorithm=algo, stats=stats)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        conn.send(("ok", round(elapsed_ms, 3), len(result.miis), stats.peak_nodes))
    except Exception as exc:  # reported by the parent, sweep continues
        conn.send(("error", f"{type(exc).__name__}: {exc}"))


def bench_sweep(
    datasets: list[str],
    algorithms: list[str],
    thresholds: list[str],
    jobs: int = 1,
    timeout: float = 60.0,
):
    """Run the full (dataset, algorithm, threshold) cross product and yield
    one record per cell in that deterministic order.

    Each cell runs in its own process; a cell that exceeds the timeout, by
    the wait or by its own ``elapsed_ms``, or fails, or whose worker exits
    without a result, is recorded with -1 in every measured column instead
    of aborting the sweep. Up to ``jobs`` cells run concurrently, and closing
    the iterator early stops every worker still running. The sweeps the CLI
    refuses raise here, before any cell runs: ``ValueError`` for an empty
    list, an algorithm outside ``MII_ALGORITHMS``, a ``jobs`` below 1, a
    timeout not in (0, ``MAX_BENCH_TIMEOUT_S``], or a threshold that does
    not parse or is 0, and ``OSError`` for an input that cannot be opened.
    """
    if not algorithms or not thresholds:
        raise ValueError("bench needs at least one algorithm and one threshold")
    for algo in algorithms:
        if algo not in MII_ALGORITHMS:
            raise ValueError(f"unknown algorithm: {algo}")
    if jobs < 1:
        raise ValueError(f"bench needs jobs of at least 1, got {jobs}")
    if not 0 < timeout <= MAX_BENCH_TIMEOUT_S:  # nan too
        raise ValueError(
            f"bench needs a timeout greater than 0 and at most {MAX_BENCH_TIMEOUT_S} s, got {timeout}"
        )
    for threshold in thresholds:
        # A 0 resolves to sigma 0 on every dataset; a positive percentage resolves per dataset.
        if SupportThreshold.parse(threshold).value == 0:
            raise InvalidThresholdError(f"threshold {threshold!r} is 0; sigma must be >= 1")
    for path in datasets:
        open(path, "r", encoding="ascii").close()
    return _sweep([(d, a, t) for d in datasets for a in algorithms for t in thresholds], jobs, timeout)


def _sweep(cells: list[tuple[str, str, str]], jobs: int, timeout: float):
    ctx = multiprocessing.get_context()
    pending = iter(cells)
    running: deque[tuple[tuple[str, str, str], multiprocessing.Process, Connection, float]] = deque()

    def launch() -> None:
        for cell in islice(pending, jobs - len(running)):
            result, sender = ctx.Pipe(duplex=False)
            p = ctx.Process(target=_bench_worker, args=(*cell, sender), daemon=True)
            p.start()
            sender.close()  # the worker holds the only copy, so its exit ends the pipe
            running.append((cell, p, result, time.monotonic()))

    def stop(proc: multiprocessing.Process, result: Connection) -> None:
        proc.terminate()
        proc.join()
        result.close()

    try:
        launch()
        while running:
            (dataset, algo, threshold), proc, result, started = running[0]
            measured = (-1, -1, -1)
            # The sentinel wakes the wait as soon as the worker exits, reported or not.
            if wait([result, proc.sentinel], max(0.0, timeout - (time.monotonic() - started))):
                try:
                    msg = result.recv()  # a result sent before the worker exited still counts
                except EOFError:
                    proc.join()
                    msg = ("error", f"worker exited with code {proc.exitcode}")
                if msg[0] == "error":
                    print(f"bench cell failed ({dataset}, {algo}, {threshold}): {msg[1]}", file=sys.stderr)
                elif msg[1] <= timeout * 1000:  # else the cell ran beyond the timeout, however soon it reported
                    measured = msg[1:]
            stop(proc, result)
            running.popleft()
            launch()
            yield BenchRecord(dataset, algo, threshold, *measured)
    finally:
        for _, proc, result, _ in running:
            stop(proc, result)


def cross_check_counts(records: list[BenchRecord]) -> list[tuple[str, str, list[int]]]:
    """Completed cells for the same (dataset, threshold) must agree on the
    itemset count regardless of algorithm; timed-out cells are skipped.
    Returns the offending (dataset, threshold, counts) groups."""
    counts: dict[tuple[str, str], set[int]] = {}
    for r in records:
        if r.itemsets >= 0:
            counts.setdefault((r.dataset, r.threshold), set()).add(r.itemsets)
    return [
        (dataset, threshold, sorted(seen))
        for (dataset, threshold), seen in counts.items()
        if len(seen) > 1
    ]


def _run_bench(args: argparse.Namespace) -> int:
    algorithms = _comma_list(args.algorithms, "algorithm")
    thresholds = _comma_list(args.thresholds, "threshold")
    sweep = bench_sweep(args.inputs, algorithms, thresholds, jobs=args.jobs, timeout=args.timeout)
    records = []
    print(BENCH_CSV_HEADER)
    for record in sweep:
        records.append(record)
        print(record.csv_row())
        sys.stdout.flush()

    mismatches = cross_check_counts(records)
    for dataset, threshold, seen in mismatches:
        print(
            f"MISMATCH: itemset counts {seen} for {dataset} at {threshold}",
            file=sys.stderr,
        )
    return EXIT_DISAGREEMENT if mismatches else EXIT_OK


def _run_gen(args: argparse.Namespace) -> int:
    cfg = SynthConfig(
        num_items=args.items,
        num_transactions=args.transactions,
        density=args.density,
        seed=args.seed,
    )
    db = gen_synthetic(cfg)
    _emit(to_fimi(db), args.out)
    return EXIT_OK


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command; returns the process exit code."""
    handlers = {
        "mine-mii": _run_mine_mii,
        "mine-mlms": _run_mine_mlms,
        "check": _run_check,
        "bench": _run_bench,
        "gen": _run_gen,
    }
    try:
        return handlers[args.command](args)
    except OracleGuardError as exc:
        print(f"oracle guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except FimiParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (RecursionError, MemoryError) as exc:
        print(f"out of resources: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RESOURCES


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
