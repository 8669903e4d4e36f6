"""ifpmine benchmark: one seeded workload, measured for a fixed time.

    python3 benchmark/run.py --workload mii-dense --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and from nowhere else. The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of the traced
passes with ``--trace 1``. The lines before it say the same for a reader,
with sample counts. With ``--trace 1`` the spans of the last traced pass are
written to ``benchmark/.work/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"


def import_package() -> bool:
    """Put the checkout's ``src`` first on the path and confirm ``ifpmine``
    resolves there, so an installed copy elsewhere is never measured."""
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("ifpmine")
    return spec is not None and spec.origin is not None and Path(spec.origin).resolve().parent.parent == SRC


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not import_package():
        print(f"benchmark: no ifpmine package under {SRC}", file=sys.stderr)
        return 2
    import harness
    import tracing
    from workloads import WORKLOADS, make_input

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inp = make_input(workload, args.seed)
    recorded = json.loads((HERE / "expected.json").read_text()).get(workload.name, {}).get(str(args.seed))
    # Recorded hashes apply only to the very input they were recorded for.
    expected = recorded["results"] if recorded and recorded["input"] == inp.sha256 else None

    WORK.mkdir(exist_ok=True)
    path = str(WORK / f"{workload.name}-{args.seed}-{os.getpid()}.fimi")
    run = harness.run_workload(workload, inp, path, args.seconds, bool(args.trace), expected)

    print(f"workload {workload.name}, seed {args.seed}, {'traced' if args.trace else 'untraced'}")
    print(
        f"input: {workload.dataset}; {inp.transactions} transactions, {inp.items} items, "
        f"mean length {inp.mean_length:.3f}, sha256 {inp.sha256}"
    )
    if expected is not None:
        print("outputs checked against the sha256 recorded for this input")
    elif recorded:
        print("NOTE: this seed's recorded sha256 belong to another input; not checked against them")
    for why in run.failures:
        print(f"FAILED {why}")
    print(
        f"calibration mean {statistics.fmean(run.calibration):.6f} s over {len(run.calibration)} samples; "
        f"times below are scaled by {run.speed_factor():.4f} to the reference speed"
    )

    if args.trace:
        metrics = run.layer_metrics()
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        n = len(run.layer_samples.get("tree.build_s", []))
        for name in tracing.PER_LAYER:
            print(f"  {name:34s} {metrics[name]:>16.6f} {units[name]:6s} median of {n} traced passes")
        untraced = statistics.median(run.pass_seconds[False]) * run.speed_factor()
        print(
            f"  tracing overhead: {metrics['trace.overhead_s']:+.4f} s per pass on {untraced:.4f} s untraced "
            f"({len(run.pass_seconds[True])} traced, {len(run.pass_seconds[False])} untraced passes)"
        )
        print("  where each query's time went, last traced pass:")
        for label, (seconds, layers) in tracing.query_breakdown(run.spans).items():
            shares = sorted(layers.items(), key=lambda kv: -kv[1])
            print(f"    {label:14s} {seconds:9.4f} s: " + ", ".join(f"{k} {v / seconds:.0%}" for k, v in shares))
        spans_path = WORK / f"spans-{workload.name}-{args.seed}.json"
        spans_path.write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "count"], "spans": run.spans}) + "\n"
        )
        print(f"  spans of the last traced pass: {os.path.relpath(spans_path)}")
    else:
        metrics = run.metrics()
        units = harness.E2E_UNITS
        for name, unit in units.items():
            if name == "peak_rss_mb":
                how = "process peak"
            else:
                samples = run.time_samples(name)
                clean = "" if samples is run.samples.get(name) else " of passes with failed queries"
                how = f"median of {len(samples)} samples{clean}; raw wall median {statistics.median(samples):.6f} s"
            print(f"  {name:14s} {metrics[name]:>12.6f} {unit:3s} {how}")
        print(f"  failed_share   {run.failed / run.attempted:>12.6f}     {run.failed} failed of {run.attempted} queries")
        ratio = f"{metrics['mii_ifp_s'] / metrics['mii_apriori_s']:.2f}" if metrics["mii_apriori_s"] > 0 else "n/a"
        print(f"  derived, not gated: ifp/apriori time ratio {ratio}")

    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
