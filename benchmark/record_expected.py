"""Record the sha256 of every rendered result for the default seeds.

    python3 benchmark/record_expected.py

Runs each workload's queries once for each of the seeds 0 .. RECORDED_SEEDS-1
(``workloads.py``), refuses to record a result that
fails its check (ifp against apriori, MLMS against ``mlms_oracle``), and
rewrites ``benchmark/expected.json``. Run it only when the recorded outputs
are meant to change, such as after a change to a workload's definition.
"""

from __future__ import annotations

import json
import sys

from run import HERE, import_package


def main() -> int:
    if not import_package():
        print("benchmark: no ifpmine package under src/", file=sys.stderr)
        return 2
    import ifpmine.data as data
    from harness import Run, execute, queries, sha256
    from workloads import RECORDED_SEEDS, WORKLOADS, make_input

    recorded: dict[str, dict[str, dict]] = {}
    for w in WORKLOADS.values():
        for seed in range(RECORDED_SEEDS):
            inp = make_input(w, seed)
            run = Run(w, inp, path="", expected=None)
            run.prepare()
            db = data.parse_fimi(inp.text)
            outcomes = {q: execute(q, db, None) for q in queries(w)}
            run.check(outcomes)
            if run.failed:
                print(f"{w.name} seed {seed}: not recorded: {run.failures}", file=sys.stderr)
                return 1
            results = {q.check_key: sha256(o.text) for q, o in outcomes.items()}
            recorded.setdefault(w.name, {})[str(seed)] = {"input": inp.sha256, "results": results}
            print(f"{w.name} seed {seed}: {len(results)} results", file=sys.stderr)
    (HERE / "expected.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
