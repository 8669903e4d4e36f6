"""The benchmark's traced pass on each workload, at a tiny size.

A copy of ``benchmark/test_benchmark.py::test_every_workload_runs_checked_and_traced``,
which passes again since the miners make their trees with ``build_tree``
and ``projected_tree``, the functions the tracer wraps. The benchmark's
own tests do not run in CI yet, so this copy keeps the same checks in the
tier-1 suite: every query is checked and traced, the input file is removed
and the counts repeat from run to run. It asserts on the miners' own node
count, ``miners.peak_nodes``, where the benchmark's test reads the
tracer's ``tree.build_nodes``. Delete it once ``benchmark/`` runs in CI
(ROADMAP item 1).
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTS = [name for name in tracing.PER_LAYER if name.endswith(("_calls", "_nodes"))]


def tiny_run(tmp_path: Path, name: str) -> harness.Run:
    w = workloads.WORKLOADS[name].shrunk(16, 60)  # items, transactions
    return harness.run_workload(w, workloads.make_input(w, 0), str(tmp_path / "in.fimi"), 0.0, True, None)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_runs_checked_and_traced(tmp_path, monkeypatch, name):
    monkeypatch.setattr(harness, "MIN_QUERY_S", 0.01)  # repeat each tiny query for 10 ms
    run = tiny_run(tmp_path, name)
    assert run.failed == 0, run.failures
    assert run.attempted == 2 * len(harness.queries(run.workload))
    assert set(run.metrics()) == set(harness.E2E_UNITS)
    layers = run.layer_metrics()
    assert set(layers) == set(tracing.PER_LAYER)
    assert layers["miners.peak_nodes"] > 0 and layers["mlms.ifp_mlms_calls"] > 0
    assert not (tmp_path / "in.fimi").exists()

    again = tiny_run(tmp_path, name)
    assert {k: again.layer_metrics()[k] for k in COUNTS} == {k: layers[k] for k in COUNTS}
