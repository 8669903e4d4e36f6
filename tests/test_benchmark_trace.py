"""The benchmark's traced pass on each workload, at a tiny size.

``benchmark/test_benchmark.py::test_every_workload_runs_checked_and_traced``
also asserts that ``build_tree`` makes nodes under the trace, which it no
longer does: the miners prepare the database's tree with ``pending_tree``
and make its nodes only when they split it, so that test stops at that
assertion. This copy asserts on the miners' own node count instead and so
keeps its other checks running: every query is checked and traced, the
input file is removed and the counts repeat from run to run. Delete it once
the benchmark's test passes again (ROADMAP item 1).
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
