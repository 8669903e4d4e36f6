"""Smoke tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q benchmark
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench_run

assert bench_run.import_package()

import ifpmine.miners as miners  # noqa: E402
import ifpmine.mlms as mlms  # noqa: E402
from ifpmine.oracle import MAX_ORACLE_TRANSACTION_LEN  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = bench_run.HERE.parent
TINY = (16, 60)  # items, transactions
COUNTS = [name for name in tracing.PER_LAYER if name.endswith(("_calls", "_nodes"))]


@pytest.fixture(autouse=True)
def short_repetitions(monkeypatch):
    """Tiny queries take about a millisecond; repeat them for 10 ms, not 250."""
    monkeypatch.setattr(harness, "MIN_QUERY_S", 0.01)


def tiny_run(tmp_path: Path, name: str, trace: bool, expected=None) -> harness.Run:
    w = workloads.WORKLOADS[name].shrunk(*TINY)
    inp = workloads.make_input(w, 0)
    return harness.run_workload(w, inp, str(tmp_path / "in.fimi"), 0.0, trace, expected)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_runs_checked_and_traced(tmp_path, name):
    run = tiny_run(tmp_path, name, trace=True)
    assert run.failed == 0, run.failures
    assert run.attempted == 2 * len(harness.queries(run.workload))
    assert set(run.metrics()) == set(harness.E2E_UNITS)
    layers = run.layer_metrics()
    assert set(layers) == set(tracing.PER_LAYER)
    assert layers["tree.build_nodes"] > 0 and layers["mlms.ifp_mlms_calls"] > 0
    assert not (tmp_path / "in.fimi").exists()

    again = tiny_run(tmp_path, name, trace=True)
    assert {k: again.layer_metrics()[k] for k in COUNTS} == {k: layers[k] for k in COUNTS}


def test_tracing_restores_the_package(tmp_path):
    before = (miners.residual_tree, mlms.ifp_mlms, miners.support)
    tiny_run(tmp_path, "mlms-dense", trace=True)
    assert (miners.residual_tree, mlms.ifp_mlms, miners.support) == before


def test_corrupted_mii_result_is_a_failure(tmp_path, monkeypatch):
    real = miners.ifp_min

    def drop_last(tree, sigma, stats=None):
        result = real(tree, sigma, stats=stats)
        return miners.MIIResult(result.miis[:-1], result.supports, result.sigma, result.algorithm)

    monkeypatch.setattr(miners, "ifp_min", drop_last)
    run = tiny_run(tmp_path, "mii-dense", trace=False)
    # Both queries of each MII threshold fail, in both passes.
    assert run.failed == 2 * 2 * len(run.workload.mii)
    assert all("disagree" in f for f in run.failures)


def test_corrupted_mlms_result_is_a_failure(tmp_path, monkeypatch):
    real = mlms.ifp_mlms
    depth = []

    def drop_one(tree, tv, *args, **kwargs):
        depth.append(1)
        try:
            out = real(tree, tv, *args, **kwargs)
        finally:
            depth.pop()
        return out if depth else set(sorted(out)[1:])  # every outermost call

    monkeypatch.setattr(mlms, "ifp_mlms", drop_one)
    run = tiny_run(tmp_path, "mlms-dense", trace=False)
    assert run.failed == 2
    assert run.failures == ["mlms@25%,9%,3%: itemsets differ from mlms_oracle"] * 2


def test_repetitions_that_disagree_are_a_failure(tmp_path, monkeypatch):
    real = mlms.ifp_mlms
    calls = []

    def drop_first(tree, tv, *args, **kwargs):
        first = not calls  # only the outermost call of the first repetition
        calls.append(1)
        out = real(tree, tv, *args, **kwargs)
        return set(sorted(out)[1:]) if first else out

    monkeypatch.setattr(mlms, "ifp_mlms", drop_first)
    monkeypatch.setattr(harness, "MIN_QUERY_S", 0.2)  # a tiny query repeats many times
    run = tiny_run(tmp_path, "mlms-dense", trace=False)
    assert run.failures == ["mlms@25%,9%,3%: repetitions rendered different text"]


def test_failing_queries_still_give_a_result_line(tmp_path, monkeypatch, capsys):
    def broken(db, sigma):
        raise RuntimeError("broken")

    monkeypatch.setattr(miners, "apriori_min", broken)
    monkeypatch.setitem(workloads.WORKLOADS, "mii-dense", workloads.WORKLOADS["mii-dense"].shrunk(*TINY))
    monkeypatch.setattr(bench_run, "WORK", tmp_path)
    assert bench_run.main(["--workload", "mii-dense", "--seed", "0", "--seconds", "0", "--trace", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    last = json.loads(out[-1])
    # Every MII query fails: apriori raises, so ifp has nothing to agree with.
    assert not last["correct"] and last["failed"] == 2 * 2 * 2 and last["attempted"] == 2 * 5
    assert list(last["metrics"]) == list(harness.E2E_UNITS)
    assert all(m["value"] > 0 for m in last["metrics"].values())
    assert any("of passes with failed queries" in line for line in out)


def test_recorded_hash_mismatch_is_a_failure(tmp_path):
    w = workloads.WORKLOADS["mii-skewed"]
    wrong = {harness.Query(k, t).check_key: "0" * 64 for k, ts in (("ifp", w.mii), ("mlms", w.mlms)) for t in ts}
    run = tiny_run(tmp_path, "mii-skewed", trace=False, expected=wrong)
    assert run.failed == run.attempted


def test_main_prints_the_result_line_last(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "mii-skewed", workloads.WORKLOADS["mii-skewed"].shrunk(*TINY))
    monkeypatch.setattr(bench_run, "WORK", tmp_path)
    for trace, names in ((0, harness.E2E_UNITS), (1, tracing.PER_LAYER)):
        assert bench_run.main(["--workload", "mii-skewed", "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
        last = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
        assert list(last["metrics"]) == list(names)
    assert (tmp_path / "spans-mii-skewed-3.json").exists()


def test_benchmark_without_the_package_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench_run.HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    args = ["--workload", "mii-dense", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable, *cmd[1:], *args], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER


def test_inputs_are_seeded_and_recorded():
    recorded = json.loads((bench_run.HERE / "expected.json").read_text())
    for name, w in workloads.WORKLOADS.items():
        assert workloads.make_input(w, 5) == workloads.make_input(w, 5)
        assert workloads.make_input(w, 5).sha256 != workloads.make_input(w, 6).sha256
        for seed in ("0", "1"):
            assert workloads.make_input(w, int(seed)).sha256 == recorded[name][seed]["input"]


def test_mlms_inputs_stay_under_the_oracle_guard():
    for w in workloads.WORKLOADS.values():
        for seed in range(workloads.RECORDED_SEEDS):
            rows = workloads.make_input(w, seed).text.splitlines()
            assert max(len(r.split()) for r in rows) <= MAX_ORACLE_TRANSACTION_LEN
