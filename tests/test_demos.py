"""The example scripts under demos/ run and print their walkthrough, byte for
byte as pinned here: a change to a demo's output is a change to this file.
The benchmark demo's CSV is pinned without what changes from run to run: the
temporary directory of its datasets and the ``elapsed_ms`` column."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# sha256 of each demo's stdout, the benchmark demo's as steady_bench_csv leaves it
DEMOS = {
    "01_mining_minimal_infrequent.py": "4a5a47d7536e20d62976ed90db4073e6f0215d51c35d7a1c9fdcd8b7d74cbf20",
    "02_multi_level_thresholds.py": "ef7bfc6d051bf24f7b8aa5712285edd109f197b1e9bbab51926a95969c041754",
    "03_tree_decomposition.py": "5b01c4547e927effb1de5c870aca991301df432c147834bbd37eb816140b8d64",
    "04_synthetic_benchmark.py": "dc3b18e7deb98c37a61990750eb908310a5ca226be812358b84c8264d6c58725",
}


def steady_bench_csv(out: str) -> str:
    """Bench CSV with each dataset's directory and the elapsed_ms column cut."""
    rows = [line.split(",") for line in out.splitlines()]
    return "".join(",".join([os.path.basename(r[0]), *r[1:3], *r[4:]]) + "\n" for r in rows)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    out = steady_bench_csv(proc.stdout) if name == "04_synthetic_benchmark.py" else proc.stdout
    assert hashlib.sha256(out.encode()).hexdigest() == DEMOS[name], out
