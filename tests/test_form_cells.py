"""The form rule's evidence: ``tools/form_cells.py``'s feature step, the
rule's verdict on each cell it was fitted on, and the form it gives every
query of the benchmark's workloads. Nothing here times a run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import form_cells  # noqa: E402  (it puts src/ and benchmark/ on the path)
import workloads  # noqa: E402
from ifpmine import TransactionDatabase, parse_fimi, tree  # noqa: E402


def test_features_are_the_numbers_the_rule_reads():
    db = TransactionDatabase.from_itemsets([[1, 2], [1, 3], [2], []])
    # At 2 the order holds items 1 and 2, of support 2 each; item 3's
    # support counts in o alone. The empty row counts in t.
    assert form_cells.features(form_cells.run_of(db, "mii", "2")) == {"m": 2, "s": 4, "t": 4, "o": 5}
    # The pruned MLMS tree's floor is the least threshold of lengths 2-L.
    assert form_cells.features(form_cells.run_of(db, "mlms", "2,1")) == {"m": 3, "s": 5, "t": 4, "o": 5}


def test_fitted_names_the_tools_cells():
    assert list(form_cells.FITTED) == [cell.name for cell in form_cells.cells()]


@pytest.mark.parametrize("name", list(form_cells.FITTED))
def test_the_rule_takes_the_faster_form_on_each_fitted_cell(name):
    m, s, t, o, vertical_ms, paths_ms = form_cells.FITTED[name]
    taken = vertical_ms if tree._takes_bitsets(m, s, t, o) else paths_ms
    assert taken <= 1.1 * min(vertical_ms, paths_ms), (taken, vertical_ms, paths_ms)


@pytest.mark.parametrize("name", ["mii-dense", "mii-skewed", "mlms-dense"])
def test_every_benchmark_query_runs_vertical(name):
    w = workloads.WORKLOADS[name]
    for seed in range(workloads.RECORDED_SEEDS):
        db = parse_fimi(workloads.make_input(w, seed).text)
        for kind, thresholds in (("mii", w.mii), ("mlms", w.mlms)):
            for threshold in thresholds:
                features = form_cells.features(form_cells.run_of(db, kind, threshold))
                assert tree._takes_bitsets(*features.values()), (seed, kind, threshold, features)
