"""Acceptance suite: one test per criterion, in order. Each test prints a
PASS/FAIL line with the measured numbers (visible with ``pytest -s``); the
test outcome itself is the machine-readable verdict.
"""

import random
import time

from ifpmine import (
    SynthConfig,
    ThresholdVector,
    TransactionDatabase,
    apriori_min,
    build_tree,
    gen_synthetic,
    ifp_min,
    mii_oracle,
    mine_mlms,
    mlms_oracle,
    projected_tree,
    residual_tree,
    support,
    to_fimi,
    tree_support,
)
from ifpmine.cli import BENCH_CSV_HEADER, bench_sweep

from conftest import (
    MII_EXPECTED,
    MII_ROWS,
    MLMS_EXPECTED,
    MLMS_ROWS,
    MLMS_SIGMAS,
    universe,
)

DENSE_CFG = SynthConfig(num_items=50, num_transactions=10_000, density=0.3, seed=42)

_mii_runs_cache: list | None = None
_mlms_runs_cache: list | None = None


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")


def _mii_db() -> TransactionDatabase:
    return TransactionDatabase.from_itemsets(MII_ROWS)


def _mlms_db() -> TransactionDatabase:
    return TransactionDatabase.from_itemsets(MLMS_ROWS)


def _mii_instances():
    rng = random.Random(0xACCE55)
    densities = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    out = []
    for _ in range(200):
        cfg = SynthConfig(
            num_items=rng.randint(2, 10),
            num_transactions=rng.randint(5, 40),
            density=rng.choice(densities),
            seed=rng.getrandbits(64),
        )
        out.append((gen_synthetic(cfg), rng.randint(1, 6)))
    return out


def _mlms_instances():
    rng = random.Random(0x5EED5)
    out = []
    for _ in range(200):
        cfg = SynthConfig(
            num_items=rng.randint(2, 10),
            num_transactions=rng.randint(5, 40),
            density=rng.choice([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]),
            seed=rng.getrandbits(64),
        )
        tv = ThresholdVector(tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 6))))
        out.append((gen_synthetic(cfg), tv))
    return out


def _get_mii_runs():
    global _mii_runs_cache
    if _mii_runs_cache is None:
        _mii_runs_cache = [
            (db, sigma, set(ifp_min(db, sigma).miis))
            for db, sigma in _mii_instances()
        ]
    return _mii_runs_cache


def _get_mlms_runs():
    global _mlms_runs_cache
    if _mlms_runs_cache is None:
        _mlms_runs_cache = [
            (db, tv, set(mine_mlms(db, tv).frequent)) for db, tv in _mlms_instances()
        ]
    return _mlms_runs_cache


def test_criterion_01_paper_example_mii():
    db = _mii_db()
    start = time.perf_counter()
    via_ifp = set(ifp_min(db, 2).miis)
    via_apriori = set(apriori_min(db, 2).miis)
    elapsed = time.perf_counter() - start
    ok = via_ifp == MII_EXPECTED and via_apriori == MII_EXPECTED and elapsed < 1.0
    _report(1, ok, f"both miners return the 8 expected MIIs in {elapsed:.3f}s")
    assert via_ifp == MII_EXPECTED
    assert via_apriori == MII_EXPECTED
    assert elapsed < 1.0


def test_criterion_02_paper_example_mlms():
    db = _mlms_db()
    start = time.perf_counter()
    result = mine_mlms(db, ThresholdVector(MLMS_SIGMAS))
    elapsed = time.perf_counter() - start
    ok = dict(result.entries()) == MLMS_EXPECTED and elapsed < 1.0
    _report(2, ok, f"the 18 expected itemsets with correct supports in {elapsed:.3f}s")
    assert dict(result.entries()) == MLMS_EXPECTED
    assert elapsed < 1.0


def test_criterion_03_oracle_equivalence_mii():
    start = time.perf_counter()
    runs = _get_mii_runs()
    mismatches = 0
    for db, sigma, mined in runs:
        if not (mined == set(apriori_min(db, sigma).miis) == mii_oracle(db, sigma)):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    _report(3, ok, f"{len(runs)} random databases, {mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 60.0


def test_criterion_04_oracle_equivalence_mlms():
    start = time.perf_counter()
    runs = _get_mlms_runs()
    non_monotone = sum(
        1
        for _, tv, _ in runs
        if any(tv.sigmas[i] < tv.sigmas[j] for i in range(len(tv.sigmas)) for j in range(i + 1, len(tv.sigmas)))
    )
    mismatches = sum(1 for db, tv, mined in runs if mined != mlms_oracle(db, tv))
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and non_monotone >= 20 and elapsed < 60.0
    _report(
        4,
        ok,
        f"{len(runs)} random databases ({non_monotone} non-monotone vectors), "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert non_monotone >= 20
    assert elapsed < 60.0


def test_criterion_05_decomposition_identities():
    rng = random.Random(0x1DE17)
    checked = 0
    while checked < 1000:
        db = gen_synthetic(
            SynthConfig(rng.randint(2, 9), rng.randint(2, 30), rng.uniform(0.2, 0.8), rng.getrandbits(64))
        )
        tree = build_tree(db)
        if not tree.order:
            continue
        x = tree.order[0]
        resid = residual_tree(tree)
        proj = projected_tree(tree)
        others = [i for i in sorted(universe(db)) if i != x]
        for _ in range(8):
            k = rng.randint(0, min(4, len(others)))
            s = tuple(sorted(rng.sample(others, k)))
            assert tree_support(resid, s) == tree_support(tree, s)
            assert tree_support(proj, s) == tree_support(tree, tuple(sorted((*s, x))))
            checked += 1
    _report(5, True, f"{checked} (db, x, S) triples satisfy both identities exactly")


def test_criterion_06_zero_support_pair():
    db = TransactionDatabase.from_itemsets([[0], [0], [0], [1], [1], [1]])
    via_ifp = set(ifp_min(db, 2).miis)
    via_apriori = set(apriori_min(db, 2).miis)
    via_oracle = mii_oracle(db, 2)
    ok = via_ifp == via_apriori == via_oracle == {(0, 1)}
    _report(6, ok, "the never-co-occurring frequent pair is reported by all three")
    assert via_ifp == via_apriori == via_oracle == {(0, 1)}


def test_criterion_07_antichain_and_soundness():
    # MII runs (criteria 1 and 3): antichain plus the minimality definition,
    # checked against the raw database.
    mii_runs = [(_mii_db(), 2, MII_EXPECTED)] + _get_mii_runs()
    for db, sigma, miis in mii_runs:
        as_sets = [set(s) for s in miis]
        for i, a in enumerate(as_sets):
            for j, b in enumerate(as_sets):
                assert i == j or not a < b
        for s in miis:
            assert support(db, s) < sigma
            # every nonempty proper subset is frequent; infrequent single
            # items qualify unconditionally
            for k in range(len(s)):
                if len(s) > 1:
                    assert support(db, s[:k] + s[k + 1:]) >= sigma
    # MLMS runs (criteria 2 and 4): every k-itemset meets its per-length
    # threshold in the raw database.
    mlms_runs = [(_mlms_db(), ThresholdVector(MLMS_SIGMAS), set(MLMS_EXPECTED))] + _get_mlms_runs()
    for db, tv, frequent in mlms_runs:
        for s in frequent:
            assert len(s) <= tv.max_length
            assert support(db, s) >= tv.sigma(len(s))
    _report(
        7,
        True,
        f"{len(mii_runs)} MII runs are antichains satisfying the definition; "
        f"{len(mlms_runs)} MLMS runs are sound member-wise",
    )


def test_criterion_08_sigma_low_prune_lossless():
    changed = 0
    runs = _get_mlms_runs()
    for db, tv, with_prune in runs:
        without = set(mine_mlms(db, tv, sigma_low_prune=False).frequent)
        if without != with_prune:
            changed += 1
    _report(8, changed == 0, f"disabling the skip changed {changed} of {len(runs)} outputs")
    assert changed == 0


def test_criterion_09_dense_performance(tmp_path):
    db = gen_synthetic(DENSE_CFG)
    sigma = 3000  # 30% of 10,000 transactions
    start = time.perf_counter()
    result = ifp_min(db, sigma)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0

    dense_path = tmp_path / "dense.fimi"
    dense_path.write_text(to_fimi(db))
    rows = list(bench_sweep([str(dense_path)], ["ifp"], ["30%"], jobs=1, timeout=110.0))
    assert len(rows) == 1
    assert rows[0].itemsets == len(result.miis)
    assert rows[0].elapsed_ms > 0
    header_fields = BENCH_CSV_HEADER.split(",")
    assert len(rows[0].csv_row().split(",")) == len(header_fields) == 6

    # Qualitative low-threshold comparison: recorded, not asserted.
    low = list(bench_sweep([str(dense_path)], ["ifp", "apriori"], ["2%"], jobs=1, timeout=12.0))
    notes = ", ".join(
        f"{r.algorithm}@2%: " + ("timeout" if r.elapsed_ms < 0 else f"{r.elapsed_ms:.0f}ms")
        for r in low
    )
    _report(
        9,
        True,
        f"ifp_min mined {len(result.miis)} MIIs at sigma=3000 in {elapsed:.1f}s; "
        f"bench CSV well-formed; low-threshold record: {notes}",
    )


def test_criterion_10_determinism(tmp_path):
    # Byte-identical serialized outputs for the criterion 1-4 artifacts.
    mii_db = _mii_db()
    first = ifp_min(mii_db, 2)
    second = ifp_min(mii_db, 2)
    assert first.to_text() == second.to_text()
    assert first.to_json() == second.to_json()
    assert apriori_min(mii_db, 2).to_text() == apriori_min(mii_db, 2).to_text()

    mlms_db = _mlms_db()
    tv = ThresholdVector(MLMS_SIGMAS)
    assert mine_mlms(mlms_db, tv).to_text() == mine_mlms(mlms_db, tv).to_text()
    assert mine_mlms(mlms_db, tv).to_json() == mine_mlms(mlms_db, tv).to_json()

    rng = random.Random(0xD37)
    for _ in range(25):
        db = gen_synthetic(
            SynthConfig(rng.randint(2, 9), rng.randint(2, 30), rng.uniform(0.1, 0.7), rng.getrandbits(64))
        )
        sigma = rng.randint(1, 5)
        assert ifp_min(db, sigma).to_text() == ifp_min(db, sigma).to_text()

    # Bench measured columns are identical at --jobs 1 and --jobs 4.
    p1 = tmp_path / "t1.fimi"
    p2 = tmp_path / "t2.fimi"
    p1.write_text(to_fimi(mii_db))
    p2.write_text(to_fimi(mlms_db))

    def measured(jobs):
        return [
            (r.dataset, r.algorithm, r.threshold, r.itemsets, r.peak_nodes)
            for r in bench_sweep(
                [str(p1), str(p2)], ["ifp", "apriori", "oracle"], ["2", "3"],
                jobs=jobs, timeout=60.0,
            )
        ]

    assert measured(1) == measured(4)
    _report(10, True, "serialized outputs byte-identical; bench columns stable across jobs 1 and 4")
