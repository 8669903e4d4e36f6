import dataclasses
import hashlib
import json
import multiprocessing
import os
import time

import pytest

from ifpmine import cli, to_fimi, TransactionDatabase
from ifpmine.cli import BENCH_CSV_HEADER, bench_sweep, main

from conftest import MII_ROWS, MLMS_ROWS


@pytest.fixture
def table1_path(tmp_path):
    path = tmp_path / "table1.fimi"
    path.write_text(to_fimi(TransactionDatabase.from_itemsets(MII_ROWS)))
    return str(path)


@pytest.fixture
def table2_path(tmp_path):
    path = tmp_path / "table2.fimi"
    path.write_text(to_fimi(TransactionDatabase.from_itemsets(MLMS_ROWS)))
    return str(path)


class TestMineMii:
    def test_text_output(self, table1_path, capsys):
        assert main(["mine-mii", "--input", table1_path, "--min-sup", "2", "--algo", "ifp"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8
        assert lines[0] == "5 (1)"
        assert "1 3 (1)" in lines

    def test_all_algorithms_agree(self, table1_path, capsys):
        outputs = []
        for algo in ("ifp", "apriori", "oracle"):
            assert main(["mine-mii", "--input", table1_path, "--min-sup", "2", "--algo", algo]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_json_output(self, table1_path, capsys):
        assert main(["mine-mii", "--input", table1_path, "--min-sup", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 8
        assert {"items": [0, 4], "support": 0} in payload

    def test_percent_threshold(self, table1_path, capsys):
        # 20% of 9 transactions resolves to ceil(1.8) = 2
        assert main(["mine-mii", "--input", table1_path, "--min-sup", "20%"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 8

    def test_output_file(self, table1_path, tmp_path):
        out = tmp_path / "result.txt"
        assert main(["mine-mii", "--input", table1_path, "--min-sup", "2", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 8

    def test_missing_input_is_io_error(self, capsys):
        assert main(["mine-mii", "--input", "/no/such/file", "--min-sup", "2"]) == 3

    def test_sigma_zero_is_usage_error(self, table1_path, capsys):
        assert main(["mine-mii", "--input", table1_path, "--min-sup", "0"]) == 2

    def test_threshold_that_is_not_ascii_digits_is_usage_error(self, table1_path, capsys):
        for text in ("1_0", "+2", "\u0663", "1_0%"):
            assert main(["mine-mii", "--input", table1_path, "--min-sup", text]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("invalid arguments: ")

    def test_malformed_file_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.fimi"
        for content in (b"1 2\n3 oops\n", b"1 2\n3 \xe9\n", b"1_0 2\n10 +2\n"):
            bad.write_bytes(content)
            assert main(["mine-mii", "--input", str(bad), "--min-sup", "2"]) == 3

    def test_oracle_guard_exit_code(self, tmp_path, capsys):
        wide = tmp_path / "wide.fimi"
        wide.write_text(" ".join(str(i) for i in range(30)) + "\n")
        assert main(["mine-mii", "--input", str(wide), "--min-sup", "1", "--algo", "oracle"]) == 4


class TestMineMlms:
    def test_text_output(self, table2_path, capsys):
        assert main(["mine-mlms", "--input", table2_path, "--thresholds", "4,4,3,2,1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 18

    def test_json_output(self, table2_path, capsys):
        assert main(["mine-mlms", "--input", table2_path, "--thresholds", "4,4,3,2,1",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"items": [0, 2, 3, 4, 5], "support": 1} in payload

    def test_zero_threshold_is_usage_error(self, table2_path, capsys):
        assert main(["mine-mlms", "--input", table2_path, "--thresholds", "4,0,1"]) == 2

    def test_empty_threshold_field_is_usage_error(self, table2_path, capsys):
        assert main(["mine-mlms", "--input", table2_path, "--thresholds", "4,,2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "threshold 2 of 3 is empty" in captured.err


class TestCheck:
    def test_agreement(self, table1_path, capsys):
        assert main(["check", "--input", table1_path, "--min-sup", "2"]) == 0
        out = capsys.readouterr().out
        assert out == "OK: ifp, apriori and oracle agree on 8 itemsets at sigma=2\n"

    def test_wrong_support_is_a_disagreement(self, table1_path, monkeypatch, capsys):
        real = cli.mine_mii

        def off_by_one(db, sigma, algorithm="ifp", stats=None):
            result = real(db, sigma, algorithm=algorithm, stats=stats)
            if algorithm != "apriori":
                return result
            first = result.miis[0]
            supports = {**result.supports, first: result.supports[first] + 1}
            return dataclasses.replace(result, supports=supports)

        monkeypatch.setattr(cli, "mine_mii", off_by_one)
        assert main(["check", "--input", table1_path, "--min-sup", "2"]) == cli.EXIT_DISAGREEMENT
        assert capsys.readouterr().out == "DISAGREE apriori vs oracle: 5 has support 2 in apriori, 1 in oracle\n"

    @pytest.mark.parametrize(
        "change, line",
        [
            (lambda miis: miis[1:], "DISAGREE ifp vs oracle: 5 only in oracle\n"),
            (lambda miis: (*miis, (0, 5)), "DISAGREE ifp vs oracle: 0 5 only in ifp\n"),
        ],
        ids=["ifp-drops-one", "ifp-adds-one"],
    )
    def test_missing_or_extra_itemset_is_a_disagreement(self, table1_path, monkeypatch, capsys, change, line):
        real = cli.mine_mii

        def changed(db, sigma, algorithm="ifp", stats=None):
            result = real(db, sigma, algorithm=algorithm, stats=stats)
            if algorithm != "ifp":
                return result
            return dataclasses.replace(result, miis=change(result.miis), supports={**result.supports, (0, 5): 0})

        monkeypatch.setattr(cli, "mine_mii", changed)
        assert main(["check", "--input", table1_path, "--min-sup", "2"]) == cli.EXIT_DISAGREEMENT
        assert capsys.readouterr().out == line


class TestBench:
    def test_cross_product_rows_and_header(self, table1_path, capsys):
        rc = main(["bench", "--inputs", table1_path, "--algos", "ifp,apriori",
                   "--thresholds", "2,3,4"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == BENCH_CSV_HEADER
        assert len(lines) == 1 + 6
        for line in lines[1:]:
            dataset, algo, threshold, elapsed, itemsets, peak = line.split(",")
            assert dataset == table1_path
            assert algo in ("ifp", "apriori")
            assert threshold in ("2", "3", "4")
            assert float(elapsed) >= 0
            assert int(itemsets) >= 0
            assert int(peak) >= 0

    def test_row_order_is_deterministic(self, table1_path, capsys):
        main(["bench", "--inputs", table1_path, "--algos", "apriori,ifp", "--thresholds", "3,2"])
        rows = [l.split(",")[:3] for l in capsys.readouterr().out.splitlines()[1:]]
        assert rows == [
            [table1_path, "apriori", "3"],
            [table1_path, "apriori", "2"],
            [table1_path, "ifp", "3"],
            [table1_path, "ifp", "2"],
        ]

    def test_jobs_do_not_change_measured_columns(self, table1_path, table2_path, capsys):
        def columns(jobs):
            rc = main(["bench", "--inputs", table1_path, table2_path,
                       "--algos", "ifp,apriori,oracle", "--thresholds", "2,3",
                       "--jobs", str(jobs)])
            assert rc == 0
            out = capsys.readouterr().out.splitlines()
            return [
                (d, a, t, i, p)
                for d, a, t, _, i, p in (line.split(",") for line in out[1:])
            ]

        assert columns(1) == columns(4)

    def test_timeout_records_minus_one(self, table1_path, capsys):
        # Far shorter than mining the cell takes: it is a timeout whether the wait
        # gives up first or the cell's result, timed beyond it, comes first. 0 is
        # a usage error.
        rc = main(["bench", "--inputs", table1_path, "--algos", "ifp",
                   "--thresholds", "2", "--timeout", "1e-9"])
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row == f"{table1_path},ifp,2,-1,-1,-1"

    def test_unknown_algorithm_is_usage_error(self, table1_path, capsys):
        assert main(["bench", "--inputs", table1_path, "--algos", "magic",
                     "--thresholds", "2"]) == 2

    def test_bad_threshold_is_usage_error_before_the_sweep(self, table1_path, capsys):
        for text in ("200%", "2,1_0", "x"):
            assert main(["bench", "--inputs", table1_path, "--algos", "ifp",
                         "--thresholds", text]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("invalid arguments: ")

    def test_zero_threshold_is_usage_error_before_the_sweep(self, table1_path, capsys):
        for text in ("0", "0%", "1e-999999999%"):
            assert main(["bench", "--inputs", table1_path, "--algos", "ifp",
                         "--thresholds", f"2,{text}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("invalid arguments: ")

    def test_timeout_not_above_zero_is_usage_error_before_the_sweep(self, table1_path, capsys):
        for timeout in ("0", "-1", "nan"):
            assert main(["bench", "--inputs", table1_path, "--algos", "ifp",
                         "--thresholds", "2", f"--timeout={timeout}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "timeout greater than 0" in captured.err

    def test_jobs_below_one_is_usage_error_before_the_sweep(self, table1_path, capsys):
        # Both used to run the cells one at a time and exit 0.
        for jobs in ("0", "-3"):
            assert main(["bench", "--inputs", table1_path, "--algos", "ifp",
                         "--thresholds", "2", f"--jobs={jobs}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"jobs of at least 1, got {jobs}" in captured.err
        with pytest.raises(ValueError, match="at least 1"):
            bench_sweep([table1_path], ["ifp"], ["2"], jobs=0)

    def test_timeout_beyond_the_wait_limit_is_usage_error_before_the_sweep(self, table1_path, capsys):
        # The wait for a cell takes at most 2**31 - 1 ms; inf used to crash mid-sweep.
        for timeout in ("inf", "1e300", "2147483.648"):
            assert main(["bench", "--inputs", table1_path, "--algos", "ifp",
                         "--thresholds", "2", f"--timeout={timeout}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "at most 2147483.647 s" in captured.err
        assert main(["bench", "--inputs", table1_path, "--algos", "ifp",
                     "--thresholds", "2", "--timeout=2147483.647"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith(f"{table1_path},ifp,2,")

    def test_empty_list_is_usage_error(self, table1_path, capsys):
        for algos, thresholds in (("ifp", ",,"), (",", "2"), ("ifp", "")):
            assert main(["bench", "--inputs", table1_path, "--algos", algos,
                         "--thresholds", thresholds]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "at least one algorithm and one threshold" in captured.err

    def test_empty_field_is_usage_error(self, table1_path, capsys):
        # An empty field among others is refused before any cell runs, not skipped.
        for algos, thresholds, field in (
            ("ifp,,apriori", "2", "algorithm 2 of 3 is empty in 'ifp,,apriori'"),
            (" ,ifp", "2", "algorithm 1 of 2 is empty in ' ,ifp'"),
            ("ifp", "10%,,30%", "threshold 2 of 3 is empty in '10%,,30%'"),
            ("ifp", "2,", "threshold 2 of 2 is empty in '2,'"),
        ):
            assert main(["bench", "--inputs", table1_path, "--algos", algos,
                         "--thresholds", thresholds]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"invalid arguments: {field}\n"

    def test_same_dataset_twice_counts_identical(self, table1_path, capsys):
        main(["bench", "--inputs", table1_path, table1_path, "--algos", "ifp",
              "--thresholds", "2"])
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows[0].split(",")[4] == rows[1].split(",")[4]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched worker reaches the cell's process only when it is forked",
    )
    def test_worker_that_exits_without_a_result_is_recorded_at_once(
        self, table1_path, monkeypatch, capsys
    ):
        def dies(*args):
            os._exit(9)

        monkeypatch.setattr(cli, "_bench_worker", dies)
        started = time.monotonic()
        records = list(bench_sweep([table1_path], ["ifp"], ["2"], timeout=30))
        assert time.monotonic() - started < 5
        assert [r.csv_row() for r in records] == [f"{table1_path},ifp,2,-1,-1,-1"]
        assert capsys.readouterr().err == (
            f"bench cell failed ({table1_path}, ifp, 2): worker exited with code 9\n"
        )

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched worker reaches the cell's process only when it is forked",
    )
    def test_result_sent_before_the_worker_exits_counts(self, table1_path, monkeypatch, capsys):
        def reports_then_dies(path, algo, threshold, conn):
            conn.send(("ok", 1.5, 8, 63))
            os._exit(9)

        monkeypatch.setattr(cli, "_bench_worker", reports_then_dies)
        records = list(bench_sweep([table1_path], ["ifp"], ["2"], timeout=30))
        assert [r.csv_row() for r in records] == [f"{table1_path},ifp,2,1.5,8,63"]
        assert capsys.readouterr().err == ""

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched worker reaches the cell's process only when it is forked",
    )
    def test_result_reporting_a_run_beyond_the_timeout_is_a_timeout(
        self, table1_path, monkeypatch, capsys
    ):
        # The wait sees the result at once, but the cell itself ran for 5 s.
        def reports_a_slow_run(path, algo, threshold, conn):
            conn.send(("ok", 5000.0, 8, 63))

        monkeypatch.setattr(cli, "_bench_worker", reports_a_slow_run)
        records = list(bench_sweep([table1_path], ["ifp"], ["2"], timeout=1))
        assert [r.csv_row() for r in records] == [f"{table1_path},ifp,2,-1,-1,-1"]
        assert capsys.readouterr().err == ""

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched worker reaches the cell's process only when it is forked",
    )
    def test_closing_the_sweep_early_stops_its_workers(self, table1_path, monkeypatch):
        def first_reports_others_hang(path, algo, threshold, conn):
            if threshold != "2":
                time.sleep(30)
            conn.send(("ok", 1.5, 8, 63))

        monkeypatch.setattr(cli, "_bench_worker", first_reports_others_hang)
        sweep = bench_sweep([table1_path], ["ifp"], ["2", "3", "4"], jobs=3, timeout=60)
        assert next(sweep).csv_row() == f"{table1_path},ifp,2,1.5,8,63"
        sweep.close()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "algorithms, thresholds, missing_input, error",
        [
            (["magic"], ["2"], False, ValueError),
            (["ifp"], ["0"], False, ValueError),
            (["ifp"], ["1e-999999999%"], False, ValueError),
            (["ifp"], ["2"], True, OSError),
            ([], ["2"], False, ValueError),
        ],
        ids=["unknown-algorithm", "zero", "percentage-that-parses-as-zero", "missing-input", "no-algorithm"],
    )
    def test_sweep_refuses_what_the_cli_refuses_before_any_cell_runs(
        self, table1_path, tmp_path, monkeypatch, algorithms, thresholds, missing_input, error
    ):
        def no_cell_runs(*args):
            pytest.fail("the sweep started")

        monkeypatch.setattr(cli, "_sweep", no_cell_runs)
        path = str(tmp_path / "missing.fimi") if missing_input else table1_path
        with pytest.raises(error):
            list(bench_sweep([path], algorithms, thresholds))

    def test_mismatched_counts_exit_after_every_row(self, table1_path, monkeypatch, capsys):
        records = [
            cli.BenchRecord(table1_path, "ifp", "2", 1.0, 8, 63),
            cli.BenchRecord(table1_path, "apriori", "2", 1.0, 9, 0),
        ]
        monkeypatch.setattr(cli, "bench_sweep", lambda *args, **kwargs: iter(records))
        rc = main(["bench", "--inputs", table1_path, "--algos", "ifp,apriori", "--thresholds", "2"])
        assert rc == cli.EXIT_DISAGREEMENT
        out, err = capsys.readouterr()
        assert out.splitlines() == [BENCH_CSV_HEADER, *(r.csv_row() for r in records)]
        assert err == f"MISMATCH: itemset counts [8, 9] for {table1_path} at 2\n"

    def test_sweep_api_yields_records(self, table1_path):
        records = list(bench_sweep([table1_path], ["ifp"], ["2"], jobs=1, timeout=30))
        assert len(records) == 1
        assert records[0].itemsets == 8

    def test_cross_check_flags_mismatched_counts(self):
        from ifpmine.cli import BenchRecord, cross_check_counts

        agree = [
            BenchRecord("d", "ifp", "2", 1.0, 8, 63),
            BenchRecord("d", "apriori", "2", 1.0, 8, 0),
            BenchRecord("d", "oracle", "2", -1, -1, -1),  # timeout ignored
        ]
        assert cross_check_counts(agree) == []
        disagree = agree + [BenchRecord("d", "oracle", "3", 1.0, 11, 0),
                            BenchRecord("d", "ifp", "3", 1.0, 12, 63)]
        assert cross_check_counts(disagree) == [("d", "3", [11, 12])]


class TestGen:
    def test_writes_fimi_and_reproducible(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.fimi", tmp_path / "b.fimi"
        args = ["gen", "--items", "6", "--transactions", "30", "--density", "0.4"]
        assert main(args + ["--seed", "9", "--out", str(out1)]) == 0
        assert main(args + ["--seed", "9", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().splitlines()) == 30

    def test_bad_density_is_usage_error(self, tmp_path, capsys):
        assert main(["gen", "--items", "6", "--transactions", "3", "--density", "1.5",
                     "--seed", "1", "--out", str(tmp_path / "x.fimi")]) == 2


class TestMain:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fly"])
        assert exc.value.code == 2
        assert "invalid choice: 'fly'" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [RecursionError, MemoryError])
    def test_resource_exhaustion_is_one_line(self, error, table1_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise error("too deep")

        monkeypatch.setattr(cli, "mine_mii", exhausted)
        assert main(["mine-mii", "--input", table1_path, "--min-sup", "2"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"out of resources: {error.__name__}: too deep\n"

    def test_ci_workflow_pins_hold(self, tmp_path, capsys):
        # The values .github/workflows/tests.yml pins, checked on every tier-1 run.
        def sha256(data):
            return hashlib.sha256(data).hexdigest()

        g, s = tmp_path / "g.fimi", tmp_path / "s.fimi"
        assert main(["gen", "--items", "20", "--transactions", "300", "--density", "0.3",
                     "--seed", "1", "--out", str(g)]) == 0
        assert main(["gen", "--items", "25", "--transactions", "2000", "--density", "0.04",
                     "--seed", "2", "--out", str(s)]) == 0
        assert sha256(g.read_bytes()) == "04ff06ca034d6607d9a9cf69880c2ab61707a42fa355275fba4448a794d37d06"
        assert sha256(s.read_bytes()) == "f60a1da67bbd8b2af1b24fdf987009fc6a95338e3559aa1a91e8b8e8b5a53911"
        for args, digest, lines in (
            (["mine-mlms", "--input", str(g), "--thresholds", "30%"],
             "0790cce6e33c323bf274c9753957b71c533b54e5e3660c5dceec930fa673ad83", 13),
            (["mine-mlms", "--input", str(g), "--thresholds", "30%,10%"],
             "049ec1b7e115d3ddbea87fc1437bb267abfbe69552f470c8e6edb7613dfa1e58", 90),
            (["mine-mlms", "--input", str(g), "--thresholds", "30%,10%,3%"],
             "5bc80cafde1a3fc2a08d3e9010f340f9bf572ac04e69c14842b9f254ef5d4a71", 706),
            (["mine-mlms", "--input", str(g), "--thresholds", "30%,10%,3%", "--format", "json"],
             "079c814342040c6d7a740738ee9baa3149c4969e0e1c4141deeb5d4c390a48da", 5547),
            (["mine-mlms", "--input", str(g), "--thresholds", "10%,20%,5%,3%"],
             "201922528d17a6cae9fc3aff5884725322fda85ea7e38e54a09f0c2b8f4f976f", 84),
            (["mine-mii", "--input", str(g), "--min-sup", "5%"],
             "de1b036fd6e87dca58e699a177d02a687a46ca2b482a918bebcc223a4e3261ed", 1092),
            (["mine-mii", "--input", str(g), "--min-sup", "5%", "--format", "json"],
             "2ab84ec5584b91783c98a138476e5f06d672e9c55fd7ecd16df0f7de2b9cb9c3", 8739),
            (["mine-mii", "--input", str(s), "--min-sup", "0.5%"],
             "f272df5623ce6dd7a08a00835598f5f46d129a6bbde61c2806edbb35a78aa064", 296),
        ):
            assert main(args) == 0
            out = capsys.readouterr().out
            assert len(out.splitlines()) == lines
            assert sha256(out.encode()) == digest
        assert main(["bench", "--inputs", str(g), "--algos", "ifp", "--thresholds", "10%,5%,20%"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(t, i, p) for _, _, t, _, i, p in rows] == [
            ("10%", "237", "1208"), ("5%", "1092", "1578"), ("20%", "190", "0"),
        ]
        for path, min_sup in ((g, "10%"), (g, "5%"), (g, "20%"), (s, "0.5%")):
            assert main(["check", "--input", str(path), "--min-sup", min_sup]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"OK: ifp, apriori and oracle agree on {n} itemsets at sigma={sigma}"
            for n, sigma in ((237, 30), (1092, 15), (190, 60), (296, 10))
        ]
