"""Inputs shaped like real FIMI files: odd whitespace and line ends, ids past
64 bits, empty files, edge thresholds, thousands of items and one very long
transaction.

Every case goes through ``cli.main`` and checks its exit code, and checks the
``ifp`` miner's output against ``apriori`` and, where the oracle's guards
allow, against the brute-force oracle.
"""

import itertools

import pytest

import ifpmine.miners
import ifpmine.tree
from ifpmine import (
    ThresholdVector,
    TransactionDatabase,
    mine_mlms,
    mlms_oracle,
    parse_fimi,
    read_fimi,
    support,
)
from ifpmine.data import render_itemset_lines
from ifpmine.cli import main

from conftest import forced_form, is_vertical, recording_kernels


def _write(tmp_path, content: bytes, name: str = "data.fimi") -> str:
    path = tmp_path / name
    path.write_bytes(content)
    return str(path)


def _fimi(rows) -> bytes:
    return "".join(" ".join(map(str, r)) + "\n" for r in rows).encode()


def _mine_mii(path: str, min_sup: str, algorithm: str, capsys) -> tuple[int, str]:
    code = main(["mine-mii", "--input", path, "--min-sup", min_sup, "--algo", algorithm])
    return code, capsys.readouterr().out


def _mii_agree(path: str, min_sup: str, capsys, *, oracle: bool = True) -> tuple[int, str]:
    """Exit code and text output of ``ifp``, asserted equal to apriori's and,
    if ``oracle``, to the oracle's."""
    ifp = _mine_mii(path, min_sup, "ifp", capsys)
    assert _mine_mii(path, min_sup, "apriori", capsys) == ifp
    if oracle:
        assert _mine_mii(path, min_sup, "oracle", capsys) == ifp
    return ifp


def _mine_mlms(path: str, thresholds: str, capsys) -> tuple[int, str]:
    code = main(["mine-mlms", "--input", path, "--thresholds", thresholds])
    return code, capsys.readouterr().out


def _mlms_matches_oracle(path: str, thresholds: str) -> None:
    db = read_fimi(path)
    tv = ThresholdVector.from_text(thresholds, len(db))
    result = mine_mlms(db, tv)
    assert set(result.frequent) == mlms_oracle(db, tv)
    assert result.supports == mine_mlms(db, tv, sigma_low_prune=False).supports


def test_crlf_tabs_and_no_final_newline(tmp_path, capsys):
    odd = _write(tmp_path, b"1\t2\r\n2 3\r\n\t1  3 \r\n1 2 3\r\n0\t2", "odd.fimi")
    plain = _write(tmp_path, b"1 2\n2 3\n1 3\n1 2 3\n0 2\n", "plain.fimi")
    for min_sup in ("2", "3", "50%"):
        code, out = _mii_agree(odd, min_sup, capsys)
        assert code == 0 and out
        assert _mii_agree(plain, min_sup, capsys) == (code, out)
    assert _mine_mlms(odd, "3,2", capsys) == _mine_mlms(plain, "3,2", capsys) != (0, "")
    _mlms_matches_oracle(odd, "3,2")


@pytest.mark.parametrize("sep", [b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f"])
def test_control_whitespace_ends_no_line(tmp_path, capsys, sep):
    # str.splitlines() also ends a line at each of these bytes but \x1f, which
    # would add transactions and so shift percentage thresholds.
    odd = _write(tmp_path, b"0 1" + sep + b"2\n1 2\n0" + sep + b"1\n2", "odd.fimi")
    plain = _write(tmp_path, b"0 1 2\n1 2\n0 1\n2\n", "plain.fimi")
    assert len(read_fimi(odd)) == 4
    for min_sup in ("2", "50%", "75%"):
        code, out = _mii_agree(odd, min_sup, capsys)
        assert code == 0 and out
        assert _mii_agree(plain, min_sup, capsys) == (code, out)
    assert _mine_mlms(odd, "50%,50%", capsys) == _mine_mlms(plain, "50%,50%", capsys) != (0, "")


def test_text_and_file_share_line_ends(tmp_path):
    text = "0 1\r2\r\n3\x0c4\n\r\n5"
    path = _write(tmp_path, text.encode())
    assert list(parse_fimi(text)) == [(0, 1), (2,), (3, 4), (), (5,)]
    assert parse_fimi(text) == read_fimi(path)


def test_item_ids_beyond_64_bits(tmp_path, capsys):
    big = 2**64
    rows = [[big, big + 1], [big, 5], [big + 1, 5], [big, big + 1, 5], [2**70], [5, 2**70]]
    path = _write(tmp_path, _fimi(rows))
    code, out = _mii_agree(path, "2", capsys)
    assert code == 0
    assert f"5 {big} {big + 1} (1)\n" in out
    assert f"{2**70} (2)\n" not in out
    assert _mine_mlms(path, "2,2", capsys)[0] == 0
    _mlms_matches_oracle(path, "2,2")


def test_ids_and_thresholds_longer_than_the_int_digit_limit(tmp_path, capsys, int_digit_limit):
    # An id int() will not convert is an input-format error (exit 3), not a
    # usage error; a threshold that long is a usage error (exit 2) naming it.
    digits = "1" * (int_digit_limit + 1)
    long_id = _write(tmp_path, f"1 2\n{digits}\n".encode(), "long_id.fimi")
    for argv in (["mine-mii", "--min-sup", "1"], ["check", "--min-sup", "1"], ["mine-mlms", "--thresholds", "1"]):
        assert main([*argv, "--input", long_id]) == 3
        assert f"input error: line 2: item id 1111111111... has {len(digits)} digits" in capsys.readouterr().err
    path = _write(tmp_path, b"1 2\n")
    for argv in (["mine-mii", "--min-sup", digits], ["mine-mlms", "--thresholds", f"1,{digits}"]):
        assert main([*argv, "--input", path]) == 2
        assert f"bad threshold: 1111111111... has {len(digits)} digits" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"", b"\n", b"\n\n\r\n\n"])
def test_empty_file_and_blank_lines(tmp_path, capsys, content):
    path = _write(tmp_path, content)
    assert _mii_agree(path, "1", capsys) == (0, "")
    assert _mine_mlms(path, "1,1", capsys) == (0, "")
    # A percentage of no transactions resolves to sigma 0, a usage error.
    expected = 2 if not content else 0
    assert _mii_agree(path, "100%", capsys) == (expected, "")


def test_thresholds_zero_full_and_nan_percent(tmp_path, capsys):
    rows = [[0, 1], [0, 2], [1, 2], [0, 1, 2], [3]]
    path = _write(tmp_path, _fimi(rows))
    assert _mii_agree(path, "0%", capsys) == (2, "")
    assert _mii_agree(path, "nan%", capsys) == (2, "")
    assert _mine_mlms(path, "nan%", capsys) == (2, "")
    # At 100% no item is frequent, so the MIIs are the single items.
    assert _mii_agree(path, "100%", capsys) == (0, "0 (3)\n1 (3)\n2 (3)\n3 (1)\n")
    assert _mine_mlms(path, "100%", capsys) == (0, "")
    assert _mine_mlms(path, "60%,40%", capsys) == (0, "0 (3)\n1 (3)\n2 (3)\n0 1 (2)\n0 2 (2)\n1 2 (2)\n")


def test_more_than_2000_distinct_items(tmp_path, capsys):
    # Items 0-3 sit on a ring: each meets its two neighbours 525 times and
    # never the item opposite. Items 4-2103 occur once.
    rows = [[i % 4, (i + 1) % 4, 4 + i] for i in range(2100)]
    path = _write(tmp_path, _fimi(rows))
    code, out = _mii_agree(path, "2", capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2100 + 2
    assert lines[-2:] == ["0 2 (0)", "1 3 (0)"]
    _mlms_matches_oracle(path, "2,2,1")


def test_one_transaction_of_ten_thousand_items(tmp_path, capsys):
    # Items 0-9 occur 9 times each, items 10-9999 only in the long
    # transaction: apriori counts no more than 45 pairs.
    rows = [range(10**4)] + [[i % 10, (i + 3) % 10] for i in range(40)]
    path = _write(tmp_path, _fimi(rows))
    code, out = _mii_agree(path, "3", capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["10 (1)", "11 (1)"]
    # The 9990 rare items, and the 35 pairs of items 0-9 that meet only in
    # the long transaction.
    assert len(lines) == 9990 + 35
    # The MLMS oracle enumerates every transaction's subsets, and its guard
    # refuses the long one. Items below the least threshold are in no
    # frequent itemset, so the oracle runs with the long transaction cut
    # down to items 0-9, and the supports come from the whole database.
    code, out = _mine_mlms(path, "3,3", capsys)
    db = read_fimi(path)
    tv = ThresholdVector((3, 3))
    cut = TransactionDatabase.from_itemsets([range(10), *db.transactions[1:]])
    expected = sorted(mlms_oracle(cut, tv), key=lambda s: (len(s), s))
    assert (code, out) == (0, render_itemset_lines((s, support(db, s)) for s in expected))
    assert len(expected) == 10 + 10


def test_one_threshold_counts_no_pair_of_two_long_transactions(tmp_path, capsys, monkeypatch):
    # Two copies of the 10**4-item transaction: at one threshold of 2 the
    # tree keeps all their items, whose 5 * 10**7 pairs all co-occur. Only
    # the items' supports are read, so no pair table is counted, by either
    # kernel.
    rows = [range(10**4)] * 2 + [[i % 10, (i + 3) % 10] for i in range(40)]
    path = _write(tmp_path, _fimi(rows))
    counted = recording_kernels(monkeypatch)
    code, out = _mine_mlms(path, "2", capsys)
    assert counted == []
    # Items 0-9 occur in both long transactions and 8 short ones.
    assert (code, out) == (0, "".join(f"{i} ({10 if i < 10 else 2})\n" for i in range(10**4)))


def _one_path_trees_mined(path: str, form: str, capsys, monkeypatch) -> tuple[int, str, list[str]]:
    """Exit code and text output of ``ifp`` at 2 on the file, with the run
    forced into ``form``, ``"vertical"`` or ``"paths"``, and the form of
    each tree of one distinct path that reached ``_mii_rec``; counting
    such a tree's pairs, on either kernel, or splitting it fails the run."""
    one_path, real_rec = [], ifpmine.miners._mii_rec

    def distinct_paths(tree):
        return sum(1 for _ in tree.paths())

    def recording(tree, *args):
        if distinct_paths(tree) == 1:
            one_path.append("vertical" if is_vertical(tree) else "paths")
        return real_rec(tree, *args)

    def refusing_one_path(real, distinct):
        """``real``, failing the run when its arguments stand for a tree
        of fewer than two distinct paths, as ``distinct`` counts them."""

        def stand_in(*args):
            assert distinct(*args) > 1, f"{real.__name__} reached a tree of one path"
            return real(*args)

        return stand_in

    # The path kernel reads each distinct path once; the bitset kernel's
    # tree holds one path exactly when its tidsets are all equal.
    path_pairs = refusing_one_path(ifpmine.tree._path_pairs, len)
    bitset_pairs = refusing_one_path(ifpmine.tree._bitset_pairs, lambda order, tids: len({tids[i] for i in order}))
    with monkeypatch.context() as patch, forced_form(form == "vertical"):
        patch.setattr(ifpmine.miners, "_mii_rec", recording)
        patch.setattr(ifpmine.tree, "_path_pairs", lambda paths: path_pairs(list(paths)))
        patch.setattr(ifpmine.tree, "_bitset_pairs", bitset_pairs)
        patch.setattr(ifpmine.miners, "split", refusing_one_path(ifpmine.miners.split, distinct_paths))
        code, out = _mine_mii(path, "2", "ifp", capsys)
    return code, out, one_path


def test_one_path_projections_are_cut_before_their_pairs(tmp_path, capsys, monkeypatch):
    # Two copies of a 250-item transaction, whose items meet no short row's.
    # Each of its items' projections is one path of its later items, whose
    # every itemset is frequent at 2: mined, they would split 2**249 ways.
    # Short items k and k + 3 (mod 10) meet 4 times and no other two short
    # items meet, and the pairs of short items are a 10-cycle, which holds
    # no triangle: the MIIs are the 250 * 10 + 35 pairs of support 0. The
    # run is on paths.
    rows = [range(250)] * 2 + [[250 + i % 10, 250 + (i + 3) % 10] for i in range(40)]
    path = _write(tmp_path, _fimi(rows))
    code, out, one_path = _one_path_trees_mined(path, "paths", capsys, monkeypatch)
    # The projections of items 0-247 reached the recursion. Item 248 has one
    # frequent partner, 249, so its projection would be a path of one item
    # and is not made.
    assert one_path == ["paths"] * 248
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 250 * 10 + 35
    db = read_fimi(path)
    assert all(support(db, tuple(map(int, line.split()[:-1]))) == 0 for line in lines)
    assert all(line.endswith(" (0)") for line in lines)


def _assert_one_path_cut_over_dense_rows(tmp_path, capsys, monkeypatch, long_items: int, form: str) -> None:
    # 66 rows of items 0-11, each without a pair of them, and two copies of
    # a row of ``long_items`` items from 100 on, found nowhere else, mined
    # in ``form``. Each dense item is in 55 rows. A long item's projection
    # is two copies of its later long items, one distinct path in the top
    # tree's form: mined, item 100's would split 2**(long_items - 1) ways.
    # An itemset of k of items 0-11 is in C(12 - k, 2) rows: the ten-item
    # ones are MIIs of support 1, and each dense item and long item make a
    # pair MII of support 0.
    long_row = range(100, 100 + long_items)
    dense = [[i for i in range(12) if i not in pair] for pair in itertools.combinations(range(12), 2)]
    path = _write(tmp_path, _fimi(dense + [long_row] * 2))
    code, out, one_path = _one_path_trees_mined(path, form, capsys, monkeypatch)
    # The projections of all long items but the last two, with one
    # frequent partner and none, reached the recursion.
    assert one_path == [form] * (long_items - 2)
    want = [(s, 1) for s in itertools.combinations(range(12), 10)]
    want += [((d, i), 0) for d in range(12) for i in long_row]
    assert (code, out) == (0, render_itemset_lines(sorted(want, key=lambda e: (len(e[0]), e[0]))))


def test_one_path_cut_holds_on_a_vertical_tree(tmp_path, capsys, monkeypatch):
    # The top tree of 72 items is vertical, and so are its projections, 58
    # of them one path.
    _assert_one_path_cut_over_dense_rows(tmp_path, capsys, monkeypatch, 60, "vertical")


def test_one_path_cut_holds_below_a_wide_tree_on_paths(tmp_path, capsys, monkeypatch):
    # The top tree of 132 items is on its paths, and so are its
    # projections, 118 of them one path.
    _assert_one_path_cut_over_dense_rows(tmp_path, capsys, monkeypatch, 120, "paths")
