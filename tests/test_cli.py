import gzip
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from covartest import cli
from covartest.cli import DataError, ingest, main, write_csv
from covartest.estimation import GroupedSample
from conftest import subprocess_env

rng0 = np.random.default_rng(424242)


def data_csv(tmp_path, groups, name="data.csv", group_column="g"):
    """Write a small grouped dataset; groups is a list of d x n arrays."""
    sample = GroupedSample(tuple(groups))
    path = tmp_path / name
    write_csv(sample, str(path), group_column=group_column)
    return str(path)


def two_group_file(tmp_path, d=3, n=(30, 35), scale2=1.0, seed=1):
    rng = np.random.default_rng(seed)
    g1 = rng.standard_normal((d, n[0]))
    g2 = scale2 * rng.standard_normal((d, n[1]))
    return data_csv(tmp_path, [g1, g2])


def run_cli(*argv):
    """The command line in a fresh interpreter, as a user runs it."""
    return subprocess.run([sys.executable, "-m", "covartest.cli", *argv],
                          env=subprocess_env(), capture_output=True, text=True, timeout=120)


def one_group_file(tmp_path, d=3, n=40, seed=2):
    rng = np.random.default_rng(seed)
    return data_csv(tmp_path, [rng.standard_normal((d, n))], group_column=None)


def split_by_dict(data, labels):
    """The rows of data as one group per label, split by a dict of row
    lists in order of first appearance."""
    rows = {}
    for i, label in enumerate(labels):
        rows.setdefault(label, []).append(i)
    return [data[idx].T for idx in rows.values()]


def refuse(*args):
    raise ValueError("the structured pass is switched off")


def spy(real, got):
    """real, appending each result it returns to got."""
    def call(*args):
        got.append(real(*args))
        return got[-1]
    return call


def rows_read(path, group_column=None, structured=True):
    """The rows and labels the structured pass handed to ``ingest``, or None
    where it declined; with structured=False, those of the row scanner
    alone."""
    got = []
    with pytest.MonkeyPatch.context() as mp:
        if structured:
            mp.setattr(cli, "_read_structured", spy(cli._read_structured, got))
        else:
            mp.setattr(cli, "_read_structured", refuse)
            mp.setattr(cli, "_scan_rows", spy(cli._scan_rows, got))
        try:
            ingest(path, group_column=group_column)
        except DataError:
            pass
    return got[0] if got else None


def scanner_ingest(path, group_column=None):
    """The row scanner's rows, grouped by a dict of row lists into a sample
    built here: its groups, or the text of the error that reading the rows
    or building the sample gives."""
    rows = rows_read(path, group_column, structured=False)
    if rows is None or not len(rows[0]):  # a fault of the file itself
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_read_structured", refuse)
            with pytest.raises(DataError) as exc:
                ingest(path, group_column=group_column)
        return str(exc.value)
    data, labels = rows
    try:
        groups = [data.T] if labels is None else split_by_dict(data, labels)
        return list(GroupedSample(tuple(groups)).groups)
    except ValueError as exc:
        return str(exc)


def assert_same_groups(got, expect):
    assert len(got) == len(expect)
    for g, e in zip(got, expect):
        assert g.shape == e.shape and g.strides == e.strides
        assert g.tobytes() == e.tobytes()


def assert_ingest_as_scanner(path, group_column=None):
    """ingest gives the scanner's groups, or its DataError word for word."""
    expect = scanner_ingest(path, group_column)
    if isinstance(expect, str):
        with pytest.raises(DataError) as exc:
            ingest(path, group_column=group_column)
        assert str(exc.value) == expect
    else:
        assert_same_groups(ingest(path, group_column=group_column).groups, expect)
    return expect


class TestIngest:
    def test_group_column_first_appearance_order(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,g\n1,2,b\n3,4,a\n5,6,b\n7,8,a\n9,0,b\n")
        sample = ingest(str(path), group_column="g")
        assert sample.a == 2
        assert sample.n == (3, 2)  # b first, then a
        assert_array_equal(sample.groups[0][:, 0], [1.0, 2.0])
        assert_array_equal(sample.groups[1][:, 0], [3.0, 4.0])

    def test_group_sizes_partition_in_order(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2\n" + "".join(f"{i},{i + 1}\n" for i in range(10)))
        sample = ingest(str(path), group_sizes=(4, 6))
        assert sample.n == (4, 6)
        assert sample.groups[1][0, 0] == 4.0

    def test_default_single_group(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2\n1,2\n3,4\n5,6\n")
        sample = ingest(str(path))
        assert sample.a == 1 and sample.n == (3,)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2\n1,2\n\n3,4\n\n")
        assert ingest(str(path)).n == (2,)

    def test_non_numeric_cell_is_located(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2\n1,2\n3,oops\n")
        with pytest.raises(DataError, match=r"'oops' at row 3, column 'x2'"):
            ingest(str(path))

    def test_field_count_mismatch(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2\n1,2\n3\n")
        with pytest.raises(DataError, match="row 3 has 1 fields"):
            ingest(str(path))

    def test_missing_group_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2\n1,2\n")
        with pytest.raises(DataError, match="'grp' not found"):
            ingest(str(path), group_column="grp")

    def test_sizes_must_cover_all_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1\n1\n2\n3\n")
        with pytest.raises(DataError, match="adds up to 2"):
            ingest(str(path), group_sizes=(1, 1))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            ingest(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            ingest(str(tmp_path / "absent.csv"))

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        sample = GroupedSample((rng.standard_normal((3, 8)) * 1e-7, rng.standard_normal((3, 5))))
        path = tmp_path / "rt.csv"
        write_csv(sample, str(path), group_column="g")
        back = ingest(str(path), group_column="g")
        for a, b in zip(sample.groups, back.groups):
            assert_array_equal(a, b)

    def test_serialization_is_stable(self, tmp_path):
        rng = np.random.default_rng(10)
        sample = GroupedSample((rng.standard_normal((2, 6)),))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(sample, str(p1))
        write_csv(ingest(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_whitespace_only_line_takes_the_scanner(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,g\n1,2,a\n3,4,b\n   \t\n5,6,a\n7,8,b\n")
        assert rows_read(str(path), "g") is None
        groups = assert_ingest_as_scanner(str(path), "g")
        assert_array_equal(groups[0], [[1.0, 5.0], [2.0, 6.0]])

    def test_quoted_cells_and_labels(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('x1,x2,g\n"1"," 2 ","a,b"\n3,"4",a\n"5",6,"a,b"\n7,8," a"\n')
        assert rows_read(str(path), "g") is not None
        groups = assert_ingest_as_scanner(str(path), "g")
        assert_array_equal(groups[0], [[1.0, 5.0], [2.0, 6.0]])
        assert_array_equal(groups[1], [[3.0, 7.0], [4.0, 8.0]])

    def test_quoted_multiline_header_takes_the_structured_pass(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('"x1","x\n2",g\n1,2,a\n3,4,b\n5,6,a\n7,8,b\n')
        data, labels = rows_read(str(path), "g")
        assert_array_equal(data, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
        assert list(labels) == ["a", "b", "a", "b"]
        groups = assert_ingest_as_scanner(str(path), "g")
        assert_array_equal(groups[1], [[3.0, 7.0], [4.0, 8.0]])

    def test_non_utf8_byte_is_one_data_line(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_bytes(b"x1,x2,g\n1,2,a\n2,1,a\n3,5,caf\xe9\n4,4,caf\xe9\n")
        assert rows_read(str(path), "g") is None
        assert_ingest_as_scanner(str(path), "g")
        code = main(["--data", str(path), "--group-column", "g", "--target",
                     "covariance", "--hypothesis", "equal", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert err == (f"covartest: error: data: {path} is not UTF-8 text: "
                       "byte 0xe9 cannot be decoded\n")

    def test_header_only_file_is_one_data_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,g\n")
        data, labels = rows_read(str(path), "g")
        assert data.shape == (0, 2) and len(labels) == 0
        assert assert_ingest_as_scanner(str(path), "g") == f"{path} contains no observations"
        proc = run_cli("--data", str(path), "--group-column", "g", "--target",
                       "covariance", "--hypothesis", "equal", "--seed", "1")
        assert proc.returncode == 3
        assert proc.stderr == f"covartest: error: data: {path} contains no observations\n"

    @pytest.mark.parametrize("body, message", [
        ("1,2,x\n3,4\n", "row 3 has 2 fields, expected 3"),
        ("1,2,x\n3,4,y,5\n", "row 3 has 4 fields, expected 3"),
    ])
    def test_ragged_rows_name_their_row(self, tmp_path, body, message):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,g\n" + body)
        assert rows_read(str(path), "g") is None
        assert assert_ingest_as_scanner(str(path), "g") == message

    def test_rows_are_named_by_file_line(self, tmp_path):
        # the quoted label spans lines 2-3, so the ragged record is line 5
        path = tmp_path / "d.csv"
        path.write_text('x1,g\n1,"a\nb"\n2,c\n3\n')
        with pytest.raises(DataError) as exc:
            ingest(str(path), group_column="g")
        assert str(exc.value) == "row 5 has 1 fields, expected 2"
        path.write_text('x1,g\n1,"a\n\nb"\n\n2,c\n3,oops,\n')
        with pytest.raises(DataError) as exc:
            ingest(str(path), group_column="g")
        assert str(exc.value) == "row 7 has 3 fields, expected 2"

    def test_over_long_cell(self, tmp_path):
        # the csv module refuses cells over 131,072 characters; loadtxt does not
        long = "L" * 200_000
        path = tmp_path / "d.csv"
        path.write_text(f"x1,x2,g\n1,2,{long}\n3,4,{long}\n5,6,b\n7,8,b\n")
        data, labels = rows_read(str(path), "g")
        assert list(labels) == [long, long, "b", "b"]
        assert ingest(str(path), group_column="g").n == (2, 2)
        path.write_text(f"x1,x2,g\n1,2,{long}\n3,4\n")
        proc = run_cli("--data", str(path), "--group-column", "g", "--target",
                       "covariance", "--hypothesis", "equal", "--seed", "1")
        assert proc.returncode == 3
        assert proc.stderr == (f"covartest: error: data: {path}: "
                               "field larger than field limit (131072)\n")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_the_scanner_cannot_reread_is_one_data_line(self, tmp_path):
        path = tmp_path / "pipe.csv"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=("x1,x2\n1,2\n3\n",),
                                  daemon=True)
        writer.start()
        with pytest.raises(DataError) as exc:
            ingest(str(path))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert str(exc.value) == f"cannot read {path}: underlying stream is not seekable"

    def test_long_labels_stay_whole(self, tmp_path):
        # a "U64" field would merge the two labels that share 64 characters
        long, twin_a, twin_b = "L" * 100, "P" * 64 + "a", "P" * 64 + "b"
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,g\n" + "".join(
            f"{i},{i % 3},{label}\n"
            for i, label in enumerate([long, twin_a, twin_b] * 2)
        ))
        assert rows_read(str(path), "g") is not None
        groups = assert_ingest_as_scanner(str(path), "g")
        assert len(groups) == 3
        assert_array_equal(groups[2], [[2.0, 5.0], [2.0, 2.0]])

    def test_labels_equal_after_stripping_merge(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('x1,x2,g\n1,2, g1\n3,4,g2\n5,6,g1\n7,8,"g2 "\n')
        assert rows_read(str(path), "g") is not None
        groups = assert_ingest_as_scanner(str(path), "g")
        assert_array_equal(groups[0], [[1.0, 5.0], [2.0, 6.0]])
        assert_array_equal(groups[1], [[3.0, 7.0], [4.0, 8.0]])

    def test_hash_is_part_of_a_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,g\n1,2,a#1\n3,4,a#2\n5,6,a#1\n7,8,a#2\n")
        assert rows_read(str(path), "g") is not None
        groups = assert_ingest_as_scanner(str(path), "g")
        assert len(groups) == 2

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b'x1,x2,g\r\n1,2,a\r\n3,4,b\r\n5,6,a\r\n7,8,"b"\r\n')
        assert rows_read(str(path), "g") is not None
        groups = assert_ingest_as_scanner(str(path), "g")
        assert_array_equal(groups[1], [[3.0, 7.0], [4.0, 8.0]])

    def test_one_row_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,g\n1,2,a\n")
        data, labels = rows_read(str(path), "g")
        assert_array_equal(data, [[1.0, 2.0]])
        assert list(labels) == ["a"]
        message = assert_ingest_as_scanner(str(path), "g")
        assert message == "group 1 needs at least 2 observations, got 1"
        path.write_text("x1,x2\n1,2\n")
        assert rows_read(str(path))[0].shape == (1, 2)
        assert_ingest_as_scanner(str(path))


# cells that both readers take, and cells that send the file to the scanner
NUMBERS = ["1", "-2.5", "3e-2", " 4 ", '"5"', '" 6 "', "0.10000000000000001", "+.5", "7.", "\t8"]
BAD_NUMBERS = ["", "oops", "1_0", "inf", "nan", "1e999", "0x1", '"1"2', ' "3"', "\u0661"]
LABELS = ["g1", " g1", '"g1 "', "g2", "a#1", '"a,b"', 'a"b', '"a""b"', "", '"x\ny"',
          "L" * 100, "P" * 64 + "a", "P" * 64 + "b", "caf\u00e9"]


@st.composite
def csv_files(draw):
    """Small data files that mix quoting, whitespace, long labels, blank and
    whitespace-only lines, ragged rows, bad cells, CRLF, a byte-order mark
    and bytes that are not UTF-8."""
    d = draw(st.integers(1, 3))
    names = [f"x{j + 1}" for j in range(d)]
    grouped = draw(st.booleans())
    if grouped:
        names.insert(draw(st.integers(0, d)), "g")
    header = ",".join(f'"{n}"' if draw(st.integers(0, 9)) == 0 else n for n in names)
    lines = [header]
    n_rows = draw(st.integers(0, 8))
    # rows draw faults only in a faulty file; there each row draws one of
    # 13 codes, 0-3 a fault, and three of those fail the whole file
    faulty = draw(st.integers(0, 2)) == 2
    # a few labels per file, so that most groups get the two rows they need
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3))
    for _ in range(n_rows):
        row = [draw(st.sampled_from(labels)) if n == "g" else draw(st.sampled_from(NUMBERS))
               for n in names]
        fault = draw(st.integers(0, 12)) if faulty else None
        if fault == 0:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_NUMBERS))
        elif fault == 1:
            row.append("9")
        elif fault == 2 and len(row) > 1:
            row.pop()
        elif fault == 3:
            lines.append(draw(st.sampled_from(["", "  ", "\t", ",".join([" "] * len(row))])))
        lines.append(",".join(row))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, "", eol + eol]))
    raw = (("\ufeff" if draw(st.booleans()) else "") + text).encode()
    if draw(st.integers(0, 9)) == 0:
        raw = raw.replace("\u00e9".encode(), b"\xe9")  # Latin-1, not UTF-8
    return raw, "g" if grouped else None


class TestIngestMatchesScanner:
    @settings(max_examples=200)
    @given(csv_files())
    @example((b"x1,g\n1," + b"P" * 64 + b"a\n2," + b"P" * 64 + b"b\n"
              b"3," + b"P" * 64 + b"a\n4," + b"P" * 64 + b"b\n", "g"))
    def test_structured_read_declines_or_agrees(self, tmp_path_factory, case):
        raw, group_column = case
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_bytes(raw)
        path = str(path)
        rows = rows_read(path, group_column)
        if rows is not None and len(rows[0]):  # no rows: ingest's own error, checked below
            data, labels = rows_read(path, group_column, structured=False)
            assert data.tobytes() == rows[0].tobytes() and data.shape == rows[0].shape
            if group_column is None:
                assert rows[1] is None
            else:
                assert [lab.strip() for lab in rows[1]] == labels
        assert_ingest_as_scanner(path, group_column)


class TestRuns:
    def test_covariance_text_output(self, tmp_path, capsys):
        path = two_group_file(tmp_path)
        code = main(
            [
                "--data", path, "--group-column", "g", "--target", "covariance",
                "--hypothesis", "equal", "--repetitions", "600", "--seed", "7",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("Covariance test\n")
        assert "Groups:      2 (n = 30, 35)" in out
        assert "Hypothesis:  equal" in out
        assert "Statistic:   " in out
        assert "Method:      MC, B = 600" in out
        assert "Seed:        7" in out
        stat_line = [l for l in out.splitlines() if l.startswith("Statistic")][0]
        assert len(stat_line.split()[-1].split(".")[1]) == 4

    # the full text reports, every line and its alignment; they show 3-4
    # decimals, so unlike the JSON floats they hold across BLAS builds
    @pytest.mark.parametrize("argv, expect", [
        (
            ["--target", "covariance", "--hypothesis", "equal", "--seed", "7"],
            "Covariance test\n"
            "Groups:      2 (n = 30, 35)\n"
            "Hypothesis:  equal\n"
            "Statistic:   1.4071\n"
            "p-value:     p = 0.205\n"
            "Method:      MC, B = 600\n"
            "Seed:        7\n",
        ),
        (
            ["--target", "combined", "--seed", "17"],
            "Combined variance/correlation test\n"
            "Groups:                2 (n = 30, 35)\n"
            "p-value variances:     p = 0.543\n"
            "p-value correlations:  p = 0.230\n"
            "p-value total:         p = 0.230\n"
            "Method:                TAY, B = 600\n"
            "Seed:                  17\n",
        ),
    ], ids=["covariance-equal", "combined"])
    def test_full_text_report(self, tmp_path, capsys, argv, expect):
        path = two_group_file(tmp_path)
        code = main(["--data", path, "--group-column", "g", "--repetitions", "600", *argv])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == expect
        assert captured.err == ""

    def test_json_keys_and_rerun_identical(self, tmp_path, capsys):
        path = two_group_file(tmp_path)
        argv = [
            "--data", path, "--group-column", "g", "--target", "covariance",
            "--hypothesis", "equal", "--repetitions", "600", "--seed", "3",
            "--output", "json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert list(payload) == [
            "test", "hypothesis", "target", "groups", "n", "statistic",
            "p_value", "p_display", "method", "repetitions", "seed", "alpha",
            "critical_value", "statistic_covariance",
        ]
        assert payload["groups"] == 2
        assert payload["n"] == [30, 35]
        assert payload["method"] == "MC"
        assert payload["seed"] == 3
        # the equality contrast spans both stacked half-vectors
        H = np.array(payload["statistic_covariance"])
        assert H.shape == (12, 12)
        assert_allclose(H, H.T, atol=0)

    @pytest.mark.parametrize("target", [
        ["--target", "covariance", "--hypothesis", "equal", "--output", "json"],
        ["--target", "combined", "--output", "json"],
        ["--target", "correlation", "--hypothesis", "equal-correlated", "--output", "text"],
    ])
    def test_group_sizes_report_as_group_column(self, tmp_path, capsys, target):
        # the same groups in the same order, once labelled and once sized
        rng = np.random.default_rng(4)
        groups = [rng.standard_normal((3, n)) for n in (30, 40)]
        labelled = data_csv(tmp_path, groups)
        plain = data_csv(tmp_path, groups, name="plain.csv", group_column=None)
        common = [*target, "--repetitions", "600", "--seed", "2"]
        assert main(["--data", labelled, "--group-column", "g", *common]) == 0
        expect = capsys.readouterr().out
        assert main(["--data", plain, "--group-sizes", "30,40", *common]) == 0
        assert capsys.readouterr().out == expect

    def test_threads_do_not_change_output(self, tmp_path, capsys):
        path = two_group_file(tmp_path)
        base = [
            "--data", path, "--group-column", "g", "--target", "covariance",
            "--hypothesis", "equal", "--method", "BT", "--repetitions", "600",
            "--seed", "11", "--output", "json",
        ]
        assert main(base) == 0
        one = capsys.readouterr().out
        assert main(base + ["--threads", "4"]) == 0
        four = capsys.readouterr().out
        assert one == four

    def test_custom_contrast_matches_predefined(self, tmp_path, capsys):
        path = two_group_file(tmp_path)
        from covartest.linalg import centering_matrix

        C = np.kron(centering_matrix(2), np.eye(6))
        cpath, zpath = tmp_path / "C.csv", tmp_path / "z.csv"
        np.savetxt(cpath, C, delimiter=",")
        np.savetxt(zpath, np.zeros(12), delimiter=",")
        common = ["--data", path, "--group-column", "g", "--target", "covariance",
                  "--repetitions", "600", "--seed", "5", "--output", "json"]
        assert main(common + ["--hypothesis", "equal"]) == 0
        pre = json.loads(capsys.readouterr().out)
        assert main(common + ["--C", str(cpath), "--zeta", str(zpath)]) == 0
        cus = json.loads(capsys.readouterr().out)
        assert cus["hypothesis"] == "custom"
        assert abs(pre["statistic"] - cus["statistic"]) < 1e-10
        assert pre["p_value"] == cus["p_value"]

    def test_correlation_taylor(self, tmp_path, capsys):
        path = two_group_file(tmp_path)
        code = main(
            [
                "--data", path, "--group-column", "g", "--target", "correlation",
                "--hypothesis", "equal-correlated", "--method", "TAY",
                "--repetitions", "600", "--seed", "13",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("Correlation test\n")
        assert "Method:      TAY" in out

    def test_covariance_structure(self, tmp_path, capsys):
        path = one_group_file(tmp_path)
        code = main(
            [
                "--data", path, "--target", "covariance-structure",
                "--structure", "cs", "--repetitions", "600", "--seed", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("Covariance structure test\n")
        assert "Hypothesis:  compoundsymmetry" in out

    def test_correlation_structure_taylor(self, tmp_path, capsys):
        path = one_group_file(tmp_path, d=4)
        code = main(
            [
                "--data", path, "--target", "correlation-structure",
                "--structure", "har", "--method", "TAY",
                "--repetitions", "600", "--seed", "21", "--output", "json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["hypothesis"] == "hautoregressive"

    def test_given_trace(self, tmp_path, capsys):
        path = one_group_file(tmp_path)
        code = main(
            [
                "--data", path, "--target", "covariance", "--hypothesis",
                "given-trace", "--gamma", "3.0", "--repetitions", "600", "--seed", "1",
            ]
        )
        assert code == 0
        assert "given-trace" in capsys.readouterr().out

    def test_given_matrix(self, tmp_path, capsys):
        path = one_group_file(tmp_path)
        mpath = tmp_path / "V.csv"
        np.savetxt(mpath, np.eye(3), delimiter=",")
        code = main(
            [
                "--data", path, "--target", "covariance", "--hypothesis",
                "given-matrix", "--matrix", str(mpath), "--repetitions", "600",
                "--seed", "1",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("target", [
        ["--target", "covariance", "--hypothesis", "equal", "--output", "json"],
        ["--target", "combined"],
    ])
    def test_byte_order_mark_is_ignored(self, tmp_path, capsys, target):
        # spreadsheet programs save "CSV UTF-8" with a leading BOM; left
        # unread, it would hide the name of a group column that comes first
        rng = np.random.default_rng(5)
        rows = [f"g{i + 1}," + ",".join(repr(float(x)) for x in obs)
                for i, n in enumerate((30, 35)) for obs in rng.standard_normal((n, 3))]
        plain = tmp_path / "plain.csv"
        plain.write_text("g,x1,x2,x3\n" + "\n".join(rows) + "\n", encoding="utf-8")
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outs = []
        for path in (plain, bom):
            argv = ["--data", str(path), "--group-column", "g", *target, "--seed", "3"]
            assert main([*argv, "--repetitions", "600"]) == 0
            outs.append(capsys.readouterr())
        assert outs[0].err == outs[1].err == ""
        assert outs[0].out == outs[1].out

    def test_given_matrix_with_byte_order_mark(self, tmp_path, capsys):
        path = one_group_file(tmp_path)
        mpath = tmp_path / "V.csv"
        mpath.write_text("1.0,0.0,0.0\n0.0,1.0,0.0\n0.0,0.0,1.0\n", encoding="utf-8-sig")
        argv = ["--data", path, "--target", "covariance", "--hypothesis", "given-matrix",
                "--matrix", str(mpath), "--repetitions", "600", "--seed", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        np.savetxt(mpath, np.eye(3), delimiter=",")
        assert main(argv) == 0
        assert capsys.readouterr().out == out

    def test_combined_text_and_json(self, tmp_path, capsys):
        path = two_group_file(tmp_path)
        base = ["--data", path, "--group-column", "g", "--target", "combined",
                "--repetitions", "600", "--seed", "17"]
        assert main(base) == 0
        out = capsys.readouterr().out
        assert out.startswith("Combined variance/correlation test\n")
        assert "p-value variances:" in out
        assert "p-value correlations:" in out
        assert "p-value total:" in out
        assert main(base + ["--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == [
            "test", "groups", "n", "p_variances", "p_correlations", "p_total",
            "beta_tilde", "method", "repetitions", "seed", "alpha",
        ]
        assert payload["p_total"] == min(payload["p_variances"], payload["p_correlations"])

    def test_combined_deterministic(self, tmp_path, capsys):
        path = two_group_file(tmp_path)
        argv = ["--data", path, "--group-column", "g", "--target", "combined",
                "--repetitions", "600", "--seed", "8", "--output", "json"]
        assert main(argv) == 0
        a = capsys.readouterr().out
        assert main(argv + ["--threads", "3"]) == 0
        b = capsys.readouterr().out
        assert a == b

    def test_small_pvalue_display(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        g1 = rng.standard_normal((3, 60))
        g2 = 4.0 * rng.standard_normal((3, 60))
        path = data_csv(tmp_path, [g1, g2])
        code = main(
            [
                "--data", path, "--group-column", "g", "--target", "covariance",
                "--hypothesis", "equal", "--repetitions", "500", "--seed", "14",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "p < 0.002" in out


class TestExitCodes:
    def cfg(self, tmp_path, *extra, path=None):
        if path is None:
            path = two_group_file(tmp_path)
        return ["--data", path, "--group-column", "g", *extra]

    def assert_config_error(self, capsys, argv, fragment):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("covartest: error: config: ")
        assert fragment in err
        assert err.count("\n") == 1

    def test_missing_required_flags(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--target", "covariance"])
        assert exc.value.code == 2

    def test_unknown_method_choice(self, tmp_path, capsys):
        path = two_group_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["--data", path, "--target", "covariance", "--hypothesis", "equal",
                  "--method", "jackknife"])
        assert exc.value.code == 2

    def test_both_group_selectors(self, tmp_path, capsys):
        argv = self.cfg(tmp_path, "--group-sizes", "30,35", "--target", "covariance",
                        "--hypothesis", "equal")
        self.assert_config_error(capsys, argv, "mutually exclusive")

    @pytest.mark.parametrize("sizes, fragment", [
        ("30,x", "comma-separated integers, got '30,x'"),
        ("30,0", "must be positive, got '30,0'"),
    ])
    def test_bad_group_sizes(self, tmp_path, capsys, sizes, fragment):
        path = one_group_file(tmp_path, n=70)
        argv = ["--data", path, "--group-sizes", sizes, "--target", "covariance",
                "--hypothesis", "equal"]
        self.assert_config_error(capsys, argv, fragment)

    def test_group_sizes_must_add_up(self, tmp_path, capsys):
        path = one_group_file(tmp_path, n=70)
        code = main(["--data", path, "--group-sizes", "30,35", "--target", "covariance",
                     "--hypothesis", "equal", "--seed", "1"])
        assert code == 3
        assert capsys.readouterr().err == (
            f"covartest: error: data: --group-sizes adds up to 65 but {path} has 70 observations\n"
        )

    def test_contrast_needs_zeta(self, tmp_path, capsys):
        argv = self.cfg(tmp_path, "--target", "covariance", "--C", "C.csv")
        self.assert_config_error(capsys, argv, "custom hypotheses need both --C and --zeta")

    def test_structure_target_rejects_hypothesis(self, tmp_path, capsys):
        argv = self.cfg(tmp_path, "--target", "covariance-structure", "--structure", "cs",
                        "--hypothesis", "equal")
        self.assert_config_error(capsys, argv, "structure targets take --structure")

    def test_negative_seed(self, tmp_path, capsys):
        argv = self.cfg(tmp_path, "--target", "covariance", "--hypothesis", "equal",
                        "--seed", "-1")
        self.assert_config_error(capsys, argv, "--seed must be non-negative, got -1")

    def test_structure_target_needs_one_group(self, tmp_path, capsys):
        argv = self.cfg(tmp_path, "--target", "covariance-structure", "--structure", "cs",
                        "--seed", "1")
        self.assert_config_error(
            capsys, argv, "structure hypotheses are defined for a single group, got 2"
        )

    def test_taylor_on_covariance(self, tmp_path, capsys):
        argv = self.cfg(tmp_path, "--target", "covariance", "--hypothesis", "equal",
                        "--method", "TAY")
        self.assert_config_error(capsys, argv, "correlation targets only")

    def test_hypothesis_and_custom_conflict(self, tmp_path, capsys):
        argv = self.cfg(tmp_path, "--target", "covariance", "--hypothesis", "equal",
                        "--C", "C.csv", "--zeta", "z.csv")
        self.assert_config_error(capsys, argv, "exactly one of")

    def test_neither_hypothesis_nor_custom(self, tmp_path, capsys):
        argv = self.cfg(tmp_path, "--target", "covariance")
        self.assert_config_error(capsys, argv, "exactly one of")

    def test_structure_target_needs_structure(self, tmp_path, capsys):
        argv = self.cfg(tmp_path, "--target", "covariance-structure")
        self.assert_config_error(capsys, argv, "requires --structure")

    def test_structure_flag_needs_structure_target(self, tmp_path, capsys):
        argv = self.cfg(tmp_path, "--target", "covariance", "--structure", "cs")
        self.assert_config_error(capsys, argv, "structure target")

    def test_gamma_needs_given_trace(self, tmp_path, capsys):
        argv = self.cfg(tmp_path, "--target", "covariance", "--hypothesis", "equal",
                        "--gamma", "2.0")
        self.assert_config_error(capsys, argv, "given-trace")

    def test_matrix_needs_given_matrix(self, tmp_path, capsys):
        argv = self.cfg(tmp_path, "--target", "covariance", "--hypothesis", "equal",
                        "--matrix", "V.csv")
        self.assert_config_error(capsys, argv, "given-matrix")

    def test_given_matrix_needs_matrix_before_reading_data(self, tmp_path, capsys):
        # a flag-only check: it fires even though the data file is missing
        argv = ["--data", str(tmp_path / "gone.csv"), "--target", "covariance",
                "--hypothesis", "given-matrix"]
        self.assert_config_error(capsys, argv, "'given-matrix' needs --matrix")

    def test_given_trace_needs_gamma_before_reading_data(self, tmp_path, capsys):
        argv = ["--data", str(tmp_path / "gone.csv"), "--target", "covariance",
                "--hypothesis", "given-trace"]
        self.assert_config_error(capsys, argv, "'given-trace' needs the target trace")

    @pytest.mark.parametrize("name", ["given-matrix", "given-trace"])
    def test_parametrized_nulls_unknown_for_correlation(self, tmp_path, capsys, name):
        argv = self.cfg(tmp_path, "--target", "correlation", "--hypothesis", name)
        self.assert_config_error(capsys, argv, f"unknown correlation hypothesis {name!r}")

    def test_combined_rejects_method(self, tmp_path, capsys):
        argv = self.cfg(tmp_path, "--target", "combined", "--method", "MC")
        self.assert_config_error(capsys, argv, "combined")

    def test_bad_repetitions(self, tmp_path, capsys):
        argv = self.cfg(tmp_path, "--target", "covariance", "--hypothesis", "equal",
                        "--repetitions", "0")
        self.assert_config_error(capsys, argv, "repetitions")

    def test_bad_alpha(self, tmp_path, capsys):
        argv = self.cfg(tmp_path, "--target", "covariance", "--hypothesis", "equal",
                        "--alpha", "1.5")
        self.assert_config_error(capsys, argv, "alpha")

    def test_bad_threads(self, tmp_path, capsys):
        argv = self.cfg(tmp_path, "--target", "covariance", "--hypothesis", "equal",
                        "--threads", "0")
        self.assert_config_error(capsys, argv, "threads")

    def test_unknown_hypothesis_name(self, tmp_path, capsys):
        argv = self.cfg(tmp_path, "--target", "covariance", "--hypothesis", "sphericity")
        self.assert_config_error(capsys, argv, "valid names")

    def test_combined_needs_two_groups(self, tmp_path, capsys):
        path = one_group_file(tmp_path)
        code = main(["--data", path, "--target", "combined", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "two groups" in err

    def test_combined_needs_two_variables(self, tmp_path, capsys):
        # one variable has no correlation to compare: a config error, as
        # for the correlation target, not a numerical one
        path = two_group_file(tmp_path, d=1)
        self.assert_config_error(
            capsys, self.cfg(tmp_path, "--target", "combined", "--seed", "1", path=path),
            "the combined test requires d >= 2",
        )

    def test_missing_data_file(self, tmp_path, capsys):
        code = main(["--data", str(tmp_path / "gone.csv"), "--target", "covariance",
                     "--hypothesis", "equal", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("covartest: error: data: ")

    def test_group_column_alone_has_no_numeric_columns(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("g\na\na\nb\nb\n")
        code = main(["--data", str(path), "--group-column", "g", "--target",
                     "covariance", "--hypothesis", "equal", "--seed", "1"])
        assert code == 3
        assert capsys.readouterr().err == (
            f"covartest: error: data: {path} has no numeric columns besides the group column\n"
        )

    def test_missing_contrast_file(self, tmp_path, capsys):
        path = one_group_file(tmp_path)
        zpath = tmp_path / "z.csv"
        zpath.write_text("0\n")
        cpath = tmp_path / "gone.csv"
        code = main(["--data", path, "--target", "covariance", "--C", str(cpath),
                     "--zeta", str(zpath), "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"covartest: error: data: cannot open contrast file {cpath}: ")
        assert err.count("\n") == 1

    def test_bad_cell_reports_location(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,g\n1,2,a\n1,bad,a\n")
        code = main(["--data", str(path), "--group-column", "g", "--target",
                     "covariance", "--hypothesis", "equal", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert "row 3" in err and "'x2'" in err

    def test_non_utf8_file_is_a_data_error(self, tmp_path, capsys):
        # a Latin-1 "café" group label: 0xE9 is no UTF-8 sequence
        path = tmp_path / "d.csv"
        path.write_bytes(b"x1,x2,g\n1,2,a\n2,1,a\n3,5,caf\xe9\n4,4,caf\xe9\n")
        code = main(["--data", str(path), "--group-column", "g", "--target",
                     "covariance", "--hypothesis", "equal", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("covartest: error: data: ") and err.count("\n") == 1
        assert "UTF-8" in err and "0xe9" in err

    def test_single_observation_group(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,g\n1,2,a\n3,4,a\n5,6,b\n")
        code = main(["--data", str(path), "--group-column", "g", "--target",
                     "covariance", "--hypothesis", "equal", "--seed", "1"])
        assert code == 3

    def test_ragged_contrast_file(self, tmp_path, capsys):
        path = one_group_file(tmp_path)
        cpath = tmp_path / "C.csv"
        cpath.write_text("1,0,0\n1,0\n")
        zpath = tmp_path / "z.csv"
        zpath.write_text("0\n0\n")
        code = main(["--data", path, "--target", "covariance", "--C", str(cpath),
                     "--zeta", str(zpath), "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert "contrast" in err

    def test_compressed_contrast_file_is_not_decompressed(self, tmp_path, capsys):
        path = one_group_file(tmp_path)
        cpath = tmp_path / "C.csv.gz"
        cpath.write_bytes(gzip.compress(b"1,0,0,0,0,0\n"))
        zpath = tmp_path / "z.csv"
        zpath.write_text("0\n")
        code = main(["--data", path, "--target", "covariance", "--C", str(cpath),
                     "--zeta", str(zpath), "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"covartest: error: data: ill-formed contrast file {cpath}: ")
        assert err.count("\n") == 1

    def test_degenerate_estimates_exit_numerical(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        path = data_csv(tmp_path, [rng.standard_normal((2, 2)), rng.standard_normal((2, 2))])
        code = main(["--data", path, "--group-column", "g", "--target", "covariance",
                     "--hypothesis", "equal", "--repetitions", "500", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("covartest: error: numerical: ")

    def test_degenerate_combined_exits_numerical(self, tmp_path, capsys):
        # groups 1,1,2,2 at d = 3: the fourth-moment covariances are
        # rounding residue, so no band can be calibrated
        path = tmp_path / "d.csv"
        rows = ["0.3,1.2,-0.7,1", "1.1,-0.4,0.9,1", "-0.8,0.5,2.2,2", "0.6,1.7,0.1,2"]
        path.write_text("x1,x2,x3,g\n" + "\n".join(rows) + "\n")
        code = main(["--data", str(path), "--group-column", "g", "--target", "combined",
                     "--repetitions", "500", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("covartest: error: numerical: ")
        assert "zero trace" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("target, structure, method", [
        ("covariance-structure", "ar", "MC"),
        ("correlation-structure", "har", "TAY"),
    ])
    def test_vanishing_subdiagonal_mean_exits_numerical(
        self, tmp_path, capsys, target, structure, method
    ):
        # x3 = -x1 makes S12 + S23, and so r12 + r23, exactly zero: the
        # first subdiagonal mean divides the next one in the AR ratios
        x = np.random.default_rng(8).standard_normal((2, 30))
        path = data_csv(tmp_path, [np.vstack([x, -x[0]])], group_column=None)
        code = main(["--data", path, "--target", target, "--structure", structure,
                     "--method", method, "--repetitions", "500", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == (
            "covartest: error: numerical: subdiagonal-mean ratio undefined: "
            "a leading subdiagonal mean vanishes\n"
        )

    def test_constant_variable_with_correlation_target(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        rows = "".join(f"1,{v}\n" for v in np.linspace(0.0, 1.0, 12))
        path.write_text("x1,x2\n" + rows)
        code = main(["--data", str(path), "--target", "correlation",
                     "--hypothesis", "uncorrelated", "--repetitions", "500",
                     "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 4
        assert "variance" in err

    @pytest.mark.parametrize("scale", [1e155, 1e-160])
    @pytest.mark.parametrize("target", [
        ["--target", "covariance", "--hypothesis", "equal"],
        ["--target", "correlation", "--hypothesis", "equal-correlated"],
        ["--target", "combined"],
    ])
    def test_out_of_range_magnitudes_exit_numerical(self, tmp_path, scale, target):
        # the fourth moments of 1e155 overflow and those of 1e-160
        # underflow to zero: one error line, no RuntimeWarning
        rng = np.random.default_rng(3)
        path = data_csv(tmp_path, [scale * rng.standard_normal((3, n)) for n in (30, 35)])
        proc = run_cli("--data", path, "--group-column", "g", *target, "--seed", "1")
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.startswith("covartest: error: numerical: ")
        assert proc.stderr.count("\n") == 1
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("target", [
        ["--target", "covariance", "--hypothesis", "equal"],
        ["--target", "covariance", "--hypothesis", "equal", "--method", "BT"],
        ["--target", "combined"],
    ])
    def test_unallocatable_repetitions_exit_numerical(self, tmp_path, target):
        # 10^15 draws need petabytes, beyond any address space, so the
        # allocation fails at once: one error line, no traceback
        path = two_group_file(tmp_path)
        proc = run_cli("--data", path, "--group-column", "g", *target, "--seed", "1",
                       "--repetitions", "1000000000000000")
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.startswith("covartest: error: numerical: Unable to allocate ")
        assert proc.stderr.count("\n") == 1

    def test_out_of_range_target_matrix_is_config_error(self, tmp_path):
        # the symmetry check of 1e308 entries overflows: one config line
        path = one_group_file(tmp_path)
        mpath = tmp_path / "V.csv"
        V = np.eye(3)
        V[0, 1], V[1, 0] = 1e308, -1e308
        np.savetxt(mpath, V, delimiter=",")
        proc = run_cli("--data", path, "--target", "covariance", "--hypothesis",
                       "given-matrix", "--matrix", str(mpath), "--seed", "1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("covartest: error: config: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_target_matrix_is_one_config_line(self, tmp_path, bad):
        path = one_group_file(tmp_path)
        mpath = tmp_path / "V.csv"
        mpath.write_text(f"{bad},0,0\n0,1,0\n0,0,1\n")
        proc = run_cli("--data", path, "--target", "covariance", "--hypothesis",
                       "given-matrix", "--matrix", str(mpath), "--seed", "1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "covartest: error: config: matrix entries must be finite, got NaN or inf\n"

    @pytest.mark.parametrize("kind, message", [
        ("C", "C needs at least one row"),
        ("zeta", "zeta has length 0 but C has 1 rows"),
        ("matrix", "the target matrix must be 3x3, got shape (0, 1)"),
    ], ids=["C", "zeta", "matrix"])
    def test_empty_array_file_is_one_config_line(self, tmp_path, kind, message):
        # loadtxt warns on a file without rows; only the error is printed
        path = one_group_file(tmp_path)
        files = {"C": "1,0,0,0,0,0\n", "zeta": "0\n", "matrix": ""}
        files[kind] = ""
        for name, text in files.items():
            (tmp_path / f"{name}.csv").write_text(text)
        if kind == "matrix":
            flags = ["--hypothesis", "given-matrix", "--matrix", str(tmp_path / "matrix.csv")]
        else:
            flags = ["--C", str(tmp_path / "C.csv"), "--zeta", str(tmp_path / "zeta.csv")]
        proc = run_cli("--data", path, "--target", "covariance", *flags, "--seed", "1")
        assert proc.returncode == 2
        assert proc.stderr == f"covartest: error: config: {message}\n"


class TestCliWarnings:
    @pytest.mark.parametrize("target", [
        ["--target", "covariance", "--hypothesis", "equal"],
        ["--target", "combined"],
    ])
    def test_low_repetitions_warn_in_one_line(self, tmp_path, capsys, target):
        path = two_group_file(tmp_path)
        argv = ["--data", path, "--group-column", "g", *target, "--seed", "1"]
        assert main([*argv, "--repetitions", "100"]) == 0
        expect = capsys.readouterr().out
        proc = run_cli(*argv, "--repetitions", "100")
        assert proc.returncode == 0
        assert proc.stdout == expect
        assert proc.stderr == (
            "covartest: warning: only 100 resampling repetitions; "
            "p-values are coarse below 500\n"
        )
