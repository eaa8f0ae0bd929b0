import json

import pytest

from qaccel.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    def test_no_series(self, capsys):
        code, _, err = run(capsys, "table")
        assert code == 2
        assert "no series given" in err

    def test_bad_literal(self, capsys):
        code, _, err = run(capsys, "sum", "--alpha", "1..5", "--beta", "2",
                           "--x", "1/2")
        assert code == 2
        assert "error:" in err

    def test_shape_mismatch(self, capsys):
        code, _, err = run(capsys, "sum", "--alpha", "1,2", "--beta", "3",
                           "--x", "1/2")
        assert code == 2

    def test_unknown_method(self, capsys):
        code, _, err = run(capsys, "compare", "--preset", "ex1",
                           "--methods", "shanks")
        assert code == 2
        assert "unknown method" in err

    def test_recursion_path_needs_p2(self, capsys):
        code, _, err = run(capsys, "table", "--alpha", "1/2", "--beta", "3/2",
                           "--x", "-1", "--path", "recursion3f2")
        assert code == 2

    def test_acc_content_needs_limit(self, capsys):
        code, _, err = run(capsys, "table", "--alpha", "1/2", "--beta", "3/2",
                           "--x", "-1", "--content", "acc")
        assert code == 2
        assert "reference limit" in err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2


class TestSum:
    @pytest.mark.parametrize("joined, split", [
        (("--alpha=1/2", "--beta=3/2", "--x=-1/3"),
         ("--alpha=1/2", "--beta=3/2", "--x", "-1/3")),
        (("--alpha=-3,1/2", "--beta=2,3/2", "--x=1/2", "--limit=-2/3"),
         ("--alpha", "-3,1/2", "--beta", "2,3/2", "--x", "1/2",
          "--limit", "-2/3")),
    ])
    def test_negative_literal_after_separate_flag(self, capsys, joined, split):
        expected = run(capsys, "sum", *joined)
        assert expected[0] == 0 and expected[1]
        assert run(capsys, "sum", *split) == expected

    def test_preset_ex1(self, capsys):
        code, out, _ = run(capsys, "sum", "--preset", "ex1")
        assert code == 0
        assert out.startswith("Q(7)_1 = ")
        assert "1.320725621269" in out
        assert "acc=21.7" in out

    def test_explicit_limit_overrides(self, capsys):
        code, out, _ = run(capsys, "sum", "--preset", "ex1", "--limit", "1.32")
        assert code == 0
        assert "acc=3.3" in out

    def test_no_limit_no_acc(self, capsys):
        code, out, _ = run(capsys, "sum", "--alpha", "1/6,1/3",
                           "--beta", "1/2,1", "--x", "25/27")
        assert code == 0
        assert "acc=" not in out


class TestTable:
    def test_text_matches_published_triangle(self, capsys):
        code, out, _ = run(capsys, "table", "--preset", "ex1",
                           "--budget", "15", "--max-m", "7",
                           "--digits", "11", "--content", "value")
        assert code == 0
        for cell in ("1.3195652174", "1.3207244836", "1.3207256209",
                     "1.3750000000", "1.3207256213"):
            assert cell in out

    def test_cancelled_partial_sum_prints_zero(self, capsys):
        # s_2 = a_0 + a_1 = 1 - 1 vanishes exactly for this series
        code, out, _ = run(capsys, "table", "--alpha=16/7,7/3,5/3",
                           "--beta=8/3,5/3,2/3", "--x=-1/3", "--budget=15",
                           "--max-m=4", "--path=operator")
        assert code == 0
        row = out.splitlines()[2].split()
        assert row[0] == "2" and row[1] == "0"

    @pytest.mark.parametrize("series", [
        ("--alpha=-3,1/2", "--beta=2,3/2", "--x=1/2"),
        ("--alpha=1/2,1/3", "--beta=2,3/2", "--x=0"),
    ])
    def test_operator_path_terminating_and_x_zero(self, capsys, series):
        # some per-index factors are exactly 0 here (terminating alpha,
        # x = 0); the operator path must still print the direct path's table
        code, out, _ = run(capsys, "table", *series, "--path=operator")
        assert code == 0
        _, direct, _ = run(capsys, "table", *series, "--path=direct")
        assert out == direct

    def test_csv_triangle_shape(self, capsys):
        code, out, _ = run(capsys, "table", "--preset", "ex1",
                           "--budget", "15", "--max-m", "7", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[:3] == ["n", "m0", "m1"]
        assert len(lines) == 16
        for row in lines[1:]:
            n = int(row.split(",")[0])
            cells = len(row.split(",")) - 1
            assert cells == (15 - n) // 2 + 1

    def test_deterministic_output(self, capsys):
        args = ("table", "--preset", "ex3", "--budget", "12", "--max-m", "5",
                "--format", "csv", "--content", "acc")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_json_structure(self, capsys):
        code, out, _ = run(capsys, "table", "--preset", "ex2",
                           "--budget", "9", "--max-m", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["x"].startswith("0.9259259259")
        assert doc["meta"]["digits"] == 32
        cells = {(c["n"], c["m"]) for c in doc["cells"]}
        assert (1, 0) in cells and (1, 2) in cells
        for cell in doc["cells"]:
            assert "value" in cell and "acc" in cell

    def test_strict_degenerate_exit(self, capsys):
        code, _, _ = run(capsys, "table", "--alpha", "3/2", "--beta", "3/2",
                         "--x", "1", "--limit", "2", "--budget", "8",
                         "--max-m", "1", "--strict")
        assert code == 1


class TestCompare:
    def test_sections_per_method(self, capsys):
        code, out, _ = run(capsys, "compare", "--preset", "ex1",
                           "--budget", "12", "--max-m", "3",
                           "--methods", "q,epsilon,levin-u,aitken",
                           "--format", "csv", "--content", "acc")
        assert code == 0
        for method in ("q", "epsilon", "levin-u", "aitken"):
            assert f"# method={method}" in out

    def test_q_epsilon_equal_for_p1(self, capsys):
        # for one upper/lower parameter the even epsilon columns reproduce
        # the quotient values; the epsilon stencil is wider, so compare only
        # cells present in both triangles
        base = ("--alpha", "1/3", "--beta", "4/3", "--x", "-1",
                "--budget", "12", "--max-m", "3", "--format", "csv")
        _, q_out, _ = run(capsys, "compare", "--methods", "q", *base)
        _, e_out, _ = run(capsys, "compare", "--methods", "epsilon", *base)

        def cells(text):
            out = {}
            for row in text.strip().splitlines()[2:]:
                parts = row.split(",")
                for m, val in enumerate(parts[1:]):
                    out[(int(parts[0]), m)] = val
            return out

        q_cells, e_cells = cells(q_out), cells(e_out)
        shared = set(q_cells) & set(e_cells)
        assert len(shared) > 20
        for key in shared:
            assert q_cells[key][:25] == e_cells[key][:25]


class TestDiagnose:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "diagnose", "--preset", "ex2",
                           "--budget", "12", "--max-m", "2")
        assert code == 0
        assert "kind: absolute" in out
        assert "sigma: 0" in out
        assert "acceleration condition" in out
        assert "remainder ratios" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "diagnose", "--preset", "ex3",
                           "--budget", "10", "--max-m", "2",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "logarithmic-at-one"
        assert doc["b1"].endswith("i")
        assert doc["condition"] and doc["remainder_ratios"]

    def test_requires_limit(self, capsys):
        code, _, err = run(capsys, "diagnose", "--alpha", "0.7",
                           "--beta", "1.9", "--x", "1/2")
        assert code == 2
        assert "reference limit" in err
