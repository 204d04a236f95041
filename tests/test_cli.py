import json
import subprocess
import sys

import pytest

import k0lab.cli
from k0lab.cli import main
from k0lab.errors import InternalCheckError

from conftest import src_on_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCayleyCommand:
    def test_c6_23_text(self, capsys):
        code, out, _ = run_cli(capsys, "cayley", "--n", "6", "--gens", "2,3")
        assert code == 0
        assert "K0 = Z_7" in out
        assert "det = -7" in out

    def test_weighted_cycle(self, capsys):
        code, out, _ = run_cli(capsys, "cayley", "--n", "4", "--gens", "1", "--weights", "3")
        assert code == 0
        assert "K0 = Z_80" in out

    def test_non_generating_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "cayley", "--n", "6", "--gens", "2")
        assert code == 2
        assert "does not generate Z_6" in err

    def test_mismatched_weights_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "cayley", "--n", "6", "--gens", "2,3", "--weights", "1")
        assert code == 64
        assert "usage error" in err

    def test_invalid_spec_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "cayley", "--n", "6", "--gens", "2,8")
        assert code == 3

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "cayley", "--n", "6", "--gens", "2,3", "--json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_dot_export(self, capsys, tmp_path):
        dot_file = tmp_path / "graph.dot"
        code, _, _ = run_cli(capsys, "cayley", "--n", "3", "--gens", "1", "--weights",
                             "2", "--dot", str(dot_file))
        assert code == 0
        text = dot_file.read_text()
        assert text.startswith("digraph") and '"(2)"' in text

    def test_method_flag(self, capsys):
        code, out, _ = run_cli(capsys, "cayley", "--n", "6", "--gens", "2,3",
                               "--method", "companion")
        assert code == 0
        assert "method: companion_reduction" in out
        assert "snf diag: 1 1 7" in out

    def test_group_table_file(self, capsys, tmp_path):
        from k0lab.graphs import DihedralGroup, write_group_table

        r, s = 1, 8
        table_file = tmp_path / "d8.grp"
        table_file.write_text(write_group_table(DihedralGroup(8)))
        code, out, _ = run_cli(capsys, "cayley", "--n", "16", "--group-table",
                               str(table_file), "--gens", f"{r},{s}")
        assert code == 0
        assert "K0 = Z_3" in out
        assert "group kind" not in out  # sanity: text renderer stays stable

    def test_group_table_bad_file_exit_65(self, capsys, tmp_path):
        table_file = tmp_path / "broken.grp"
        table_file.write_text("2\n0 1\n")
        code, _, err = run_cli(capsys, "cayley", "--n", "2", "--group-table",
                               str(table_file), "--gens", "1")
        assert code == 65
        assert "line" in err


class TestDihedralCommand:
    def test_n8(self, capsys):
        code, out, _ = run_cli(capsys, "dihedral", "--n", "8")
        assert code == 0
        assert "K0 = Z_3" in out
        assert "M_3(L(1,4))" in out

    def test_n9(self, capsys):
        code, out, _ = run_cli(capsys, "dihedral", "--n", "9")
        assert code == 0
        assert "K0 = Z_2 + Z_2" in out

    def test_n6(self, capsys):
        code, out, _ = run_cli(capsys, "dihedral", "--n", "6")
        assert code == 0
        assert "K0 = Z^2" in out


class TestSnfCommand:
    def test_worked_example(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("3 3\n0 1 2\n2 1 3\n1 2 1\n")
        code, out, _ = run_cli(capsys, "snf", "--in", str(f))
        assert code == 0
        assert "diag: 1 1 7" in out
        assert "coker: Z_7" in out

    def test_identity(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("3 3\n1 0 0\n0 1 0\n0 0 1\n")
        code, out, _ = run_cli(capsys, "snf", "--in", str(f))
        assert code == 0
        assert "diag: 1 1 1" in out
        assert "coker: 0" in out

    def test_zero_matrix(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("2 2\n0 0\n0 0\n")
        code, out, _ = run_cli(capsys, "snf", "--in", str(f))
        assert code == 0
        assert "diag: 0 0" in out
        assert "coker: Z^2" in out

    def test_malformed_file_exit_65(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("2 2\n1 2\n3\n")
        code, _, err = run_cli(capsys, "snf", "--in", str(f))
        assert code == 65
        assert "line 3" in err

    def test_extra_row_exit_65(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("2 2\n1 0\n0 1\n5 5\n")
        code, out, err = run_cli(capsys, "snf", "--in", str(f))
        assert code == 65
        assert out == ""
        assert "line 4" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "snf", "--in", str(tmp_path / "nope.txt"))
        assert code == 65


class TestScanCommand:
    def test_dihedral_rows_match_theorem(self, capsys):
        from k0lab.classify import dihedral_theorem_row

        code, out, _ = run_cli(capsys, "scan", "--family", "dihedral", "--n-max", "30",
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 30
        for row in rows:
            n = row["n"] // 2
            group, algebra = dihedral_theorem_row(n)
            assert row["k0"] == group.display()
            if algebra is not None:
                assert row["classification"] == algebra.display()

    def test_s01_rows_match_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--family", "s01", "--n-min", "2", "--n-max", "6",
                               "--a-max", "3", "--b-max", "3", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 5 * 9
        for row in rows:
            assert row["k0"] == row["closed_form"]
        assert out == json.dumps(rows, indent=2, sort_keys=True) + "\n"

    def test_complete_family_column(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--family", "complete", "--n-min", "2",
                               "--n-max", "10", "--loops", "1", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [row["k0"] for row in rows] == ["0"] + [f"Z_{n}" for n in range(2, 10)]

    def test_parallel_output_identical(self, capsys):
        code, serial, _ = run_cli(capsys, "scan", "--family", "k_cycle", "--n-min", "2",
                                  "--n-max", "8", "--w-min", "2", "--w-max", "3")
        assert code == 0
        code, parallel, _ = run_cli(capsys, "scan", "--family", "k_cycle", "--n-min", "2",
                                    "--n-max", "8", "--w-min", "2", "--w-max", "3", "--parallel")
        assert code == 0
        assert serial == parallel

    def test_cap_enforced_before_work(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--family", "dihedral", "--n-max", "30",
                                 "--cap", "10")
        assert code == 64
        assert out == ""
        assert "cap" in err

    def test_complete_family_rejects_nonpositive_loops(self, capsys):
        for loops in ("0", "-1"):
            code, out, err = run_cli(capsys, "scan", "--family", "complete", "--n-max", "3",
                                     "--loops", loops)
            assert code == 64
            assert out == ""
            assert "--loops must be positive" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--family", "complete", "--n-min", "3",
                               "--n-max", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("instance,")
        assert len(lines) == 3

    def test_cyclic_s_family(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--family", "cyclic_s", "--n-min", "6",
                               "--n-max", "6", "--max-gens", "2", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        labels = [row["instance"] for row in rows]
        assert "cyclic n=6 S={2,3} w={1,1}" in labels
        assert all("S={2,4}" not in label for label in labels)  # non-generating excluded

    def test_empty_range_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--family", "dihedral", "--n-min", "9",
                             "--n-max", "3")
        assert code == 64

    def test_failing_member_names_its_instance(self, capsys, monkeypatch):
        real_analyze = k0lab.cli.analyze

        def analyze_failing_at_seven(spec, *args, **kwargs):
            if spec.n == 7:
                raise InternalCheckError("forced failure")
            return real_analyze(spec, *args, **kwargs)

        monkeypatch.setattr(k0lab.cli, "analyze", analyze_failing_at_seven)
        code, out, err = run_cli(capsys, "scan", "--family", "k_cycle", "--n-min", "5",
                                 "--n-max", "8", "--w-min", "2", "--w-max", "3")
        assert code == 70
        assert out == ""
        assert err == "k0lab: internal check failed: k_cycle n=7 W=2: forced failure\n"


class TestCompareCommand:
    def test_dihedral_vs_loop_step(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "dihedral:n=5", "cyclic:n=3:gens=0,1")
        assert code == 0
        assert "verdict: isomorphic" in out
        assert "L(1,2)" in out

    def test_different_complete_graphs(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "complete:n=3:l=1", "complete:n=4:l=1")
        assert code == 0
        assert "not_by_this_criterion" in out

    def test_non_pis_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "compare", "kcycle:n=4:w=1", "cyclic:n=6:gens=2,3")
        assert code == 3

    def test_bad_descriptor(self, capsys):
        code, _, _ = run_cli(capsys, "compare", "cyclic:n=6", "dihedral:n=5")
        assert code == 64

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "cyclic:n=6:gens=2,3", "kcycle:n=3:w=2",
                               "--json")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "isomorphic"
        assert data["left"]["k0"]["display"] == "Z_7"
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_identity_class_blocks_loop_graph_match(self, capsys):
        # same Z_7 and determinant sign, but the identity classes differ
        # (order 1 vs 7), so the criterion cannot conclude isomorphism
        code, out, _ = run_cli(capsys, "compare", "cyclic:n=6:gens=2,3", "cyclic:n=1:gens=0:w=8")
        assert code == 0
        assert "not_by_this_criterion" in out


def test_internal_check_failure_exit_code(capsys, monkeypatch):
    def failing_analyze(*args, **kwargs):
        raise InternalCheckError("forced failure")

    monkeypatch.setattr(k0lab.cli, "analyze", failing_analyze)
    code, out, err = run_cli(capsys, "cayley", "--n", "6", "--gens", "2,3")
    assert code == 70
    assert out == ""
    assert err == "k0lab: internal check failed: forced failure\n"


class TestFuzz:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bogus"],
            ["cayley"],
            ["cayley", "--n", "x", "--gens", "1"],
            ["cayley", "--n", "6", "--gens", ""],
            ["cayley", "--n", "6", "--gens", "1,a"],
            ["cayley", "--n", "0", "--gens", "1"],
            ["cayley", "--n", "-3", "--gens", "1"],
            ["scan", "--family", "martian", "--n-max", "4"],
            ["scan", "--family", "s01", "--n-max", "4", "--a-min", "0"],
            ["compare", "cyclic", "dihedral:n=2"],
            ["compare", "cyclic:n=:gens=1", "dihedral:n=2"],
            ["snf", "--in", "/nonexistent/file"],
        ],
    )
    def test_malformed_inputs_exit_cleanly(self, capsys, argv):
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 2, 3, 64, 65)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "k0lab.cli", "cayley", "--n", "6", "--gens", "2,3"],
        capture_output=True,
        text=True,
        env=src_on_path(),
    )
    assert proc.returncode == 0
    assert "K0 = Z_7" in proc.stdout
