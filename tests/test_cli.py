"""Command line behavior: output formats, exit codes, flag validation."""

from __future__ import annotations

import json

import pytest

from jacmod import cli
from jacmod.cli import main
from jacmod.jacobian import InternalConsistencyError

D63 = "(x^9+y^4*z^5)^7+x*z^62"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_free_curve_exit_zero(self, capsys):
        code, out, err = run(capsys, "analyze", "x*y*z")
        assert code == 0
        assert "free" in out
        assert "result: PASS" in out

    def test_non_homogeneous_exit_two(self, capsys):
        code, out, err = run(capsys, "analyze", "x^2+y^3")
        assert code == 2
        assert "homogeneous" in err
        assert out == ""

    def test_parse_error_exit_two(self, capsys):
        code, out, err = run(capsys, "analyze", "x^3 + + y^3")
        assert code == 2
        assert "error" in err

    def test_non_reduced_exit_two(self, capsys):
        code, out, err = run(capsys, "analyze", "x^2*y*z")
        assert code == 2
        assert "repeated component" in err

    def test_nodal_flags(self, capsys):
        code, out, err = run(
            capsys,
            "analyze",
            "--nodal",
            "--nodes",
            "4",
            "--components",
            "2",
            "--rational",
            "(x*z - y^2) * (y*z - x^2)",
        )
        assert code == 0
        assert "nodal-vector" in out

    def test_nodal_mismatch_exit_two(self, capsys):
        code, out, err = run(
            capsys,
            "analyze",
            "--nodal",
            "--nodes",
            "3",
            "--components",
            "2",
            "(x*z - y^2) * (y*z - x^2)",
        )
        assert code == 2
        assert "Tjurina" in err

    def test_nodes_without_nodal_rejected(self, capsys):
        code, out, err = run(capsys, "analyze", "--nodes", "4", "x*y*z")
        assert code == 2

    def test_nodal_without_counts_rejected(self, capsys):
        code, out, err = run(capsys, "analyze", "--nodal", "x*y*z")
        assert code == 2

    def test_json_output(self, capsys):
        code, out, err = run(capsys, "analyze", "--json", "y^4 + x*z^3")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "jacmod-report/1"
        assert data["classification"]["tag"] == "nearly-free"
        assert data["vector"] == [0, 0, 1, 1, 1, 0, 0]

    def test_csv_flag_matches_plot_data(self, capsys):
        code_a, out_a, _ = run(capsys, "analyze", "--csv", "x^3+y^3+z^3")
        code_b, out_b, _ = run(capsys, "plot-data", "x^3+y^3+z^3")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_composite_modulus_rejected(self, capsys):
        code, out, err = run(capsys, "analyze", "--field", "gfp:10", "x*y*z")
        assert code == 2
        assert "not prime" in err

    def test_small_prime_rejected(self, capsys):
        code, out, err = run(capsys, "analyze", "--field", "gfp:7", "x^3+y^3+z^3")
        assert code == 2

    def test_unusable_modulus_rejected(self, capsys):
        # not an integer; a prime beyond the int64 engine's 2^31 limit
        for field in ("gfp:abc", "gfp:2305843009213693951"):
            code, out, err = run(capsys, "analyze", "--field", field, "x*y*z*(x+y+z)")
            assert code == 2, field
            assert err.startswith("error: "), field

    def test_internal_consistency_error_exit_two(self, capsys, monkeypatch):
        def fail(text, options):
            raise InternalConsistencyError("structural identity failed")

        monkeypatch.setattr(cli, "analyze_text", fail)
        code, out, err = run(capsys, "analyze", "x*y*z")
        assert code == 2
        assert err == "error: structural identity failed\n"
        assert out == ""

    def test_unlucky_prime_redrawn_at_parse_time(self, capsys):
        # 1277389331 is the first prime drawn at seed 0: dividing by it is
        # division by zero mod that prime, so the default field re-draws
        curve = "x^3/1277389331 + y^3 + z^3"
        code, out, err = run(capsys, "analyze", curve)
        assert code == 0
        assert "gfp:1277389331" not in out
        assert "smooth" in out
        # an explicit prime is never replaced
        code, out, err = run(capsys, "analyze", "--field", "gfp:1277389331", curve)
        assert code == 2
        assert "division by zero" in err

    def test_rational_field(self, capsys):
        code, out, err = run(capsys, "analyze", "--field", "rational", "x*y*z")
        assert code == 0
        assert "rational" in out

    def test_formula_mode(self, capsys):
        code, out, err = run(
            capsys, "analyze", "--skip-oracle", "--exponents", "9,56,62", D63
        )
        assert code == 0
        assert "three-syzygy" in out
        assert "source formula" in out

    @pytest.mark.parametrize("tau", ["-3", "100000"])
    def test_formula_mode_tau_out_of_range_exit_two(self, capsys, tau):
        code, out, err = run(
            capsys, "analyze", "--skip-oracle", "--exponents", "9,56,62",
            "--tau", tau, D63,
        )
        assert code == 2
        assert "outside [0, 3367]" in err
        assert out == ""

    def test_skip_oracle_without_exponents(self, capsys):
        code, out, err = run(capsys, "analyze", "--skip-oracle", "x*y*z")
        assert code == 2
        assert "exponents" in err

    def test_bad_exponent_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--skip-oracle", "--exponents", "9,ab", "x*y*z"])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "x*y*z"])
        assert exc.value.code == 2

    def test_pencil_report(self, capsys):
        code, out, err = run(capsys, "analyze", "x*y")
        assert code == 0
        assert "pencil-of-lines" in out


class TestPlotData:
    def test_fermat_cubic_rows(self, capsys):
        code, out, err = run(capsys, "plot-data", "x^3+y^3+z^3")
        assert code == 0
        assert out.splitlines() == [
            "k,n,source",
            "0,1,oracle",
            "1,3,oracle",
            "2,3,oracle",
            "3,1,oracle",
        ]

    def test_free_curve_zero_column(self, capsys):
        code, out, err = run(capsys, "plot-data", "x*y*z")
        lines = out.splitlines()
        assert lines[0] == "k,n,source"
        assert [row.split(",")[1] for row in lines[1:]] == ["0", "0", "0", "0"]

    def test_formula_mode_row_count(self, capsys):
        code, out, err = run(
            capsys, "plot-data", "--skip-oracle", "--exponents", "9,56,62", D63
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 184  # header + T+1 rows
        assert lines[1 + 91] == "91,27,formula"

    def test_pencil_has_no_vector(self, capsys):
        code, out, err = run(capsys, "plot-data", "x*y")
        assert code == 2
        assert "no Hilbert vector" in err
