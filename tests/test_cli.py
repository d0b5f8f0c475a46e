"""Command line behavior: output formats, exit codes, flag validation."""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jacmod import cli
from jacmod.analysis import FORMULA_MAX_DEGREE
from jacmod.cli import main
from jacmod.jacobian import CurveJacobian, InternalConsistencyError

D63 = "(x^9+y^4*z^5)^7+x*z^62"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jacmod(*argv: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """`python -m jacmod ARGV` in a process of its own, with the
    package from this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    return subprocess.run(
        [sys.executable, "-m", "jacmod", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=120,
    )


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

    def test_deeply_nested_input_exit_two(self, capsys):
        # nesting past the recursion limit is a parse error, not a crash
        curve = "(" * 3000 + "x*y*z" + ")" * 3000
        code, out, err = run(capsys, "analyze", curve)
        assert code == 2
        assert out == ""
        assert err.startswith("error: parentheses nested too deeply (at position ")
        assert err.count("\n") == 1

    def test_failed_fork_exit_two_with_the_pipe_closed(self, capsys, monkeypatch):
        # a second-prime run that cannot start is an error of the run, not
        # a failed formula check; both ends of its pipe are closed
        pipes = []
        pipe = os.pipe

        def recorded_pipe():
            pipes.append(pipe())
            return pipes[-1]

        def no_fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "pipe", recorded_pipe)
        monkeypatch.setattr(os, "fork", no_fork)
        code, out, err = run(capsys, "analyze", "x*y*z")
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot start the gfp:")
        assert err.endswith(" run: [Errno 11] Resource temporarily unavailable\n")
        assert err.count("\n") == 1
        assert len(pipes) == 2  # the helper's requests and replies
        for fd in pipes[0] + pipes[1]:
            with pytest.raises(OSError, match="Bad file descriptor"):
                os.fstat(fd)

    def test_failed_pipe_exit_two_with_no_fd_leaked(self, capsys, monkeypatch):
        # a pipe that cannot be opened (too many open files) is an error of
        # the run as well: one stderr line, no fork, no descriptor left open
        def no_pipe():
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(os, "pipe", no_pipe)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked without a pipe"))
        before = sorted(os.listdir("/dev/fd"))
        code, out, err = run(capsys, "analyze", "x*y*z")
        assert sorted(os.listdir("/dev/fd")) == before
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot start the gfp:")
        assert err.endswith(" run: [Errno 24] Too many open files\n")
        assert err.count("\n") == 1

    def test_failed_second_pipe_closes_the_first(self, capsys, monkeypatch):
        pipes = []
        pipe = os.pipe

        def one_pipe():
            if pipes:
                raise OSError(errno.EMFILE, "Too many open files")
            pipes.append(pipe())
            return pipes[-1]

        monkeypatch.setattr(os, "pipe", one_pipe)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked without a pipe"))
        code, out, err = run(capsys, "analyze", "x*y*z")
        assert code == 2
        assert err.endswith(" run: [Errno 24] Too many open files\n")
        for fd in pipes[0]:
            with pytest.raises(OSError, match="Bad file descriptor"):
                os.fstat(fd)

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

    def test_broken_milnor_identity_exit_two(self, capsys, monkeypatch):
        # rank Phi_3 one short: the cross-layer guard refuses the run under
        # an explicit prime, which is never replaced
        exact = CurveJacobian._image_ranks

        def skewed(self, a):
            ranks = exact(self, a)
            ranks[3] -= 1
            return ranks

        monkeypatch.setattr(CurveJacobian, "_image_ranks", skewed)
        curve = "(x*z - y^2) * (y*z - x^2)"
        code, out, err = run(capsys, "analyze", "--field", "gfp:2147483647", curve)
        assert code == 2
        assert out == ""
        assert err.startswith("error: saturation and Milnor ranks disagree at degree 3")

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

    def test_formula_mode_degree_limit(self, capsys):
        d = FORMULA_MAX_DEGREE
        code, out, err = run(
            capsys, "plot-data", "--skip-oracle", "--exponents", f"1,{d - 2}",
            f"x^{d - 1}*y + y^{d}",
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 3 * (d - 2) + 1
        code, out, err = run(
            capsys, "analyze", "--skip-oracle", "--exponents", f"1,{d - 1}",
            f"x^{d}*y + y^{d + 1}",
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: degree {d + 1} is above {d}, the largest degree "
            "formula-only mode evaluates\n"
        )

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


class TestProcess:
    @pytest.mark.parametrize(
        "argv",
        [
            # str.isdigit takes the superscript, and int() refuses it
            ("analyze", "x\u00b3+y^3+z^3"),
            # 3(d-2)+1 entries would not fit a list
            ("analyze", "x^100000000000000000000", "--skip-oracle",
             "--exponents", "1,99999999999999999998"),
        ],
        ids=["unicode-digit", "huge-formula-degree"],
    )
    def test_input_error_exit_two_with_one_line(self, argv):
        done = jacmod(*argv)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: ")
        assert len(done.stderr.splitlines()) == 1

    def test_exit_zero_and_stdout_closed_at_exit(self):
        # stdout reaches EOF only once no process holds it, the
        # second-prime helper included
        proc = jacmod("analyze", "x*y*z", "--json")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["classification"]["tag"] == "free"

    def test_closed_pipe_exit_two(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = jacmod("analyze", "x*y*z", stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write the output: [Errno 32] Broken pipe\n"

    def test_full_disk_exit_two(self):
        # /dev/full refuses every write with ENOSPC
        with open("/dev/full", "w") as full:
            proc = jacmod("analyze", "x*y*z", stdout=full)
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: cannot write the output: [Errno 28] No space left on device\n"
        )


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
