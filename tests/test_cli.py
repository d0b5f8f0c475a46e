"""Command line behavior: output formats, exit codes, flag validation."""

from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

from jacmod import cli
from jacmod.analysis import FORMULA_MAX_DEGREE
from jacmod.cli import main
from jacmod.fields import Field
from jacmod.jacobian import CurveJacobian, InternalConsistencyError
from jacmod.linalg import GrowingRref

D63 = "(x^9+y^4*z^5)^7+x*z^62"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jacmod(*argv: str, stdout=subprocess.PIPE, timeout=120) -> subprocess.CompletedProcess:
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
        timeout=timeout,
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

    def test_degree_past_the_cap_exits_two_before_expanding(self):
        # expanding (x+y+z)^160 over Q takes about a minute; the parse
        # refuses the power at once, naming the degree it would reach
        done = jacmod("analyze", "(x+y+z)^160", timeout=10)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: the input reaches degree 160 ")
        assert done.stderr.count("\n") == 1

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

    NUMPY_MESSAGE = (
        "Unable to allocate 3.35 GiB for an array with shape (449985000,) and data type int64"
    )

    @pytest.mark.parametrize("field", ["gfp:2147483647", "gfp", "rational"])
    def test_out_of_memory_exit_two(self, capsys, monkeypatch, field):
        # the oracle's first table cannot be allocated; under two primes
        # both runs raise, and the first prime's error is reported (a
        # run under one prime only would re-draw, and end in another
        # message)
        def no_memory(self, field, ncols):
            raise MemoryError(TestAnalyze.NUMPY_MESSAGE)

        monkeypatch.setattr(GrowingRref, "__init__", no_memory)
        code, out, err = run(capsys, "analyze", "--field", field, "x^3 + y^3 + z^3")
        assert code == 2
        assert out == ""
        assert err == f"error: out of memory: {TestAnalyze.NUMPY_MESSAGE}\n"

    @pytest.mark.parametrize("field", ["gfp:2147483647", "gfp"])
    def test_out_of_memory_without_a_message_exit_two(self, capsys, monkeypatch, field):
        def no_memory(self, shape):
            raise MemoryError

        monkeypatch.setattr(Field, "zeros", no_memory)
        code, out, err = run(capsys, "analyze", "--field", field, "x*y*z*(x+y+z)")
        assert (code, out, err) == (2, "", "error: out of memory\n")

    def test_broken_milnor_identity_exit_two(self, capsys, monkeypatch):
        # one free column of degree 2 missing, so rank Phi_k is one short
        # from k = 2 on: the cross-layer guard refuses the run under an
        # explicit prime, which is never replaced
        exact = CurveJacobian.module_vector

        def skewed(self):
            self.milnor_hilbert()
            degree_two = self._free[self._free >= 3]  # at or past dim S_1 = 3
            self._free = self._free[self._free != degree_two[0]]
            return exact(self)

        monkeypatch.setattr(CurveJacobian, "module_vector", skewed)
        curve = "(x*z - y^2) * (y*z - x^2)"
        code, out, err = run(capsys, "analyze", "--field", "gfp:2147483647", curve)
        assert code == 2
        assert out == ""
        assert err.startswith("error: saturation and Milnor ranks disagree at degree 2")

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

    def test_formula_mode_inconsistent_tau_names_the_inputs(self, capsys):
        code, out, err = run(
            capsys, "analyze", "--skip-oracle", "--exponents", "3,4,4", "--tau", "1",
            "x^6+y^6+z^6",
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: tau and exponents are inconsistent: "
            "central and resolution formulas disagree at 5\n"
        )

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

    def test_formula_mode_parse_budget(self, capsys):
        # (x+y+z)^300 would multiply about 110 M pairs of terms; the
        # parse refuses the power before its first product
        start = time.perf_counter()
        code, out, err = run(
            capsys, "analyze", "--skip-oracle", "--exponents", "1,298", "(x+y+z)^300"
        )
        assert time.perf_counter() - start < 20
        assert code == 2
        assert out == ""
        assert err == (
            "error: the expansion would multiply more than 10,000,000 pairs of terms "
            "(at position 8)\n"
        )

    def test_skip_oracle_without_exponents(self, capsys):
        code, out, err = run(capsys, "analyze", "--skip-oracle", "x*y*z")
        assert code == 2
        assert "exponents" in err

    def test_bad_exponent_list(self, capsys):
        code, out, err = run(capsys, "analyze", "--skip-oracle", "--exponents", "9,ab", "x*y*z")
        assert code == 2
        assert out == ""
        assert err == (
            "error: argument --exponents: expected comma-separated integers, e.g. 9,56,62\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["frobnicate", "x*y*z"], "argument command: invalid choice: 'frobnicate'"),
            (["analyze", "--frobnicate", "x*y*z"], "unrecognized arguments: --frobnicate"),
            (["analyze", "-x*y*z"], "the following arguments are required: curve"),
        ],
        ids=["subcommand", "flag", "leading-dash"],
    )
    def test_unknown_command(self, capsys, argv, message):
        # a usage error is one stderr line, argparse's message, and no
        # usage text
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--help"])
        assert exc.value.code == 0
        assert "usage: jacmod analyze" in capsys.readouterr().out

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
            # int() refuses more than 4300 digits
            ("analyze", "7" * 4301 + "*x^3 + y^3 + z^3"),
            # a coefficient of 10^19 digits would never be computed
            ("analyze", "2^100000000000000000000*x^3 + y^3 + z^3"),
        ],
        ids=["unicode-digit", "huge-formula-degree", "long-literal", "huge-constant-power"],
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


# digits str.isdigit takes: int() refuses the superscript, and reads the
# Arabic-Indic and Devanagari ones as 3 and 1
UNICODE_DIGITS = "³٣१"
HUGE = 10**20


@st.composite
def grammar_texts(draw, depth: int = 3) -> tuple[str, int]:
    """A text of the parser's grammar and its syntactic degree, a bound on
    the degree its expansion reaches (a product adds the degrees of its
    two sides, a power multiplies)."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            return draw(st.sampled_from("xyz")), 1
        return str(draw(st.one_of(st.integers(0, 99), st.integers(0, 10**40)))), 0
    a, da = draw(grammar_texts(depth - 1))
    op = draw(st.sampled_from(["+", "-", "*", "/", "^", "()", "neg"]))
    if op == "^":
        e = draw(st.integers(0, 3))
        return f"({a})^{e}", da * e
    if op == "()":
        return f"({a})", da
    if op == "neg":
        return f"-({a})", da
    b, db = draw(grammar_texts(depth - 1))
    return f"{a}{op}{b}", max(da, db) if op in "+-" else da + db


def rarely(draw, options: list) -> object:
    """The first option three times in four, else one of the others."""
    return options[0] if draw(st.integers(0, 3)) else draw(st.sampled_from(options[1:]))


@st.composite
def input_texts(draw) -> tuple[str, int]:
    """Mostly a curve, a product of linear forms plus perhaps a power of
    x, else a grammar text; then perhaps a Unicode digit in it, a huge
    exponent or coefficient, or parentheses nested thousands deep."""
    if rarely(draw, [False, True]):
        text, degree = draw(grammar_texts())
    else:
        line = st.tuples(*[st.integers(-3, 3)] * 3).filter(any)
        lines = draw(st.lists(line, min_size=1, max_size=6))
        text, degree = "*".join(f"({a}*x{b:+}*y{c:+}*z)" for a, b, c in lines), len(lines)
        if draw(st.booleans()):
            text += f" + {draw(st.integers(1, 5))}*x^{degree}"
    change = rarely(draw, ["none", "digit", "exponent", "coefficient", "nesting"])
    if change == "digit":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(UNICODE_DIGITS)) + text[at:]
    elif change == "exponent":
        e = draw(st.sampled_from([HUGE, 10**5, 2**63]))
        text, degree = f"({text})^{e}", degree * e
    elif change == "coefficient":
        text = f"{'7' * draw(st.sampled_from([4300, 4301, 20000]))}*({text})"
    elif change == "nesting":
        n = draw(st.sampled_from([300, 3000]))
        text = "(" * n + text + ")" * n
    return text, degree


@st.composite
def argument_lists(draw) -> list[str]:
    """analyze --json with a text, a field, a cap, and perhaps
    --skip-oracle or exponents and tau.  Every list does bounded work:
    the parse refuses a degree past its limit before expanding it, and
    below the limit the syntactic degree is at most 8 (4 over Q, where
    entries grow)."""
    text, degree = draw(input_texts())
    field = draw(st.sampled_from(["gfp", "rational", "gfp:2147483647", "gfp:13"]))
    field = rarely(draw, [field, "gfp:15", "gfp:abc", "gfp:٣١", "gfp:" + "9" * 5000, "gfpx"])
    cap = rarely(draw, [20, -1, 0, 3, 8, HUGE])
    argv = ["analyze", "--json", f"--field={field}", f"--max-degree-cap={cap}"]
    formula = rarely(draw, [False, True])
    if formula:
        if draw(st.booleans()):
            argv.append("--skip-oracle")
        exponents = draw(st.lists(st.integers(0, HUGE), min_size=1, max_size=4))
        argv.append("--exponents=" + ",".join(map(str, exponents)))
        if draw(st.booleans()):
            argv.append(f"--tau={draw(st.integers(-2, HUGE))}")
    elif not draw(st.integers(0, 9)):
        argv.append("--skip-oracle")
    limit = FORMULA_MAX_DEGREE if formula or "--skip-oracle" in argv else cap
    assume(degree > limit or degree <= (4 if field == "rational" else 8))
    return [*argv, "--", text]  # a text may start with '-'


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the block once it has run for seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestExitCodeContract:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(argument_lists())
    # exponents no quartic has (sigma < 0), one of them far enough to
    # index the plus-one vector below degree 0
    @example(["analyze", "--json", "--skip-oracle", "--exponents=2,2,100", "--", "x^4+y^4+z^4"])
    @example(["analyze", "--json", "--skip-oracle", "--exponents=2,2,6", "--", "x^4+y^4+z^4"])
    # a power whose expansion passes the parse's term-pair budget
    @example(["analyze", "--json", "--skip-oracle", "--exponents=1,298", "--", "(x+y+z)^300"])
    def test_every_argument_list_exits_zero_one_or_two(self, argv):
        # exit 2 with one stderr line and no traceback; exit 1 only with
        # a failed check in the report; no exception escapes main()
        out, err = io.StringIO(), io.StringIO()
        with time_limit(30), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        event(f"exit {code}")
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err[:300]
            return
        assert err == ""
        report = json.loads(out)
        failed = [check for check in report["checks"] if check["status"] == "fail"]
        assert (code, report["passed"]) == ((1, False) if failed else (0, True))
