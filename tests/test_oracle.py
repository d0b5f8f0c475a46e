"""The oracle's runs under the default prime pair: the re-draw rule
(agreeing_run) and the second prime's helper process, forked at the
first pair of a process and reused by every later one."""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from jacmod import analysis, oracle
from jacmod.analysis import AnalysisError, AnalysisOptions, CurveReport, analyze_text
from jacmod.curves import MetadataError
from jacmod.fields import prime_field, prime_pair, rational_field
from jacmod.jacobian import CurveJacobian, InternalConsistencyError, NotReducedError
from jacmod.oracle import _analyze_over_field, agreeing_run
from jacmod.poly import parse_form, reduce_form
from test_analysis import CONIC_PAIR, PLUS_ONE_QUINTIC, _skew_image_rank

FERMAT_CUBIC = "x^3 + y^3 + z^3"
# curves of perfbench/reference.json's survey_pool whose integers mod a
# small prime differ from those over Q, with no check failing
POOL_13 = "-4*x^2*y^3 + 4*x^2*y*z^2 + 3*x^2*z^3 + 5*x*y^4 - 5*x*z^4 - 3*y^2*z^3"
POOL_211 = "y^5 - 4*y^3*z^2 + 8*y*z^4 - 2*z^5"  # a pencil of five lines
POOL_30 = "5*x^4*z + 8*x*y^3*z + 7*y^5 - y^4*z - 4*y^2*z^3 - 3*y*z^4 - 7*z^5"  # smooth


class _ArgsMismatchError(Exception):
    """Pickles, but cannot be rebuilt from its args."""

    def __init__(self, a: str, b: str):
        super().__init__(f"{a} and {b}")


def _fail_under(monkeypatch, modulus: int, fail) -> None:
    """milnor_hilbert calls fail() instead under the given modulus."""
    exact = CurveJacobian.milnor_hilbert

    def patched(self):
        if self.field.p == modulus:
            fail()
        return exact(self)

    monkeypatch.setattr(CurveJacobian, "milnor_hilbert", patched)


def _raise(exc: BaseException):
    def fail():
        raise exc

    return fail


def _count_forks(monkeypatch) -> list[int]:
    forks: list[int] = []
    real = os.fork

    def counted():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_child_left():
    """No child is left but the helper: once it is retired, none."""
    oracle._retire_helper()
    assert_helper_reaped()


def assert_helper_reaped():
    """The helper is gone and reaped, and no other child is left."""
    assert oracle._helper is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _comparable(report: CurveReport) -> CurveReport:
    """The report without what legitimately differs between primes."""
    return replace(report, field_labels=(), timings=())


class TestAgreeingRun:
    def test_the_first_prime_run_and_its_pair(self):
        form = parse_form(CONIC_PAIR, rational_field())
        run, pair = agreeing_run(form, 0)
        assert pair == prime_pair(0, max_degree=4)
        assert run == _analyze_over_field(reduce_form(form, prime_field(pair[0])))
        assert_no_child_left()

    def test_no_agreeing_run_under_three_pairs(self, monkeypatch):
        # every run raises an error only a prime can cause: three pairs,
        # SEED_STEP apart, are drawn and the last one is named
        seeds = []

        def recorded(seed, max_degree):
            seeds.append(seed)
            return prime_pair(seed, max_degree)

        def fail(self):
            raise InternalConsistencyError("simulated")

        monkeypatch.setattr(oracle, "prime_pair", recorded)
        monkeypatch.setattr(CurveJacobian, "milnor_hilbert", fail)
        last = prime_pair(5 + 2 * 7919, max_degree=3)
        named = rf"no agreeing runs under 3 prime pairs \(last \({last[0]}, {last[1]}\)\)"
        with pytest.raises(AnalysisError, match=named):
            analyze_text(FERMAT_CUBIC, AnalysisOptions(seed=5))
        assert seeds == [5, 5 + 7919, 5 + 2 * 7919]
        assert_no_child_left()

    def test_report_is_the_first_prime_run(self, monkeypatch):
        forks = _count_forks(monkeypatch)
        p1, p2 = prime_pair(0, max_degree=4)
        report = analyze_text(CONIC_PAIR)
        single = analyze_text(CONIC_PAIR, AnalysisOptions(field=f"gfp:{p1}"))
        assert _comparable(report) == _comparable(single)
        assert report == replace(
            single, field_labels=(f"gfp:{p1}", f"gfp:{p2}"), timings=report.timings
        )
        assert forks == [1]
        assert_no_child_left()

    def test_error_while_checking_is_raised_once(self, monkeypatch):
        # the agreeing run is classified once, here, so an error there
        # is the analysis's, as on one field, with no re-draw
        calls = []

        def fail(*args):
            calls.append(args)
            raise InternalConsistencyError("simulated")

        monkeypatch.setattr(analysis, "classify", fail)
        with pytest.raises(InternalConsistencyError, match="simulated"):
            analyze_text(FERMAT_CUBIC)
        assert len(calls) == 1
        assert_no_child_left()

    def test_non_reduced_under_first_prime_only_redraws(self, monkeypatch):
        p1, _ = prime_pair(0, max_degree=3)
        _fail_under(monkeypatch, p1, _raise(NotReducedError("simulated")))
        forks = _count_forks(monkeypatch)
        report = analyze_text(FERMAT_CUBIC)
        q1, q2 = prime_pair(7919, max_degree=3)
        assert report.field_labels == (f"gfp:{q1}", f"gfp:{q2}")
        assert report.passed
        assert forks == [1]  # the re-drawn pair reuses the helper
        assert_no_child_left()

    @pytest.mark.parametrize(
        "curve, prime, position",
        [(POOL_13, 139, 0), (POOL_13, 139, 1), (POOL_211, 241, 0), (POOL_30, 101, 0)],
        ids=["tau-5-first", "tau-5-second", "not-reduced", "smooth-gains-a-point"],
    )
    def test_real_unlucky_prime_redraws(self, monkeypatch, curve, prime, position):
        # mod 139 pool curve 13 has tau 5 and exponents (4, 4, 4, 4, 4)
        # against 4 and (4, 4, 4, 4), and passes every check; mod 241 the
        # pencil of five lines raises NotReducedError; mod 101 the smooth
        # quintic has tau 1.  The first pair, holding that prime, is
        # re-drawn, and the report is the one over a 31-bit prime
        exact = analyze_text(curve, AnalysisOptions(field="gfp:2147483647"))
        try:
            unlucky = _comparable(analyze_text(curve, AnalysisOptions(field=f"gfp:{prime}")))
        except NotReducedError:
            unlucky = None
        assert unlucky != _comparable(exact)
        drawn = []

        def unlucky_first(seed, max_degree):
            pair = list(prime_pair(seed, max_degree))
            if not drawn:
                pair[position] = prime
            drawn.append(tuple(pair))
            return drawn[-1]

        monkeypatch.setattr(oracle, "prime_pair", unlucky_first)
        report = analyze_text(curve)
        assert len(drawn) == 2
        assert report.field_labels == tuple(f"gfp:{p}" for p in drawn[1])
        assert _comparable(report) == _comparable(exact)
        assert_no_child_left()

    def test_internal_error_in_child_redraws(self, monkeypatch):
        # the second prime runs in the child, which inherits the patch
        _, p2 = prime_pair(0, max_degree=3)
        _fail_under(monkeypatch, p2, _raise(InternalConsistencyError("simulated")))
        report = analyze_text(FERMAT_CUBIC)
        q1, q2 = prime_pair(7919, max_degree=3)
        assert report.field_labels == (f"gfp:{q1}", f"gfp:{q2}")
        assert report.passed
        assert_no_child_left()

    def test_internal_error_under_both_primes_redraws(self, monkeypatch):
        pair = prime_pair(0, max_degree=3)
        exact = CurveJacobian.milnor_hilbert

        def patched(self):
            if self.field.p in pair:
                raise InternalConsistencyError("simulated")
            return exact(self)

        monkeypatch.setattr(CurveJacobian, "milnor_hilbert", patched)
        report = analyze_text(FERMAT_CUBIC)
        q1, q2 = prime_pair(7919, max_degree=3)
        assert report.field_labels == (f"gfp:{q1}", f"gfp:{q2}")

    @pytest.mark.parametrize("under", [(0,), (0, 1)], ids=["first", "both"])
    def test_broken_milnor_identity_redraws(self, monkeypatch, under):
        # rank Phi_2 one short under primes of the first pair: the
        # cross-layer guard raises there and the pair is re-drawn, even
        # when both primes would agree on the wrong vector
        pair = prime_pair(0, max_degree=4)
        unlucky = {pair[i] for i in under}
        _skew_image_rank(monkeypatch, 2, lambda p: p in unlucky)
        report = analyze_text(CONIC_PAIR)
        q1, q2 = prime_pair(7919, max_degree=4)
        assert report.field_labels == (f"gfp:{q1}", f"gfp:{q2}")
        assert report.vector == (0, 0, 2, 3, 2, 0, 0)
        assert_no_child_left()

    def test_parse_error_in_child_redraws(self):
        # the second prime divides the denominator; the child's ParseError
        # crosses the pipe as a PolynomialError and the pair is re-drawn
        _, p2 = prime_pair(0, max_degree=3)
        report = analyze_text(f"x^3/{p2} + y^3 + z^3")
        assert f"gfp:{p2}" not in report.field_labels
        assert report.classification.tag == "smooth"

    def test_same_error_under_both_primes_is_the_first(self, monkeypatch):
        parent = os.getpid()

        def fail(self):
            raise MetadataError("under p1" if os.getpid() == parent else "under p2")

        monkeypatch.setattr(CurveJacobian, "milnor_hilbert", fail)
        forks = _count_forks(monkeypatch)
        with pytest.raises(MetadataError, match="under p1"):
            analyze_text(FERMAT_CUBIC)
        assert forks == [1]
        assert_no_child_left()


class TestHelper:
    def test_pipe_carries_the_form_and_the_oracle_run(self, monkeypatch):
        # the helper is sent the form over Q and its prime, and sends
        # back the oracle's run; the report is made here, once
        sent, received = [], []
        send, receive = oracle._send, oracle._receive

        def sending(fd, data):
            sent.append(data)
            send(fd, data)

        def receiving(fd):
            data = receive(fd)
            received.append(data)
            return data

        monkeypatch.setattr(oracle, "_send", sending)
        monkeypatch.setattr(oracle, "_receive", receiving)
        _, p2 = prime_pair(0, max_degree=4)
        report = analyze_text(CONIC_PAIR)
        form = parse_form(CONIC_PAIR, rational_field())
        assert [pickle.loads(data) for data in sent] == [(form, p2)]
        (reply,) = [pickle.loads(data) for data in received]
        assert type(reply) is oracle.OracleRun
        assert reply == _analyze_over_field(reduce_form(form, prime_field(p2)))
        assert [name for name, _ in reply.timings] == ["milnor", "resolution", "saturation", "total"]
        assert report.vector == reply.vec.values
        assert_no_child_left()

    def test_two_analyses_fork_once(self, monkeypatch):
        forks = _count_forks(monkeypatch)
        first = analyze_text(FERMAT_CUBIC)
        second = analyze_text(CONIC_PAIR)
        assert first.passed and second.passed
        assert second.vector == (0, 0, 2, 3, 2, 0, 0)
        assert forks == [1]
        assert_no_child_left()

    def test_unpicklable_child_error_is_internal(self, monkeypatch):
        _, p2 = prime_pair(0, max_degree=3)
        _fail_under(monkeypatch, p2, _raise(_ArgsMismatchError("child", "text")))
        with pytest.raises(InternalConsistencyError, match="child and text"):
            analyze_text(FERMAT_CUBIC)
        assert_no_child_left()

    def test_child_without_result_is_internal(self, monkeypatch):
        _, p2 = prime_pair(0, max_degree=3)
        _fail_under(monkeypatch, p2, lambda: os._exit(3))
        forks = _count_forks(monkeypatch)
        with pytest.raises(InternalConsistencyError, match=r"without sending .*exit status 3"):
            analyze_text(FERMAT_CUBIC)
        assert_helper_reaped()
        # the next analysis forks a fresh helper; p2 is not in its pair
        assert p2 not in prime_pair(1, max_degree=3)
        assert analyze_text(FERMAT_CUBIC, AnalysisOptions(seed=1)).passed
        assert forks == [1, 1]
        assert_no_child_left()

    def test_helper_killed_between_analyses(self, monkeypatch):
        # the next pair finds the request pipe broken: an error of the
        # run that keeps the helper's exit status; the pair after it
        # forks a fresh helper
        forks = _count_forks(monkeypatch)
        analyze_text(FERMAT_CUBIC)
        pid = oracle._helper.pid
        os.kill(pid, signal.SIGKILL)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, not reaped
        with pytest.raises(InternalConsistencyError, match=r"without sending .*exit status -9"):
            analyze_text(FERMAT_CUBIC)
        assert_helper_reaped()
        assert analyze_text(FERMAT_CUBIC).passed
        assert forks == [1, 1]
        assert_no_child_left()

    def test_child_does_not_flush_inherited_buffers(self, tmp_path):
        # the helper leaves at EOF of its requests, as when its parent
        # is killed, and never flushes what it inherited
        path = tmp_path / "out.txt"
        with open(path, "w") as out:
            out.write("written once")  # still buffered when the child forks
            analyze_text(FERMAT_CUBIC)
            helper, oracle._helper = oracle._helper, None
            os.close(helper.requests)
            _, status = os.waitpid(helper.pid, 0)
            os.close(helper.replies)
        assert os.waitstatus_to_exitcode(status) == 0
        assert path.read_text() == "written once"

    def test_interrupt_kills_and_reaps_the_child(self, monkeypatch):
        p1, p2 = prime_pair(0, max_degree=3)
        exact = CurveJacobian.milnor_hilbert

        def patched(self):
            if self.field.p == p2:
                time.sleep(60)
            if self.field.p == p1:
                raise KeyboardInterrupt
            return exact(self)

        monkeypatch.setattr(CurveJacobian, "milnor_hilbert", patched)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            analyze_text(FERMAT_CUBIC)
        assert time.perf_counter() - start < 30
        assert_helper_reaped()

    def test_helper_outlives_ctrl_c_between_analyses(self, monkeypatch):
        # Ctrl-C reaches the whole process group; a parent that goes on
        # keeps its helper
        forks = _count_forks(monkeypatch)
        analyze_text(FERMAT_CUBIC)
        os.kill(oracle._helper.pid, signal.SIGINT)
        assert analyze_text(CONIC_PAIR).passed
        assert forks == [1]
        assert_no_child_left()

    def test_threads_take_turns_with_the_helper(self, monkeypatch):
        # a reply read by the wrong thread would pair one curve's p1 run
        # with another curve's p2 run, which never agree
        curves = (FERMAT_CUBIC, CONIC_PAIR, "x*y*z", "y^4 + x*z^3", PLUS_ONE_QUINTIC)
        one_prime = AnalysisOptions(field="gfp:2147483647")
        expected = {c: _comparable(analyze_text(c, one_prime)) for c in curves}
        forks = _count_forks(monkeypatch)
        results: list[tuple[str, CurveReport | Exception]] = []

        def work(curve: str) -> None:
            for _ in range(3):
                try:
                    results.append((curve, _comparable(analyze_text(curve))))
                except Exception as exc:
                    results.append((curve, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(c,)) for c in curves]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 3 * len(curves)
        for curve, got in results:
            assert got == expected[curve], curve
        assert forks == [1]
        assert_no_child_left()

    def test_helper_reaped_at_exit(self):
        script = (
            "from jacmod import analysis, oracle\n"
            "analysis.analyze_text('x*y*z')\n"
            "print(oracle._helper.pid)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        with pytest.raises(ProcessLookupError):  # reaped, not a zombie
            os.kill(int(proc.stdout), 0)

    def test_grandchild_forks_its_own_helper(self, monkeypatch):
        # a process forked while a helper is live drops the parent's
        # helper pipes and runs its pairs through a helper of its own
        forks = _count_forks(monkeypatch)
        expected = analyze_text(CONIC_PAIR)
        parent_helper = oracle._helper
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                for fd in (parent_helper.requests, parent_helper.replies):
                    try:
                        os.fstat(fd)
                    except OSError:
                        pass
                    else:
                        raise AssertionError(f"the parent's helper fd {fd} is open")
                report = analyze_text(CONIC_PAIR)
                own = oracle._helper
                if own is not None and own.pid != parent_helper.pid and forks == [1, 1, 1]:
                    code = 0 if _comparable(report) == _comparable(expected) else 2
                oracle._retire_helper()
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert oracle._helper is parent_helper
        again = analyze_text(CONIC_PAIR)
        assert _comparable(again) == _comparable(expected)
        assert again.field_labels == expected.field_labels
        assert forks == [1, 1]  # the helper, then the grandchild
        assert_no_child_left()


def test_perfbench_tracer_finds_each_name_it_wraps():
    # perfbench/tracer.py wraps functions by the module and name they
    # have here, the first prime's run as analysis._analyze_over_field:
    # a call it cannot reach reads as none
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    script = (
        "import json, sys\n"
        "import jacmod.cli\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "import tracer\n"
        "from jacmod import analysis\n"
        "spans = tracer.Tracer()\n"
        "tracer.install(spans)\n"
        "for curve in ('x^3+y^3+z^3', 'y^4 + x*z^3'):\n"
        "    analysis.analyze_text(curve)\n"
        "print(json.dumps({name: span[0] for name, span in spans.spans.items()}))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    for name in (
        "analysis.analyze",
        "analysis.prime_run",
        "fields.prime_draw",
        "curves.classify",
        "analysis.cross_check",
    ):
        assert calls.get(name) == 2, (name, calls)
