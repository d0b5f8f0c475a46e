"""Orchestration tests: the cross-check matrix, two-prime agreement,
formula-only mode, and report serialization."""

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

import numpy as np
import pytest

from jacmod import analysis, poly
from jacmod.analysis import (
    FAIL,
    NA,
    PASS,
    AnalysisError,
    AnalysisOptions,
    CurveReport,
    NodalData,
    _analyze_over_field,
    analyze_text,
)
from jacmod.curves import MetadataError
from jacmod.fields import prime_field, prime_pair, rational_field
from jacmod.jacobian import (
    CurveJacobian,
    InternalConsistencyError,
    ModuleVector,
    NotReducedError,
)
from jacmod.poly import basis_dimension, parse_form, reduce_form

CONIC_PAIR = "(x*z - y^2) * (y*z - x^2)"
PLUS_ONE_QUINTIC = "3*x^2*y^3 + 4*y^5 + 5*y^3*z^2 + 4*y*z^4"
THREE_SYZYGY_SEPTIC = "x^4*y^2*z - 5*x*y^5*z + x*y*z^5 + 3*y^6*z"
# curves whose exponents the formula mode accepts, with the oracle's
# exponents and tau: three free curves, one of each three-generator
# class, and a maximal Tjurina quintic with four generators
PARITY_CURVES = (
    "x*y*z",
    "x*y*z*(x-y)*(x-z)",
    "(x^3-y^3)*(y^3-z^3)*(x^3-z^3)",
    "y^4 + x*z^3",
    PLUS_ONE_QUINTIC,
    THREE_SYZYGY_SEPTIC,
    "-2*x*y^3*z - 3*x*y^2*z^2 - 6*x*y*z^3 - 3*x*z^4 + 2*y^2*z^3 + 4*y*z^4",
)
# what only the oracle knows, or what describes how a report was made
NOT_COMPARED = (
    "milnor",
    "coincidence_threshold",
    "vector_source",
    "checks",
    "passed",
    "fields",
    "timings",
)


# the checks both modes make, each from the same data
SHARED_CHECKS = ("symmetry", "unimodality", "sigma-resolution")
# an oracle report's checks, in order
ORACLE_CHECKS = (
    "symmetry",
    "unimodality",
    "support-window",
    "sigma-resolution",
    "resolution-balance",
    "central-window",
    "central-plateau",
    "smooth-vector",
    "free-relations",
    "plus-one-vector",
    "three-syzygy-vector",
    "maximal-tjurina-vector",
    "hartshorne-bound",
    "second-chern-is-nu",
    "coincidence-threshold",
    "saturation-defect",
    "nodal-mdr",
    "nodal-vector",
)
# a non-free curve with 2 mdr < d lists its central plateau first
PLATEAU_FIRST = (*ORACLE_CHECKS[:5], "central-plateau", "central-window", *ORACLE_CHECKS[7:])


def status(report, name: str) -> str:
    return {c.name: c.status for c in report.checks}[name]


def shared_checks(report: dict) -> list[dict]:
    return [c for c in report["checks"] if c["name"] in SHARED_CHECKS]


class TestOracleReports:
    def test_free_curve(self):
        report = analyze_text("x*y*z")
        assert report.classification.tag == "free"
        assert report.vector == (0, 0, 0, 0)
        assert report.tjurina == 3
        assert report.passed
        assert len(report.field_labels) == 2
        assert report.field_labels[0] != report.field_labels[1]
        assert status(report, "free-relations") == PASS
        assert status(report, "three-syzygy-vector") == NA

    def test_smooth_quintic(self):
        report = analyze_text("x^5 + y^5 + z^5")
        assert report.classification.tag == "smooth"
        assert report.exponents == (4, 4, 4)
        assert report.sigma == 0
        assert status(report, "smooth-vector") == PASS
        assert status(report, "central-window") == PASS
        assert status(report, "second-chern-is-nu") == PASS
        assert report.passed

    def test_three_syzygy_check_runs(self):
        report = analyze_text("y*z*(x^3 + y^3 + z^3)")
        assert report.classification.tag == "three-syzygy"
        assert status(report, "three-syzygy-vector") == PASS
        assert report.passed

    def test_plus_one_quintic(self):
        report = analyze_text(PLUS_ONE_QUINTIC)
        assert report.classification.tag == "plus-one-generated"
        assert report.classification.level == 4
        assert report.exponents == (2, 3, 4)
        assert report.vector == (0, 0, 0, 1, 2, 2, 1, 0, 0, 0)
        assert status(report, "plus-one-vector") == PASS
        assert report.passed

    def test_nodal_metadata_pass(self):
        report = analyze_text(
            CONIC_PAIR,
            AnalysisOptions(nodal=NodalData(nodes=4, components=2, all_rational=True)),
        )
        assert status(report, "nodal-vector") == PASS
        assert status(report, "nodal-mdr") == PASS
        assert report.passed

    def test_nodal_count_mismatch_rejected(self):
        with pytest.raises(MetadataError):
            analyze_text(
                CONIC_PAIR,
                AnalysisOptions(nodal=NodalData(nodes=3, components=2, all_rational=True)),
            )

    @pytest.mark.parametrize(
        "text, options, names",
        [
            ("x*y*z", AnalysisOptions(), ORACLE_CHECKS),  # free
            (THREE_SYZYGY_SEPTIC, AnalysisOptions(), ORACLE_CHECKS),  # 2 mdr >= d
            ("y^4 + x*z^3", AnalysisOptions(), PLATEAU_FIRST),  # 2 mdr < d
            ("x^5 + y^5 + z^5", AnalysisOptions(), ORACLE_CHECKS),  # smooth
            (CONIC_PAIR, AnalysisOptions(nodal=NodalData(4, 2, True)), ORACLE_CHECKS),
            ("x*y*z", AnalysisOptions(skip_oracle=True, exponents=(1, 1)), SHARED_CHECKS),
        ],
    )
    def test_check_order(self, text, options, names):
        # the benchmark's digests hold the ordered check names
        report = analyze_text(text, replace(options, field="gfp:2147483647"))
        assert tuple(c.name for c in report.checks) == names

    def test_pencil_of_lines(self):
        report = analyze_text("x*y")
        assert report.classification.tag == "pencil-of-lines"
        assert report.vector is None
        assert report.checks == ()
        assert report.passed
        with pytest.raises(AnalysisError):
            report.plot_rows()

    def test_single_line(self):
        report = analyze_text("x + y")
        assert report.degree == 1
        assert report.classification.tag == "pencil-of-lines"

    def test_broken_identity_is_a_failed_check(self, monkeypatch):
        # the analysis layer reports an identity a vector breaks as a
        # failed check; the vector is skewed after the engine's own guard
        exact = CurveJacobian.module_vector

        def skewed(self):
            vec = exact(self)
            return ModuleVector(vec.degree, (vec.values[0] + 1, *vec.values[1:]))

        monkeypatch.setattr(CurveJacobian, "module_vector", skewed)
        report = analyze_text("x^3 + y^3 + z^3", AnalysisOptions(field="gfp:2147483647"))
        assert report.vector == (2, 3, 3, 1)
        assert status(report, "symmetry") == FAIL
        assert status(report, "unimodality") == PASS
        assert not report.passed

    def test_non_reduced_rejected(self):
        with pytest.raises(NotReducedError):
            analyze_text("x^2*y*z")

    def test_broken_milnor_identity_under_explicit_prime_raises(self, monkeypatch):
        _skew_image_rank(monkeypatch, 2, lambda p: True)
        with pytest.raises(InternalConsistencyError, match="at degree 2"):
            analyze_text(CONIC_PAIR, AnalysisOptions(field="gfp:2147483647"))

    def test_explicit_prime(self):
        report = analyze_text("x*y*z", AnalysisOptions(field="gfp:2147483647"))
        assert report.field_labels == ("gfp:2147483647",)

    def test_rational_field(self):
        report = analyze_text("y^4 + x*z^3", AnalysisOptions(field="rational"))
        assert report.field_labels == ("rational",)
        assert report.vector == (0, 0, 1, 1, 1, 0, 0)

    def test_unknown_field_rejected(self):
        with pytest.raises(AnalysisError):
            analyze_text("x*y*z", AnalysisOptions(field="gf64"))

    def test_seed_determinism(self):
        a = analyze_text("x*y*z", AnalysisOptions(seed=5))
        b = analyze_text("x*y*z", AnalysisOptions(seed=5))
        assert a.field_labels == b.field_labels
        assert a.vector == b.vector

    def test_exponents_rejected_with_oracle(self):
        with pytest.raises(AnalysisError):
            analyze_text("x*y*z", AnalysisOptions(exponents=(1, 1)))


class TestFormulaMode:
    def test_large_degree_three_syzygy(self):
        report = analyze_text(
            "(x^9+y^4*z^5)^7+x*z^62",
            AnalysisOptions(skip_oracle=True, exponents=(9, 56, 62)),
        )
        assert report.vector_source == "formula"
        assert report.degree == 63
        assert report.sigma == 59
        assert report.nu == 27
        assert report.vector[68] == 26
        assert all(report.vector[k] == 27 for k in range(69, 92))
        assert report.classification.tag == "three-syzygy"
        assert report.milnor is None
        assert report.passed

    def test_degree_cap_triggers_formula_mode(self):
        report = analyze_text(
            "(x^9+y^4*z^5)^7+x*z^62",
            AnalysisOptions(max_degree_cap=20, exponents=(9, 56, 62)),
        )
        assert report.vector_source == "formula"

    def test_cap_without_exponents_rejected(self):
        with pytest.raises(AnalysisError):
            analyze_text("(x^9+y^4*z^5)^7+x*z^62", AnalysisOptions(max_degree_cap=20))

    def test_expansion_past_the_cap_is_refused_before_it_is_computed(self):
        # the limit holds at every product and power, so an input that
        # would cancel back below the cap is refused too
        cancelling = "(x+y)^30 - (x+y)^30 + x^3 + y^3 + z^3"
        for text, reached in [(cancelling, 30), ("(x+y+z)^300", 300)]:
            with pytest.raises(AnalysisError, match=f"degree {reached} "):
                analyze_text(text, AnalysisOptions(max_degree_cap=20))
        assert analyze_text(cancelling, AnalysisOptions(max_degree_cap=30)).degree == 3

    def test_free_exponents(self):
        report = analyze_text(
            "x*y*z", AnalysisOptions(skip_oracle=True, exponents=(1, 1))
        )
        assert report.classification.tag == "free"
        assert report.tjurina == 3  # derived from the exponents
        assert report.vector == (0, 0, 0, 0)

    def test_free_exponent_sum_rule_enforced(self):
        with pytest.raises(AnalysisError):
            analyze_text("x*y*z", AnalysisOptions(skip_oracle=True, exponents=(1, 2)))

    def test_free_tau_contradiction_rejected(self):
        with pytest.raises(MetadataError):
            analyze_text(
                "x*y*z", AnalysisOptions(skip_oracle=True, exponents=(1, 1), tau=5)
            )

    @pytest.mark.parametrize("tau", [-3, 3368])
    def test_tau_outside_du_plessis_wall_range_rejected(self, tau):
        # (d, r) = (63, 9) allows 0 <= tau <= 62*53 + 81 = 3367
        with pytest.raises(MetadataError):
            analyze_text(
                "(x^9+y^4*z^5)^7+x*z^62",
                AnalysisOptions(skip_oracle=True, exponents=(9, 56, 62), tau=tau),
            )

    def test_plus_one_exponents(self):
        report = analyze_text(
            PLUS_ONE_QUINTIC,
            AnalysisOptions(skip_oracle=True, exponents=(2, 3, 4)),
        )
        assert report.vector == (0, 0, 0, 1, 2, 2, 1, 0, 0, 0)
        assert report.classification.tag == "plus-one-generated"

    def test_parabolic_pattern_needs_tau(self):
        with pytest.raises(AnalysisError):
            analyze_text(
                "x^5+y^5+z^5", AnalysisOptions(skip_oracle=True, exponents=(3, 4, 4))
            )

    def test_parabolic_pattern_with_tau(self):
        report = analyze_text(
            "z*(x^4 + y^4 + z^4 + x*y*z^2)",
            AnalysisOptions(skip_oracle=True, exponents=(3, 4, 4), tau=4),
        )
        assert report.classification.tag == "three-syzygy"
        assert report.passed

    def test_maximal_pattern_many_syzygies(self):
        # d = 4, r = 3, m = 5: the maximal Tjurina profile
        report = analyze_text(
            "x^4+y^4+z^4",  # placeholder input; only d is read in this mode
            AnalysisOptions(skip_oracle=True, exponents=(3, 3, 3, 3, 3), tau=3),
        )
        assert report.vector == (0, 0, 3, 4, 3, 0, 0)
        assert report.classification.maximal_tjurina

    def test_many_syzygies_without_pattern_rejected(self):
        with pytest.raises(AnalysisError):
            analyze_text(
                "x^4+y^4+z^4",
                AnalysisOptions(skip_oracle=True, exponents=(2, 3, 3, 3)),
            )

    @pytest.mark.parametrize("exponents", [(2, 2, 100), (2, 2, 6)])
    def test_negative_sigma_refused_before_the_vector(self, exponents, monkeypatch):
        # d1 + d2 + d3 > 3(d - 1): no quartic has these exponents
        monkeypatch.setattr(analysis, "plus_one_vector", lambda *args: pytest.fail("evaluated"))
        with pytest.raises(AnalysisError, match=r"give sigma = .* < 0; no degree-4 curve"):
            analyze_text("x^4+y^4+z^4", AnalysisOptions(skip_oracle=True, exponents=exponents))

    def test_low_sum_rejected(self):
        with pytest.raises(AnalysisError):
            analyze_text(
                "x^4+y^4+z^4", AnalysisOptions(skip_oracle=True, exponents=(1, 2, 3))
            )

    @pytest.mark.parametrize("text", PARITY_CURVES)
    def test_formula_report_matches_oracle(self, text):
        oracle = analyze_text(text, AnalysisOptions(field="gfp:2147483647")).to_json_dict()
        formula = analyze_text(
            text,
            AnalysisOptions(
                skip_oracle=True, exponents=tuple(oracle["exponents"]), tau=oracle["tjurina"]
            ),
        ).to_json_dict()
        assert shared_checks(formula) == shared_checks(oracle)
        for key in NOT_COMPARED:
            del oracle[key], formula[key]
        assert formula == oracle

    def test_nodal_needs_oracle(self):
        with pytest.raises(AnalysisError):
            analyze_text(
                CONIC_PAIR,
                AnalysisOptions(
                    skip_oracle=True,
                    exponents=(2, 3, 3),
                    nodal=NodalData(4, 2, True),
                ),
            )


class TestReportSerialization:
    def test_json_round_trip(self):
        report = analyze_text("y^4 + x*z^3")
        blob = json.dumps(report.to_json_dict())
        data = json.loads(blob)
        assert data["schema"] == "jacmod-report/1"
        assert data["vector"] == [0, 0, 1, 1, 1, 0, 0]
        assert data["tjurina"] == 6
        assert data["classification"]["tag"] == "nearly-free"
        assert data["passed"] is True
        assert all(isinstance(v, int) for v in data["vector"])

    def test_timings_are_decimal_strings(self):
        report = analyze_text("x*y*z")
        data = report.to_json_dict()
        for value in data["timings"].values():
            assert "e" not in value and "E" not in value
            float(value)

    def test_plot_rows(self):
        report = analyze_text("x^3+y^3+z^3")
        rows = report.plot_rows()
        assert rows == [(0, 1, "oracle"), (1, 3, "oracle"), (2, 3, "oracle"), (3, 1, "oracle")]

    def test_two_prime_checks_comparable(self):
        report = analyze_text(CONIC_PAIR)
        names = [c.name for c in report.checks]
        assert names.count("symmetry") == 1
        assert set(c.status for c in report.checks) <= {PASS, FAIL, NA}
        assert report.passed


# ---------------------------------------------------------------------------
# the default prime pair: one run here, one in this process's helper,
# forked at the first pair and reused by every later one
# ---------------------------------------------------------------------------

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


def _skew_image_rank(monkeypatch, k: int, under) -> None:
    """rank Phi_i comes out one short for i >= k in every saturation
    pass run under a modulus p with under(p): the first of the sweep's
    free columns of degree k is dropped before the count."""
    exact = CurveJacobian.module_vector

    def skewed(self):
        self.milnor_hilbert()
        if under(self.field.p):
            free = self._free
            inside = np.flatnonzero((free >= basis_dimension(k - 1)) & (free < basis_dimension(k)))
            self._free = np.delete(free, inside[:1])
        return exact(self)

    monkeypatch.setattr(CurveJacobian, "module_vector", skewed)


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
    analysis._retire_helper()
    assert_helper_reaped()


def assert_helper_reaped():
    """The helper is gone and reaped, and no other child is left."""
    assert analysis._helper is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _comparable(report: CurveReport) -> CurveReport:
    """The report without what legitimately differs between primes."""
    return replace(report, field_labels=(), timings=())


class TestPrimePair:
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

    def test_pipe_carries_the_form_and_the_oracle_run(self, monkeypatch):
        # the helper is sent the form over Q and its prime, and sends
        # back the oracle's run; the report is made here, once
        sent, received = [], []
        send, receive = analysis._send, analysis._receive

        def sending(fd, data):
            sent.append(data)
            send(fd, data)

        def receiving(fd):
            data = receive(fd)
            received.append(data)
            return data

        monkeypatch.setattr(analysis, "_send", sending)
        monkeypatch.setattr(analysis, "_receive", receiving)
        _, p2 = prime_pair(0, max_degree=4)
        report = analyze_text(CONIC_PAIR)
        form = parse_form(CONIC_PAIR, rational_field())
        assert [pickle.loads(data) for data in sent] == [(form, p2)]
        (reply,) = [pickle.loads(data) for data in received]
        assert type(reply) is analysis.OracleRun
        assert reply == _analyze_over_field(reduce_form(form, prime_field(p2)))
        assert [name for name, _ in reply.timings] == ["milnor", "resolution", "saturation", "total"]
        assert report.vector == reply.vec.values
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

    @pytest.mark.parametrize("field", ["rational", "gfp:2147483647"])
    def test_one_field_forks_nothing(self, monkeypatch, field):
        def no_fork():
            raise AssertionError("a single-field analysis forked")

        monkeypatch.setattr(os, "fork", no_fork)
        report = analyze_text("x*y*z", AnalysisOptions(field=field))
        assert report.field_labels == (field,)

    @pytest.mark.parametrize("field", ["gfp", "gfp:2147483647", "rational"])
    def test_one_parse_over_the_rationals(self, monkeypatch, field):
        # neither process parses over GF(p): the helper, forked after
        # the patch, would send back the AssertionError, and the pair
        # would never agree
        parsed = []
        parse = analysis.parse_form

        def rational_only(text, over, **limit):
            assert over.p is None, "parsed over GF(p)"
            parsed.append(text)
            return parse(text, over, **limit)

        monkeypatch.setattr(analysis, "parse_form", rational_only)
        monkeypatch.setattr(poly, "parse_form", rational_only)
        report = analyze_text("x^3/2 + y^3 - 3/4*z^3", AnalysisOptions(field=field))
        assert report.classification.tag == "smooth"
        assert parsed == ["x^3/2 + y^3 - 3/4*z^3"]

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

        monkeypatch.setattr(analysis, "prime_pair", unlucky_first)
        report = analyze_text(curve)
        assert len(drawn) == 2
        assert report.field_labels == tuple(f"gfp:{p}" for p in drawn[1])
        assert _comparable(report) == _comparable(exact)
        assert_no_child_left()

    def test_two_analyses_fork_once(self, monkeypatch):
        forks = _count_forks(monkeypatch)
        first = analyze_text(FERMAT_CUBIC)
        second = analyze_text(CONIC_PAIR)
        assert first.passed and second.passed
        assert second.vector == (0, 0, 2, 3, 2, 0, 0)
        assert forks == [1]
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
        pid = analysis._helper.pid
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
            helper, analysis._helper = analysis._helper, None
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
        os.kill(analysis._helper.pid, signal.SIGINT)
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
            "from jacmod import analysis\n"
            "analysis.analyze_text('x*y*z')\n"
            "print(analysis._helper.pid)\n"
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
        parent_helper = analysis._helper
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
                own = analysis._helper
                if own is not None and own.pid != parent_helper.pid and forks == [1, 1, 1]:
                    code = 0 if _comparable(report) == _comparable(expected) else 2
                analysis._retire_helper()
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert analysis._helper is parent_helper
        again = analyze_text(CONIC_PAIR)
        assert _comparable(again) == _comparable(expected)
        assert again.field_labels == expected.field_labels
        assert forks == [1, 1]  # the helper, then the grandchild
        assert_no_child_left()
