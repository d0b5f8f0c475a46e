"""Orchestration tests: the cross-check matrix, one-field runs,
formula-only mode, and report serialization (the default prime pair is
tested in test_oracle.py)."""

from __future__ import annotations

import json
import os
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
    NodalData,
    analyze_text,
)
from jacmod.curves import MetadataError
from jacmod.fields import FieldError
from jacmod.jacobian import (
    CurveJacobian,
    InternalConsistencyError,
    ModuleVector,
    NotReducedError,
)
from jacmod.poly import basis_dimension

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

    @pytest.mark.parametrize("field", ["bogus", "gfp:abc", "gfp:4", "gfp:2147483659"])
    @pytest.mark.parametrize("formula", [False, True], ids=["oracle", "formula"])
    def test_field_refused_before_the_parse(self, monkeypatch, field, formula):
        # an unknown name, a modulus that is not an integer, a composite
        # and a prime past 2^31, on every path
        monkeypatch.setattr(analysis, "parse_form", lambda *args, **kw: pytest.fail("parsed"))
        exponents = (1, 1) if formula else None
        options = AnalysisOptions(field=field, skip_oracle=formula, exponents=exponents)
        with pytest.raises((AnalysisError, FieldError)):
            analyze_text("x^3+y^3+z^3", options)

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
# one field: one run in this process, with no helper
# ---------------------------------------------------------------------------


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


class TestPrimePair:
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
