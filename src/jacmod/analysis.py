"""End-to-end curve analysis: oracle runs, formula cross-checks, and
the report structure consumed by the command line front end.

An analysis runs the linear-algebra oracle (Milnor series, syzygy
resolution, Hilbert vector of N(f)), classifies the curve, evaluates
every closed-form prediction that applies, and records each comparison
as pass / fail / n-a.  Over a random prime field the oracle runs under
two independent primes whose integers must agree, which makes an
unlucky prime detectable, and the report is made once, from the first.
The two runs go at the same time: the second prime's in a helper
process (POSIX), forked at the first two-prime analysis of a process
and reused by every later one, since a fork per analysis costs more
than a small analysis.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import struct
import threading
import time
import traceback
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from .curves import (
    BundleInvariants,
    CurveClass,
    MetadataError,
    PENCIL,
    bundle_invariants,
    central_values,
    classify,
    defect_stable_degree,
    hartshorne_bound,
    max_tjurina_tau,
    maximal_tjurina_vector,
    nodal_values,
    plateau_window,
    plus_one_vector,
    three_syzygy_vector,
)
from .fields import prime_field, prime_pair, rational_field, validate_prime_for_degree
from .jacobian import (
    AnalysisError,
    CoincidenceThreshold,
    CurveJacobian,
    InternalConsistencyError,
    MilnorProfile,
    ModuleVector,
    smooth_reference,
)
from .poly import (
    DegreeLimitError,
    PolynomialError,
    TernaryForm,
    basis_dimension,
    parse_form,
    reduce_form,
)
from .resolution import IncompleteResolutionError, PencilOfLinesError, ResolutionProfile, resolve

PASS = "pass"
FAIL = "fail"
NA = "n/a"

SCHEMA = "jacmod-report/1"

# the largest degree formula-only mode evaluates: its vectors have
# 3(d-2)+1 entries, built as lists
FORMULA_MAX_DEGREE = 10_000

# the largest degree the oracle runs at unless a caller sets another
DEFAULT_MAX_DEGREE_CAP = 20


@dataclass(frozen=True)
class NodalData:
    """User-declared nodal metadata: every singularity is an ordinary
    double point, with the given node and irreducible component counts."""

    nodes: int
    components: int
    all_rational: bool


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | n/a
    detail: str = ""


@dataclass(frozen=True)
class CurveReport:
    """One analysis.  What a branch does not know keeps its default: a
    line or a pencil of lines has no resolution and no vector, and a
    formula-only report has no field, Milnor series or threshold."""

    curve: str
    degree: int
    field_labels: tuple[str, ...] = ()
    top: int | None = None  # T = 3(d-2); None when the vector is undefined (d = 1)
    tjurina: int | None = None
    milnor: tuple[int, ...] | None = None
    mdr: int | None = None
    exponents: tuple[int, ...] = ()
    second_degrees: tuple[int, ...] = ()
    epsilons: tuple[int, ...] = ()
    sigma: int | None = None
    nu: int | None = None
    vector: tuple[int, ...] | None = None
    vector_source: str = "none"  # oracle | formula | none
    classification: CurveClass = PENCIL
    bundle: BundleInvariants | None = None
    hartshorne: int | None = None
    coincidence: CoincidenceThreshold | None = None
    checks: tuple[CheckResult, ...] = ()
    timings: tuple[tuple[str, float], ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "curve": self.curve,
            "fields": list(self.field_labels),
            "degree": self.degree,
            "top": self.top,
            "tjurina": self.tjurina,
            "milnor": list(self.milnor) if self.milnor is not None else None,
            "mdr": self.mdr,
            "exponents": list(self.exponents),
            "second_degrees": list(self.second_degrees),
            "epsilons": list(self.epsilons),
            "sigma": self.sigma,
            "nu": self.nu,
            "vector": list(self.vector) if self.vector is not None else None,
            "vector_source": self.vector_source,
            "classification": {
                "tag": self.classification.tag,
                "m": self.classification.m,
                "level": self.classification.level,
                "maximal_tjurina": self.classification.maximal_tjurina,
                "stable": self.classification.stable,
                "semistable": self.classification.semistable,
            },
            "bundle": None
            if self.bundle is None
            else {"c1": self.bundle.c1, "c2": self.bundle.c2},
            "hartshorne_bound": self.hartshorne,
            "coincidence_threshold": None
            if self.coincidence is None
            else {"value": self.coincidence.value, "censored": self.coincidence.censored},
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail} for c in self.checks
            ],
            "passed": self.passed,
            # fixed-point strings: decimal everywhere, no scientific notation
            "timings": {name: f"{seconds:.6f}" for name, seconds in self.timings},
        }

    def plot_rows(self) -> list[tuple[int, int, str]]:
        if self.vector is None:
            raise AnalysisError("no Hilbert vector available for this input")
        return [(k, n, self.vector_source) for k, n in enumerate(self.vector)]


@dataclass(frozen=True)
class AnalysisOptions:
    field: str = "gfp"  # gfp | gfp:<prime> | rational
    seed: int = 0
    max_degree_cap: int = DEFAULT_MAX_DEGREE_CAP
    skip_oracle: bool = False
    exponents: tuple[int, ...] | None = None
    tau: int | None = None
    nodal: NodalData | None = None


# ---------------------------------------------------------------------------
# cross-check matrix
# ---------------------------------------------------------------------------


# A check: its name; None where it applies, else its n/a detail; and a
# call, made only where the check applies, giving whether it holds and
# its detail.
Check = tuple[str, str | None, Callable[[], tuple[bool, str]]]


def _verdict(check: Check) -> CheckResult:
    name, na, holds = check
    if na is not None:
        return CheckResult(name, NA, na)
    ok, detail = holds()
    return CheckResult(name, PASS if ok else FAIL, detail)


def _matches(n: Sequence[int], predicted: Iterable[tuple[int, int]]) -> tuple[bool, str]:
    """Whether n takes every predicted (degree, value), in order, and if
    not the first degree where it does not."""
    for k, v in predicted:
        if n[k] != v:
            return False, f"first mismatch at degree {k}: oracle {n[k]}, formula {v}"
    return True, ""


def _shared_checks(vec: ModuleVector, prof: ResolutionProfile) -> tuple[Check, Check, Check]:
    """Duality n_k = n_(T-k), unimodality up to T/2, and sigma read off
    the vector against sigma from the resolution: the checks of an
    oracle and a formula report alike."""
    n, T = vec.values, vec.top
    bad = next((k for k in range(T + 1) if n[k] != n[T - k]), None)
    mirror = "" if bad is None else f"n_{bad} != n_{T - bad}"
    rising = n[: T // 2 + 1]
    same = vec.sigma == prof.sigma
    moved = "" if same else f"vector says {vec.sigma}, resolution says {prof.sigma}"
    return (
        ("symmetry", None, lambda: (bad is None, mirror)),
        ("unimodality", None, lambda: (all(a <= b for a, b in zip(rising, rising[1:])), "")),
        ("sigma-resolution", None, lambda: (same, moved)),
    )


def cross_check(
    milnor: MilnorProfile,
    prof: ResolutionProfile,
    vec: ModuleVector,
    cls: CurveClass,
    nodal: NodalData | None,
) -> list[CheckResult]:
    """Every closed-form statement versus the oracle, in the report's
    order; each check, and so each predicted vector, is evaluated only
    where it applies."""
    d = prof.degree
    T = vec.top
    tau = milnor.tjurina
    r = prof.mdr
    n = vec.values
    s = vec.sigma
    free = cls.tag == "free"
    maximal = cls.maximal_tjurina and cls.stable
    bound = _hartshorne(prof, cls, tau)
    c2 = bundle_invariants(d, tau).c2
    ct = milnor.coincidence.value

    def support() -> tuple[bool, str]:
        """N(f) vanishes above T - sigma and not at sigma or T - sigma;
        below sigma it vanishes by the definition of sigma."""
        if s is None:
            return not any(n), "free curve must have N(f) = 0"
        return not any(n[T - s + 1 :]) and n[s] > 0 and n[T - s] > 0, ""

    def balanced() -> tuple[bool, str]:
        """The resolution's ranks and twists reproduce the Milnor series."""
        return all(
            basis_dimension(k)
            - 3 * basis_dimension(k - d + 1)
            + sum(basis_dimension(k - d + 1 - di) for di in prof.exponents)
            - sum(basis_dimension(k - ej) for ej in prof.second_degrees)
            == m
            for k, m in enumerate(milnor.values)
        ), ""

    def parabola() -> tuple[bool, str]:
        return _matches(n, central_values(d, r, tau).items())

    def plateau() -> tuple[bool, str]:
        """n is nu on the window and nu - 1 just outside it."""
        lo, hi = plateau_window(d, r)
        edges = [j for j in (lo - 1, hi + 1) if 0 <= j <= T]
        ok = all(n[j] == vec.nu for j in range(lo, hi + 1))
        return ok and all(n[j] == vec.nu - 1 for j in edges), ""

    def nodal_mdr() -> tuple[bool, str]:
        if nodal.nodes != tau:
            raise MetadataError(
                f"declared {nodal.nodes} nodes but the Tjurina number is {tau}; "
                "the curve cannot be nodal as described"
            )
        return r >= d - 2, f"mdr {r}, floor {d - 2}"

    def nodal_vector() -> tuple[bool, str]:
        counts = (nodal.nodes, nodal.components, nodal.all_rational)
        return _matches(n, sorted(nodal_values(d, smooth_reference(d), *counts).items()))

    symmetry, unimodality, sigma = _shared_checks(vec, prof)
    if free:
        central = [
            ("central-window", "free curve", parabola),
            ("central-plateau", "free curve", plateau),
        ]
    elif cls.stable:  # 2 mdr >= d
        central = [
            ("central-window", None, parabola),
            ("central-plateau", "2 mdr >= d", plateau),
        ]
    else:  # the plateau, which applies, comes first
        central = [
            ("central-plateau", None, plateau),
            ("central-window", "2 mdr < d", parabola),
        ]
    table: list[Check] = [
        symmetry,
        unimodality,
        ("support-window", None, support),
        sigma,
        ("resolution-balance", None, balanced),
        *central,
        (
            "smooth-vector",
            None if cls.tag == "smooth" else "",
            lambda: (smooth_reference(d)[: T + 1] == n and tau == 0, ""),
        ),
        (
            "free-relations",
            None if free else "",
            lambda: (
                sum(prof.exponents) == d - 1
                and tau == (d - 1) ** 2 - prof.exponents[0] * prof.exponents[1]
                and not any(n),
                "",
            ),
        ),
        (
            "plus-one-vector",
            None if cls.tag in ("nearly-free", "plus-one-generated") else "",
            lambda: _matches(n, enumerate(plus_one_vector(d, prof.exponents))),
        ),
        (
            "three-syzygy-vector",
            None if cls.tag == "three-syzygy" else "",
            lambda: _matches(n, enumerate(three_syzygy_vector(d, prof.exponents, tau))),
        ),
        (
            "maximal-tjurina-vector",
            None if maximal else "" if cls.maximal_tjurina else "not maximal",
            lambda: _matches(n, enumerate(maximal_tjurina_vector(d, r, tau))),
        ),
        # semistability-range lower bound for sigma, with equality at maximal tau
        (
            "hartshorne-bound",
            None if bound is not None else "free curve" if free else "2 mdr < d - 1",
            lambda: (
                s is not None and (s == bound if maximal else s >= bound),
                f"sigma {s} vs bound {bound}",
            ),
        ),
        (
            "second-chern-is-nu",
            None if cls.stable else "bundle not stable",
            lambda: (c2 == vec.nu, f"c2 {c2}, nu {vec.nu}"),
        ),
        # the coincidence threshold never ends before d - 2 + r
        (
            "coincidence-threshold",
            None,
            lambda: (ct >= d - 2 + r, f"ct {ct}, floor {d - 2 + r}"),
        ),
        # the saturation defect dim S_k - dim Sat_k = m_k - n_k is tau
        # from degree 2d-4-r on
        (
            "saturation-defect",
            None,
            lambda: (
                all(
                    milnor.values[k] - n[k] == tau
                    for k in range(max(defect_stable_degree(d, r), 0), T + 1)
                ),
                "",
            ),
        ),
        ("nodal-mdr", None if nodal else "", nodal_mdr),
        ("nodal-vector", None if nodal else "", nodal_vector),
    ]
    return [_verdict(check) for check in table]


def _hartshorne(prof: ResolutionProfile, cls: CurveClass, tau: int | None) -> int | None:
    """Hartshorne's lower bound for sigma where it applies: a non-free
    curve of known tau whose bundle is semistable (2 mdr >= d - 1)."""
    if cls.tag == "free" or not cls.semistable or tau is None:
        return None
    return hartshorne_bound(prof.degree, prof.mdr, tau)


def _report(
    text: str,
    prof: ResolutionProfile,
    vec: ModuleVector,
    tau: int | None,
    cls: CurveClass,
    source: str,
    checks: Sequence[CheckResult],
    timings: Sequence[tuple[str, float]],
    labels: tuple[str, ...] = (),
    milnor: MilnorProfile | None = None,
) -> CurveReport:
    """The report of a curve with a resolution and a vector, whether the
    oracle computed them or the formulas gave them."""
    return CurveReport(
        curve=text,
        degree=prof.degree,
        field_labels=labels,
        top=vec.top,
        tjurina=tau,
        milnor=None if milnor is None else milnor.values,
        mdr=prof.mdr,
        exponents=prof.exponents,
        second_degrees=prof.second_degrees,
        epsilons=prof.epsilons,
        sigma=vec.sigma,
        nu=vec.nu,
        vector=vec.values,
        vector_source=source,
        classification=cls,
        bundle=None if tau is None else bundle_invariants(prof.degree, tau),
        hartshorne=_hartshorne(prof, cls, tau),
        coincidence=None if milnor is None else milnor.coincidence,
        checks=tuple(checks),
        timings=tuple(timings),
    )


# ---------------------------------------------------------------------------
# oracle pipeline (one field)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleRun:
    """What the oracle computes for a curve over one field: a line has
    only its degree, a pencil of lines no resolution or vector.  The
    timings (each layer's seconds, then the total) are not compared."""

    degree: int
    milnor: MilnorProfile | None = None
    prof: ResolutionProfile | None = None
    vec: ModuleVector | None = None
    timings: tuple[tuple[str, float], ...] = field(default=(), compare=False)


def _analyze_over_field(f: TernaryForm) -> OracleRun:
    """The oracle's run on the curve f over its field."""
    t0 = time.perf_counter()
    jac = CurveJacobian(f)
    d = jac.degree
    if d == 1:
        return OracleRun(1, timings=(("total", time.perf_counter() - t0),))

    t = time.perf_counter()
    milnor = jac.milnor_hilbert()
    timings = [("milnor", time.perf_counter() - t)]

    t = time.perf_counter()
    try:
        prof = resolve(jac)
    except PencilOfLinesError:
        timings.append(("total", time.perf_counter() - t0))
        return OracleRun(d, milnor, timings=tuple(timings))
    timings.append(("resolution", time.perf_counter() - t))

    t = time.perf_counter()
    vec = jac.module_vector()
    timings.append(("saturation", time.perf_counter() - t))
    timings.append(("total", time.perf_counter() - t0))
    return OracleRun(d, milnor, prof, vec, tuple(timings))


def _oracle_report(
    text: str, run: OracleRun, nodal: NodalData | None, labels: tuple[str, ...]
) -> CurveReport:
    """The report of the oracle's run on the curve parsed from text,
    under the fields labels names: the curve classified and checked."""
    milnor, prof, vec = run.milnor, run.prof, run.vec
    if prof is None:  # a line, with no Milnor series either, or a pencil of lines
        return CurveReport(
            curve=text,
            degree=run.degree,
            field_labels=labels,
            top=None if milnor is None else milnor.top,
            tjurina=0 if milnor is None else milnor.tjurina,
            milnor=None if milnor is None else milnor.values,
            mdr=0,
            timings=run.timings,
        )
    t = time.perf_counter()
    cls = classify(run.degree, prof, milnor.tjurina)
    checks = cross_check(milnor, prof, vec, cls, nodal)
    seconds = time.perf_counter() - t
    *layers, (_, total) = run.timings
    timings = (*layers, ("cross-check", seconds), ("total", total + seconds))
    return _report(
        text, prof, vec, milnor.tjurina, cls, "oracle", checks, timings, labels, milnor
    )


# ---------------------------------------------------------------------------
# formula-only pipeline (no linear algebra; for very large degree)
# ---------------------------------------------------------------------------


def _formula_report(
    text: str, d: int, exponents: tuple[int, ...], tau: int | None
) -> CurveReport:
    t0 = time.perf_counter()
    try:
        prof, tau, vector = _formula_data(d, tuple(sorted(exponents)), tau)
        cls = classify(d, prof, tau)
    except InternalConsistencyError as exc:
        # here the inputs are user-declared, not computed
        raise MetadataError(f"tau and exponents are inconsistent: {exc}") from exc

    vec = ModuleVector(d, tuple(vector))
    checks = [_verdict(check) for check in _shared_checks(vec, prof)]
    timings = (("total", time.perf_counter() - t0),)
    return _report(text, prof, vec, tau, cls, "formula", checks, timings)


def _formula_data(
    d: int, exps: tuple[int, ...], tau: int | None
) -> tuple[ResolutionProfile, int | None, list[int]]:
    """The resolution profile, tau and vector the formulas give for the
    sorted exponents and tau a user declared; each refusal names the
    fault in those inputs."""
    if len(exps) < 2 or exps[0] < 1:
        raise AnalysisError("exponents must be at least two positive integers")
    m = len(exps)
    r = exps[0]
    tau_max = max_tjurina_tau(d, r)  # du Plessis-Wall bound
    if tau is not None and not 0 <= tau <= tau_max:
        raise MetadataError(
            f"tau = {tau} is outside [0, {tau_max}], the range of a "
            f"degree-{d} curve with mdr {r}"
        )

    if m == 2:
        d1, d2 = exps
        if d1 + d2 != d - 1:
            raise AnalysisError("a free curve needs d1 + d2 = d - 1")
        derived_tau = (d - 1) ** 2 - d1 * d2
        if tau is not None and tau != derived_tau:
            raise MetadataError(f"free exponents force tau = {derived_tau}, got {tau}")
        tau = derived_tau
        second: tuple[int, ...] = ()
        vector = [0] * (3 * (d - 2) + 1)
    elif m == 3:
        d1, d2, d3 = exps
        second = (d1 + d2 + d3,)
        if d1 + d2 < d:
            raise AnalysisError("exponents with d1 + d2 < d are not realizable")
        if second[0] > 3 * (d - 1):
            raise AnalysisError(
                f"exponents {','.join(map(str, exps))} give sigma = 3(d - 1) - "
                f"(d1 + d2 + d3) = {3 * (d - 1) - second[0]} < 0; no degree-{d} curve has them"
            )
        if d1 + d2 == d:
            vector = plus_one_vector(d, exps)
        else:
            if 2 * d1 >= d and tau is None:
                raise AnalysisError(
                    "this exponent pattern needs the Tjurina number (pass --tau)"
                )
            vector = three_syzygy_vector(d, exps, tau)
    elif tau is not None and all(di == r for di in exps) and m == 2 * r - d + 3:
        if tau != tau_max:
            raise AnalysisError(
                "many-syzygy formula evaluation is only available at maximal tau"
            )
        # d + r <= 3(d - 1), so sigma >= 0: for r >= 2d - 2, tau_max < 0
        # and no tau is in range
        second = (d + r,) * (m - 2)
        vector = maximal_tjurina_vector(d, r, tau)
    else:
        raise AnalysisError(
            "formula-only mode handles 2 or 3 exponents, or the maximal "
            "Tjurina pattern; run the oracle for this curve"
        )

    prof = ResolutionProfile(d, exps, second)
    if any(eps < 1 for eps in prof.epsilons):
        raise AnalysisError("second-level degrees violate the minimality offsets")
    return prof, tau, vector


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def analyze_text(text: str, options: AnalysisOptions = AnalysisOptions()) -> CurveReport:
    """Full analysis honoring the field/seed/oracle options.

    Over `gfp` (no explicit prime) the oracle runs twice, at the same
    time, under independently chosen primes and its integers must
    agree; the report is made once, from the first prime's run.
    Disagreeing integers, an error only a prime can cause, or an error
    under one prime only trigger a deterministic re-draw, so a
    structurally unlucky prime cannot silently corrupt a report.  When
    both runs raise the same error class, the first prime's error is
    raised.  The text is parsed once, over Q (exact, and independent of
    any prime choice); each prime's run reduces that form mod p.
    The parse refuses a product or power past the largest degree the
    run could take, the oracle's cap or, with the oracle skipped or
    exponents given, FORMULA_MAX_DEGREE, before expanding it.
    """
    formula = options.skip_oracle or options.exponents is not None
    limit = FORMULA_MAX_DEGREE if formula else options.max_degree_cap
    try:
        form = parse_form(text, rational_field(), max_degree=limit)
    except DegreeLimitError as exc:
        if formula:
            raise AnalysisError(
                f"degree {exc.degree} is above {limit}, the largest degree "
                "formula-only mode evaluates"
            ) from None
        raise AnalysisError(
            f"{exc} (the oracle's degree cap); formula-only mode needs --exponents"
        ) from None
    d = form.degree

    oracle = not options.skip_oracle and d <= options.max_degree_cap
    if not oracle:
        if d == 1:
            raise AnalysisError("degree-1 input is a single line; nothing to skip")
        if options.exponents is None:
            raise AnalysisError(
                f"oracle disabled (degree {d}, cap {options.max_degree_cap}, "
                f"skip={options.skip_oracle}); formula-only mode needs --exponents"
            )
        if options.nodal is not None:
            raise AnalysisError("nodal cross-checks need the oracle vector")
        return _formula_report(text, d, options.exponents, options.tau)

    if options.exponents is not None or options.tau is not None:
        raise AnalysisError(
            "--exponents/--tau only apply when the oracle is skipped; "
            "the oracle computes them"
        )

    if options.field == "gfp":
        for attempt in range(3):
            p1, p2 = prime_pair(options.seed + attempt * 7919, max_degree=d)
            first, second = _run_pair(form, p1, p2)
            if type(first) is not type(second) or isinstance(first, _PRIME_ERRORS):
                # the form is fine over the rationals, so this pair is unlucky
                # (only one prime saw a failure, a divisor vanished or an
                # identity broke): draw again
                continue
            if isinstance(first, Exception):
                raise first  # both primes agree that the input is at fault
            if first == second:
                return _oracle_report(text, first, options.nodal, (f"gfp:{p1}", f"gfp:{p2}"))
        raise AnalysisError(
            f"no agreeing runs under 3 prime pairs (last {(p1, p2)}); "
            "the input may be numerically degenerate"
        )
    if options.field.startswith("gfp:"):
        try:
            p = int(options.field.split(":", 1)[1])
        except ValueError:
            raise AnalysisError(f"{options.field!r}: the prime must be an integer") from None
        validate_prime_for_degree(p, d)
        form = reduce_form(form, prime_field(p))
    elif options.field != "rational":
        raise AnalysisError(f"unknown field {options.field!r}")
    return _oracle_report(text, _analyze_over_field(form), options.nodal, (form.field.label,))


# errors that only an unlucky prime can cause once the text parses over Q
_PRIME_ERRORS = (PolynomialError, InternalConsistencyError, IncompleteResolutionError)


def _outcome(form: TernaryForm, p: int) -> OracleRun | Exception:
    """The oracle's run on the form over Q reduced mod p, or its error."""
    try:
        return _analyze_over_field(reduce_form(form, prime_field(p)))
    except Exception as exc:
        # the caller keeps exc; without their locals, the frames it
        # references do not keep this run's matrices alive
        traceback.clear_frames(exc.__traceback__)
        return exc


def _run_pair(
    form: TernaryForm, p1: int, p2: int
) -> tuple[OracleRun | Exception, OracleRun | Exception]:
    """The oracle's runs under p1 (here) and p2 (in this process's
    helper, sent the form over Q and p2) at the same time.  The first
    pair forks the helper; later pairs reuse it.
    A pipe or a fork that fails (say EMFILE or EAGAIN) closes whatever
    it opened and raises AnalysisError.  Any exception here, or a helper
    that ends without sending a result, kills and reaps the helper, so
    the next pair forks a fresh one.  Threads take turns: a reply is
    read by the thread that sent its request."""
    global _helper
    request = pickle.dumps((form, p2))
    with _lock:
        if _helper is None:
            try:
                _helper = _Helper.fork()
            except OSError as exc:
                raise AnalysisError(f"cannot start the gfp:{p2} run: {exc}") from exc
        try:
            try:
                _send(_helper.requests, request)
            except BrokenPipeError:  # the helper has died since the last pair
                reply = None
            else:
                first = _outcome(form, p1)
                reply = _receive(_helper.replies)
        except BaseException:
            _retire_helper()
            raise
        if reply is None:
            raise InternalConsistencyError(
                f"the gfp:{p2} run ended without sending a result "
                f"(exit status {_retire_helper()})"
            )
    second = pickle.loads(reply)
    if isinstance(second, str):
        raise InternalConsistencyError(second)
    return first, second


# ---------------------------------------------------------------------------
# the second prime's helper process
# ---------------------------------------------------------------------------

# messages on the helper's pipes: a little-endian length, then a pickle
_LENGTH = struct.Struct("<Q")


def _send(fd: int, data: bytes) -> None:
    view = memoryview(_LENGTH.pack(len(data)) + data)
    while view:
        view = view[os.write(fd, view) :]


def _read(fd: int, size: int) -> bytes | None:
    """size bytes from fd, or None at EOF."""
    data = bytearray()
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            return None
        data += chunk
    return bytes(data)


def _receive(fd: int) -> bytes | None:
    """The next message on fd, or None once its writer has gone."""
    header = _read(fd, _LENGTH.size)
    return None if header is None else _read(fd, _LENGTH.unpack(header)[0])


def _serve(requests: int, replies: int) -> None:
    """The helper's loop: one oracle run per (form over Q, prime)
    request, each answered with the pickled run or exception, until
    EOF."""
    while (request := _receive(requests)) is not None:
        form, p = pickle.loads(request)
        outcome = _outcome(form, p)
        try:
            data = pickle.dumps(outcome)
            pickle.loads(data)
        except Exception as exc:
            data = pickle.dumps(
                f"the gfp:{p} run ended in {outcome!r}, which cannot be sent back: {exc}"
            )
        _send(replies, data)


@dataclass(frozen=True)
class _Helper:
    """A forked child that makes second-prime oracle runs for its parent:
    the parent writes requests and reads replies."""

    pid: int
    requests: int
    replies: int

    @classmethod
    def fork(cls) -> _Helper:
        """The child leaves by os._exit, so it never flushes the stdio
        buffers it inherits.  It exits at EOF of its requests, which
        also covers a parent that was killed."""
        fds: list[int] = []
        try:
            fds.extend(os.pipe())
            fds.extend(os.pipe())
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        requests_in, requests_out, replies_in, replies_out = fds
        if pid == 0:
            try:
                os.close(requests_out)
                os.close(replies_in)
                # Ctrl-C reaches the whole process group; the parent
                # decides whether the helper goes
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                _serve(requests_in, replies_out)
            finally:
                os._exit(0)
        os.close(requests_in)
        os.close(replies_out)
        return cls(pid, requests_out, replies_in)

    def close_pipes(self) -> None:
        os.close(self.requests)
        os.close(self.replies)

    def kill(self) -> int:
        """Kill and reap the helper; its exit status."""
        os.kill(self.pid, signal.SIGKILL)  # a no-op once the helper has exited
        _, status = os.waitpid(self.pid, 0)
        self.close_pipes()
        return os.waitstatus_to_exitcode(status)


_helper: _Helper | None = None
_lock = threading.Lock()  # one pair at a time per helper


def _retire_helper() -> int | None:
    """Kill and reap this process's helper, if it has one; its exit
    status.  Runs at interpreter exit."""
    global _helper
    helper, _helper = _helper, None
    return None if helper is None else helper.kill()


def _drop_inherited_helper() -> None:
    """In a forked child: the parent's helper is not this process's
    child.  Closing its pipes keeps this process from writing into it
    or holding off its EOF; the child forks a helper of its own.  The
    lock is new, since one held by another thread at the fork would
    stay held here."""
    global _helper, _lock
    _lock = threading.Lock()
    helper, _helper = _helper, None
    if helper is not None:
        helper.close_pipes()


atexit.register(_retire_helper)
os.register_at_fork(after_in_child=_drop_inherited_helper)
