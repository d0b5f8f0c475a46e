"""End-to-end curve analysis: oracle runs, formula cross-checks, and
the report structure consumed by the command line front end.

An analysis runs the linear-algebra oracle (Milnor series, syzygy
resolution, Hilbert vector of N(f)), classifies the curve, evaluates
every closed-form prediction that applies, and records each comparison
as pass / fail / n-a.  Over a random prime field the whole pipeline is
executed under two independent primes and the integer outputs must
agree, which makes an unlucky prime detectable.  The two runs go at
the same time: the second prime's in a helper process (POSIX), forked
at the first two-prime analysis of a process and reused by every later
one, since a fork per analysis costs more than a small analysis.
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
from collections.abc import Sequence
from dataclasses import dataclass, replace

from .curves import (
    BundleInvariants,
    CurveClass,
    MetadataError,
    PENCIL,
    bundle_invariants,
    central_value,
    central_window,
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
from .fields import Field, prime_field, prime_pair, rational_field, validate_prime_for_degree
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
    max_degree_cap: int = 20
    skip_oracle: bool = False
    exponents: tuple[int, ...] | None = None
    tau: int | None = None
    nodal: NodalData | None = None


# ---------------------------------------------------------------------------
# cross-check matrix
# ---------------------------------------------------------------------------


def _vector_mismatch(oracle: tuple[int, ...], predicted: list[int]) -> str:
    bad = [k for k in range(len(oracle)) if oracle[k] != predicted[k]]
    k = bad[0]
    return f"first mismatch at degree {k}: oracle {oracle[k]}, formula {predicted[k]}"


def _identity_checks(n: Sequence[int]) -> list[CheckResult]:
    """Duality n_k = n_(T-k) and unimodality up to T/2, for an oracle
    or a formula vector alike."""
    T = len(n) - 1
    bad = [k for k in range(T + 1) if n[k] != n[T - k]]
    rising = n[: T // 2 + 1]
    unimodal = all(a <= b for a, b in zip(rising, rising[1:]))
    return [
        CheckResult(
            "symmetry",
            PASS if not bad else FAIL,
            "" if not bad else f"n_{bad[0]} != n_{T - bad[0]}",
        ),
        CheckResult("unimodality", PASS if unimodal else FAIL),
    ]


def _sigma_check(vec: ModuleVector, prof: ResolutionProfile) -> CheckResult:
    """sigma read off the vector equals sigma from the resolution."""
    if vec.sigma == prof.sigma:
        return CheckResult("sigma-resolution", PASS)
    return CheckResult(
        "sigma-resolution", FAIL, f"vector says {vec.sigma}, resolution says {prof.sigma}"
    )


def cross_check(
    milnor: MilnorProfile,
    prof: ResolutionProfile,
    vec: ModuleVector,
    cls: CurveClass,
    nodal: NodalData | None,
) -> list[CheckResult]:
    """Every applicable closed-form statement versus the oracle."""
    d = prof.degree
    T = vec.top
    tau = milnor.tjurina
    r = prof.mdr
    n = vec.values
    checks = _identity_checks(n)

    def add(name: str, status: str, detail: str = "") -> None:
        checks.append(CheckResult(name, status, detail))

    # support is exactly [sigma, T - sigma]
    if vec.sigma is None:
        ok = all(v == 0 for v in n)
        add("support-window", PASS if ok else FAIL, "free curve must have N(f) = 0")
    else:
        s = vec.sigma
        ok = (
            all(n[k] == 0 for k in range(s))
            and all(n[k] == 0 for k in range(T - s + 1, T + 1))
            and n[s] > 0
            and n[T - s] > 0
        )
        add("support-window", PASS if ok else FAIL)

    checks.append(_sigma_check(vec, prof))

    # resolution balance: ranks and twists reproduce the Milnor series
    balanced = True
    for k in range(len(milnor.values)):
        total = basis_dimension(k) - 3 * basis_dimension(k - d + 1)
        total += sum(basis_dimension(k - d + 1 - di) for di in prof.exponents)
        total -= sum(basis_dimension(k - ej) for ej in prof.second_degrees)
        if total != milnor.values[k]:
            balanced = False
            break
    add("resolution-balance", PASS if balanced else FAIL)

    free = cls.tag == "free"

    # central parabola (2r >= d) or central plateau (2r < d)
    if free:
        add("central-window", NA, "free curve")
        add("central-plateau", NA, "free curve")
    elif cls.stable:
        lo, hi = central_window(d, r)
        bad = [
            j
            for j in range(max(lo, 0), min(hi, T) + 1)
            if n[j] != central_value(d, tau, j)
        ]
        add(
            "central-window",
            PASS if not bad else FAIL,
            "" if not bad else f"first mismatch at degree {bad[0]}",
        )
        add("central-plateau", NA, "2 mdr >= d")
    else:
        lo, hi = plateau_window(d, r)
        ok = all(n[j] == vec.nu for j in range(lo, hi + 1))
        for edge in (lo - 1, hi + 1):
            if 0 <= edge <= T:
                ok = ok and n[edge] == vec.nu - 1
        add("central-plateau", PASS if ok else FAIL)
        add("central-window", NA, "2 mdr < d")

    # class-specific full vectors
    if cls.tag == "smooth":
        ref = smooth_reference(d)[: T + 1]
        ok = tuple(ref) == n and tau == 0
        add("smooth-vector", PASS if ok else FAIL)
    else:
        add("smooth-vector", NA)

    if free:
        d1, d2 = prof.exponents
        ok = d1 + d2 == d - 1 and tau == (d - 1) ** 2 - d1 * d2 and all(v == 0 for v in n)
        add("free-relations", PASS if ok else FAIL)
    else:
        add("free-relations", NA)

    if cls.tag in ("nearly-free", "plus-one-generated"):
        predicted = plus_one_vector(d, prof.exponents)  # type: ignore[arg-type]
        ok = tuple(predicted) == n
        add("plus-one-vector", PASS if ok else FAIL, "" if ok else _vector_mismatch(n, predicted))
    else:
        add("plus-one-vector", NA)

    if cls.tag == "three-syzygy":
        predicted = three_syzygy_vector(d, prof.exponents, tau)  # type: ignore[arg-type]
        ok = tuple(predicted) == n
        add(
            "three-syzygy-vector",
            PASS if ok else FAIL,
            "" if ok else _vector_mismatch(n, predicted),
        )
    else:
        add("three-syzygy-vector", NA)

    if cls.maximal_tjurina and cls.stable:
        predicted = maximal_tjurina_vector(d, r, tau)
        ok = tuple(predicted) == n
        add(
            "maximal-tjurina-vector",
            PASS if ok else FAIL,
            "" if ok else _vector_mismatch(n, predicted),
        )
    else:
        add("maximal-tjurina-vector", NA, "" if cls.maximal_tjurina else "not maximal")

    # semistability-range lower bound for sigma, with equality at maximal tau
    bound = _hartshorne(prof, cls, tau)
    if bound is None:
        add("hartshorne-bound", NA, "free curve" if free else "2 mdr < d - 1")
    else:
        ok = vec.sigma is not None and vec.sigma >= bound
        if ok and cls.maximal_tjurina and cls.stable:
            ok = vec.sigma == bound
        add(
            "hartshorne-bound",
            PASS if ok else FAIL,
            f"sigma {vec.sigma} vs bound {bound}",
        )

    if cls.stable:
        b = bundle_invariants(d, tau)
        ok = b.c2 == vec.nu
        add("second-chern-is-nu", PASS if ok else FAIL, f"c2 {b.c2}, nu {vec.nu}")
    else:
        add("second-chern-is-nu", NA, "bundle not stable")

    # coincidence threshold never ends before d - 2 + r
    ct = milnor.coincidence
    ok = ct.value >= d - 2 + r
    add("coincidence-threshold", PASS if ok else FAIL, f"ct {ct.value}, floor {d - 2 + r}")

    # saturation defect dim S_k - dim Sat_k = m_k - n_k stabilizes to
    # tau from degree 2d-4-r on
    start = max(defect_stable_degree(d, r), 0)
    ok = all(milnor.values[k] - n[k] == tau for k in range(start, T + 1))
    add("saturation-defect", PASS if ok else FAIL)

    if nodal is None:
        add("nodal-mdr", NA)
        add("nodal-vector", NA)
    else:
        if nodal.nodes != tau:
            raise MetadataError(
                f"declared {nodal.nodes} nodes but the Tjurina number is {tau}; "
                "the curve cannot be nodal as described"
            )
        add("nodal-mdr", PASS if r >= d - 2 else FAIL, f"mdr {r}, floor {d - 2}")
        vals = nodal_values(
            d, smooth_reference(d), nodal.nodes, nodal.components, nodal.all_rational
        )
        bad = [k for k, v in sorted(vals.items()) if n[k] != v]
        add(
            "nodal-vector",
            PASS if not bad else FAIL,
            ""
            if not bad
            else f"first mismatch at degree {bad[0]}: oracle {n[bad[0]]}, formula {vals[bad[0]]}",
        )

    return checks


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


def _field_label(field: Field) -> str:
    if field.config.kind == "gfp":
        return f"gfp:{field.config.modulus}"
    return "rational"


def _analyze_over_field(
    text: str, f: TernaryForm, nodal: NodalData | None
) -> CurveReport:
    """The oracle's report of the curve f, parsed from text, over its
    field."""
    timings: list[tuple[str, float]] = []
    t0 = time.perf_counter()
    jac = CurveJacobian(f)
    d = jac.degree
    labels = (_field_label(f.field),)

    if d == 1:
        return CurveReport(
            curve=text,
            degree=1,
            field_labels=labels,
            tjurina=0,
            mdr=0,
            timings=(("total", time.perf_counter() - t0),),
        )

    t = time.perf_counter()
    milnor = jac.milnor_hilbert()
    timings.append(("milnor", time.perf_counter() - t))

    t = time.perf_counter()
    try:
        prof = resolve(jac)
    except PencilOfLinesError:
        timings.append(("total", time.perf_counter() - t0))
        return CurveReport(
            curve=text,
            degree=d,
            field_labels=labels,
            top=milnor.top,
            tjurina=milnor.tjurina,
            milnor=milnor.values,
            mdr=0,
            timings=tuple(timings),
        )
    timings.append(("resolution", time.perf_counter() - t))

    t = time.perf_counter()
    vec = jac.module_vector()
    timings.append(("saturation", time.perf_counter() - t))

    cls = classify(d, prof, milnor.tjurina)

    t = time.perf_counter()
    checks = cross_check(milnor, prof, vec, cls, nodal)
    timings.append(("cross-check", time.perf_counter() - t))
    timings.append(("total", time.perf_counter() - t0))
    return _report(
        text, prof, vec, milnor.tjurina, cls, "oracle", checks, timings, labels, milnor
    )


def _comparable(report: CurveReport) -> CurveReport:
    """The report without what legitimately differs between primes."""
    return replace(report, field_labels=(), timings=())


# ---------------------------------------------------------------------------
# formula-only pipeline (no linear algebra; for very large degree)
# ---------------------------------------------------------------------------


def _formula_report(
    text: str, d: int, exponents: tuple[int, ...], tau: int | None
) -> CurveReport:
    t0 = time.perf_counter()
    exps = tuple(sorted(exponents))
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
        if d1 + d2 == d and d3 >= d2:
            vector = plus_one_vector(d, exps)
        elif d1 + d2 > d:
            if 2 * d1 >= d and tau is None:
                raise AnalysisError(
                    "this exponent pattern needs the Tjurina number (pass --tau)"
                )
            vector = three_syzygy_vector(d, exps, tau)
        else:
            raise AnalysisError("exponents with d1 + d2 < d are not realizable")
    elif tau is not None and all(di == r for di in exps) and m == 2 * r - d + 3:
        if tau != tau_max:
            raise AnalysisError(
                "many-syzygy formula evaluation is only available at maximal tau"
            )
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
    try:
        cls = classify(d, prof, tau)
    except InternalConsistencyError as exc:
        # here the inputs are user-declared, not computed
        raise MetadataError(f"tau and exponents are inconsistent: {exc}") from exc

    vec = ModuleVector(d, tuple(vector))
    checks = [*_identity_checks(vec.values), _sigma_check(vec, prof)]
    timings = (("total", time.perf_counter() - t0),)
    return _report(text, prof, vec, tau, cls, "formula", checks, timings)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def analyze_text(text: str, options: AnalysisOptions = AnalysisOptions()) -> CurveReport:
    """Full analysis honoring the field/seed/oracle options.

    Over `gfp` (no explicit prime) the run happens twice, at the same
    time, under independently chosen primes and all integer outputs
    must agree.  Disagreeing outputs, an error only a prime can cause,
    or an error under one prime only trigger a deterministic re-draw,
    so a structurally unlucky prime cannot silently corrupt a report.
    When both runs raise the same error class, the first prime's error
    is raised.  The text is parsed once, over Q (exact, and independent
    of any prime choice); each prime's run reduces that form mod p.
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

    if options.field == "rational":
        return _analyze_over_field(text, form, options.nodal)
    if options.field.startswith("gfp:"):
        try:
            p = int(options.field.split(":", 1)[1])
        except ValueError:
            raise AnalysisError(f"{options.field!r}: the prime must be an integer") from None
        validate_prime_for_degree(p, d)
        return _analyze_over_field(text, reduce_form(form, prime_field(p)), options.nodal)
    if options.field != "gfp":
        raise AnalysisError(f"unknown field {options.field!r}")

    last_pair = None
    for attempt in range(3):
        p1, p2 = prime_pair(options.seed + attempt * 7919, max_degree=d)
        last_pair = (p1, p2)
        first, second = _run_pair(text, form, p1, p2, options.nodal)
        if (
            isinstance(first, _PRIME_ERRORS)
            or isinstance(second, _PRIME_ERRORS)
            or type(first) is not type(second)
        ):
            # the form is fine over the rationals, so this pair is unlucky
            # (a divisor vanished, an identity broke, or only one prime
            # saw the failure): draw again
            continue
        if isinstance(first, Exception):
            raise first  # both primes agree that the input is at fault
        if _comparable(first) == _comparable(second):
            return replace(
                first, field_labels=(f"gfp:{p1}", f"gfp:{p2}")
            )
    raise AnalysisError(
        f"no agreeing runs under 3 prime pairs (last {last_pair}); "
        "the input may be numerically degenerate"
    )


# errors that only an unlucky prime can cause once the text parses over Q
_PRIME_ERRORS = (PolynomialError, InternalConsistencyError, IncompleteResolutionError)


def _outcome(
    text: str, form: TernaryForm, p: int, nodal: NodalData | None
) -> CurveReport | Exception:
    """The run of the form over Q reduced mod p, or its error."""
    try:
        return _analyze_over_field(text, reduce_form(form, prime_field(p)), nodal)
    except Exception as exc:
        # the caller keeps exc; without their locals, the frames it
        # references do not keep this run's matrices alive
        traceback.clear_frames(exc.__traceback__)
        return exc


def _run_pair(
    text: str, form: TernaryForm, p1: int, p2: int, nodal: NodalData | None
) -> tuple[CurveReport | Exception, CurveReport | Exception]:
    """The runs under p1 (here) and p2 (in this process's helper) at the
    same time.  The first pair forks the helper; later pairs reuse it.
    A pipe or a fork that fails (say EMFILE or EAGAIN) closes whatever
    it opened and raises AnalysisError.  Any exception here, or a helper
    that ends without sending a result, kills and reaps the helper, so
    the next pair forks a fresh one.  Threads take turns: a reply is
    read by the thread that sent its request."""
    global _helper
    request = pickle.dumps((text, form, p2, nodal))
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
                first = _outcome(text, form, p1, nodal)
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
    """The helper's loop: one run per (text, form over Q, prime, nodal)
    request, each answered with the pickled report or exception, until
    EOF."""
    while (request := _receive(requests)) is not None:
        text, form, p, nodal = pickle.loads(request)
        outcome = _outcome(text, form, p, nodal)
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
    """A forked child that runs second-prime analyses for its parent:
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
