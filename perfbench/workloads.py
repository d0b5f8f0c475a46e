"""Inputs and correctness reference of the jacmod benchmark.

Plain Python with no jacmod import, so the main process (run.py) and the
workload processes (worker.py) build the same case list from a seed.

A case is one analysis: a curve text and the digest of the integer
outputs the committed reference (reference.json) holds for it, or
NOT_REDUCED where the program must reject the curve as non-reduced.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("ladder", "survey", "rational", "cli")

# --field value each workload passes to the program
FIELD = {"ladder": "gfp", "survey": "gfp", "rational": "rational", "cli": "gfp"}

REFERENCE = Path(__file__).resolve().with_name("reference.json")
NOT_REDUCED = "not-reduced"

LADDER_DEGREES = (12, 16, 20)
SMOKE_LADDER_DEGREES = (6,)
CONIC_PAIR = "(x*z - y^2) * (y*z - x^2)"
NEARLY_FREE_QUARTIC = "y^4 + x*z^3"
FERMAT_QUINTIC = "x^5 + y^5 + z^5"
CLI_CURVES = ("x*y*z", "x^3 + y^3 + z^3", NEARLY_FREE_QUARTIC)
SMOKE_CLI_CURVES = ("x*y*z", NEARLY_FREE_QUARTIC)
SURVEY_DEGREES = range(4, 9)
SURVEY_PER_DEGREE = 20
SMOKE_SURVEY_PER_DEGREE = 1

# The integer outputs of a report (its JSON without timings, field
# labels and free-text check details).  Keys are listed rather than
# dropped, so that a report gaining a field keeps matching.
OUTPUT_KEYS = (
    "degree",
    "top",
    "tjurina",
    "milnor",
    "mdr",
    "exponents",
    "second_degrees",
    "epsilons",
    "sigma",
    "nu",
    "vector",
    "vector_source",
    "bundle",
    "hartshorne_bound",
    "coincidence_threshold",
    "passed",
)
CLASS_KEYS = ("tag", "m", "level", "maximal_tjurina", "stable", "semistable")


@dataclass(frozen=True)
class Case:
    curve: str
    degree: int
    expected: str  # digest of the reference outputs, or NOT_REDUCED


def ladder_curve(d: int) -> str:
    """d/2 doubled lines x+y, x-y, x+2y, x-2y, ... plus z^d (d even)."""
    lines = [f"(x{sign}{i}*y)^2" for i in range(1, d // 4 + 2) for sign in "+-"]
    return "*".join(lines[: d // 2]) + f" + z^{d}"


def outputs(report: dict) -> dict:
    """The integer outputs of one `analyze --json` report."""
    out = {key: report[key] for key in OUTPUT_KEYS}
    out["classification"] = {key: report["classification"][key] for key in CLASS_KEYS}
    out["checks"] = [[c["name"], c["status"]] for c in report["checks"]]
    return out


def digest(outputs_: dict) -> str:
    text = json.dumps(outputs_, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def fixed_curves(workload: str, smoke: bool) -> list[str]:
    if workload == "ladder":
        return [ladder_curve(d) for d in (SMOKE_LADDER_DEGREES if smoke else LADDER_DEGREES)]
    if workload == "rational":
        if smoke:
            return [ladder_curve(6), CONIC_PAIR]
        return [ladder_curve(8), CONIC_PAIR, NEARLY_FREE_QUARTIC, FERMAT_QUINTIC]
    if workload == "cli":
        return list(SMOKE_CLI_CURVES if smoke else CLI_CURVES)
    raise ValueError(f"{workload} has no fixed curve list")


def survey_cases(pool: list, seed: int, per_degree: int) -> list[Case]:
    """per_degree reduced curves of each degree from the committed pool,
    with every non-reduced curve met on the way, in a seeded order.

    Equal counts per degree keep the amount of work nearly the same
    from seed to seed, while the curves themselves change."""
    rng = random.Random(seed)
    chosen: list[Case] = []
    for d in SURVEY_DEGREES:
        entries = [entry for entry in pool if entry[0] == d]
        reduced = 0
        for degree, curve, expected in rng.sample(entries, len(entries)):
            if reduced == per_degree:
                break
            chosen.append(Case(curve, degree, expected))
            reduced += expected != NOT_REDUCED
        if reduced < per_degree:
            raise ValueError(f"survey pool has fewer than {per_degree} degree-{d} curves")
    rng.shuffle(chosen)
    return chosen


def cases(workload: str, seed: int, smoke: bool) -> list[Case]:
    """The analyses of one round of a workload, the same for the same seed.

    The seed draws the survey sample and, through the program's own
    --seed, the primes of every gfp workload."""
    reference = load_reference()
    if workload == "survey":
        per_degree = SMOKE_SURVEY_PER_DEGREE if smoke else SURVEY_PER_DEGREE
        return survey_cases(reference["survey_pool"], seed, per_degree)
    reports = reference["reports"]
    return [
        Case(curve, reports[curve]["degree"], digest(reports[curve]))
        for curve in fixed_curves(workload, smoke)
    ]
