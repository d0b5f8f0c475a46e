#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the benchmark's correctness reference.

    PYTHONPATH=src python3 perfbench/make_reference.py

It analyses every fixed curve of the workloads and a pool of random
survey curves with the program in src/, and stores their integer
outputs.  Before writing it checks the degree-20 ladder curve against
the hand-derived values of acceptance criterion 1 and requires every
reference report to pass all of its checks.  Run it only to extend the
reference; a benchmark run compares the program against this file.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import workloads as wl
from jacmod.analysis import AnalysisOptions, analyze_text
from jacmod.fields import rational_field
from jacmod.jacobian import NotReducedError
from jacmod.poly import TernaryForm, format_form, monomial_basis

POOL_SEED = 2024
POOL_PER_DEGREE = 60  # reduced curves per degree; a run samples 20 of them

# Acceptance criterion 1, derived by hand from the three-syzygy formulas.
D20_EXPECTED = {"exponents": [9, 19, 19], "tjurina": 190, "nu": 81, "sigma": 10}


def draw_curves(seed: int):
    """The generator of scripts/random_survey.py (degrees 4-8, 4-8 terms,
    coefficients in [-9, 9]), frozen here so the pool never drifts."""
    rng = random.Random(seed)
    rationals = rational_field()
    while True:
        d = rng.randint(4, 8)
        basis = monomial_basis(d)
        size = rng.randint(4, min(8, len(basis)))
        monos = rng.sample(basis, size)
        terms = {m: c for m in monos if (c := rng.randint(-9, 9))}
        if terms:
            form = TernaryForm(rationals, d, {m: Fraction(c) for m, c in terms.items()})
            yield d, format_form(form)


def report_outputs(curve: str, field: str) -> dict:
    out = wl.outputs(analyze_text(curve, AnalysisOptions(field=field, seed=POOL_SEED)).to_json_dict())
    if not out["passed"]:
        raise SystemExit(f"reference curve {curve!r} fails a check under {field}")
    return out


def main() -> int:
    reports: dict[str, dict] = {}
    for workload in ("ladder", "rational", "cli"):
        for smoke in (False, True):
            for curve in wl.fixed_curves(workload, smoke):
                out = report_outputs(curve, wl.FIELD[workload])
                if reports.setdefault(curve, out) != out:
                    raise SystemExit(f"{curve!r}: outputs differ between fields")
                print(f"{workload:8} d={out['degree']:2} {out['classification']['tag']}", file=sys.stderr)

    d20 = reports[wl.ladder_curve(20)]
    for key, value in D20_EXPECTED.items():
        if d20[key] != value:
            raise SystemExit(f"degree-20 curve: {key} = {d20[key]}, criterion 1 says {value}")

    pool: list[list] = []
    reduced = {d: 0 for d in wl.SURVEY_DEGREES}
    seen = set()
    for d, curve in draw_curves(POOL_SEED):
        if min(reduced.values()) == POOL_PER_DEGREE:
            break
        if reduced[d] == POOL_PER_DEGREE or curve in seen:
            continue
        seen.add(curve)
        try:
            expected = wl.digest(report_outputs(curve, "gfp"))
            reduced[d] += 1
        except NotReducedError:
            expected = wl.NOT_REDUCED
        pool.append([d, curve, expected])
    rejected = sum(entry[2] == wl.NOT_REDUCED for entry in pool)
    print(f"survey pool: {len(pool)} curves, {rejected} not reduced", file=sys.stderr)

    reference = {
        "about": "integer outputs of the jacmod benchmark inputs; regenerate "
        "with perfbench/make_reference.py",
        "reports": reports,
        "survey_pool": pool,
    }
    with open(wl.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
