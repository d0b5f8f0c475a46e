#!/usr/bin/env python3
"""Survey random sparse curves and tally classifications and checks.

Draws reduced ternary forms with small signed integer coefficients,
runs the full analysis on each, and reports how often every curve
class and every check status occurred.  Any failing check aborts with
a nonzero exit code and the offending curve printed.

Usage:
    python3 scripts/random_survey.py --count 100 --min-degree 4 --max-degree 8
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from jacmod.analysis import AnalysisOptions, analyze_text
from jacmod.fields import rational_field
from jacmod.jacobian import NotReducedError
from jacmod.poly import TernaryForm, format_form, monomial_basis


# number of monomials drawn for each curve
MIN_TERMS = 4
MAX_TERMS = 8


def draw_curves(seed: int, min_degree: int, max_degree: int):
    rng = random.Random(seed)
    rationals = rational_field()
    while True:
        d = rng.randint(min_degree, max_degree)
        basis = monomial_basis(d)
        size = rng.randint(MIN_TERMS, min(MAX_TERMS, len(basis)))
        monos = rng.sample(basis, size)
        terms = {m: c for m in monos if (c := rng.randint(-9, 9))}
        if not terms:
            continue
        form = TernaryForm(rationals, d, {m: Fraction(c) for m, c in terms.items()})
        yield format_form(form)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--min-degree", type=int, default=4)
    parser.add_argument("--max-degree", type=int, default=8)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--field", default="gfp")
    args = parser.parse_args()
    options = AnalysisOptions(field=args.field, seed=args.seed)

    classes: Counter[str] = Counter()
    statuses: Counter[tuple[str, str]] = Counter()
    rejected = 0
    analyzed = 0
    t0 = time.perf_counter()
    for text in draw_curves(args.seed, args.min_degree, args.max_degree):
        if analyzed >= args.count:
            break
        try:
            report = analyze_text(text, options)
        except NotReducedError:
            rejected += 1
            continue
        analyzed += 1
        classes[report.classification.tag] += 1
        for check in report.checks:
            statuses[(check.name, check.status)] += 1
            if check.status == "fail":
                print(f"FAIL {check.name} on {text}: {check.detail}", file=sys.stderr)
                return 1
    elapsed = time.perf_counter() - t0

    print(f"analyzed {analyzed} curves in {elapsed:.1f}s ({rejected} non-reduced rejected)")
    print("\nclassification tally:")
    for tag, count in classes.most_common():
        print(f"  {tag:>22}  {count}")
    print("\ncheck matrix (name, status, count):")
    for (name, status), count in sorted(statuses.items()):
        print(f"  {name:>24}  {status:>4}  {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
