#!/usr/bin/env python3
"""Check that a change leaves every `jacmod analyze --json` output as it was.

For a fixed list of inputs, runs `python -m jacmod analyze ... --json`
in a fresh process and records the report without its `timings`, the
exit code and stderr.  `--write` stores that record; `--check` runs the
list again, names each input whose output differs (its full argument
list and the first top-level key that differs) and exits 1 on any
difference.  The package that runs is
whatever `python -m jacmod` imports, so point PYTHONPATH at the
checkout to record (it defaults to this checkout's `src`):

    PYTHONPATH=/path/to/parent/src python3 scripts/compare_reports.py --write ref.json
    python3 scripts/compare_reports.py --check ref.json

The list: the acceptance inputs under the default two-prime `gfp`, the
`rational` benchmark workload's curves under `--field rational`, the
first 60 curves of the benchmark's survey pool (read from
perfbench/reference.json) and the pool's three curves with seven
syzygy generators (all beyond the first 60), the degree-24 and
degree-28 ladder curves under `--max-degree-cap` 24 and 28 (degree 28
is ROADMAP aim 1's target curve), the arrangement of the 20 lines
x + i*y + i^2*z, i = 1..20 (dense, nodal, rational components) with its
nodal data, three small curves under the small
primes 13 and 17, and five formula-only (`--skip-oracle`) runs: two
free curves, the plus-one quintic, a three-syzygy septic and a maximal
Tjurina quintic, each with the exponents (and tau) the oracle finds,
and two formula-only refusals: plus-one exponents whose second degree
passes 3(d - 1), so that sigma < 0, one of them far enough to index the
vector below degree 0.
On two of the small-prime curves the line x passes through a singular
point, so the sweep runs in other coordinates while the field has few
values to draw them from.  The six lines x*y*z*(2x+y)*(2x+z)*(4x+2y+z),
under the default `gfp` and under `--field rational`, are the lines of
the first six coordinate changes jacobian.py tries, so each of those
meets a singular point and the search goes on after a first sweep.
Under `--seed 0`, x^3/1277389331 + y^3 + z^3 draws the pair
(1277389331, 2024418569) first, whose first prime divides a
denominator, so the pair is discarded and the report names the second
pair (1363160893, 1379963327): the re-draw and the comparison of two
primes' runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import fixed_curves, ladder_curve, load_reference  # noqa: E402

SURVEY_CURVES = 60
SEVEN_GENERATORS = (230, 293, 316)  # positions in the survey pool

CONIC_PAIR = "(x*z - y^2) * (y*z - x^2)"
UNINODAL_QUARTIC = (
    "3*x^3*y + x^3*z + 3*x^2*y^2 + 3*x^2*y*z + x*y^2*z + 3*x*y*z^2 "
    "+ y^4 - 2*y^3*z - 2*y^2*z^2"
)
UNINODAL_QUINTIC = (
    "-x^5 - x^4*y + 2*x^4*z + 2*x^3*y^2 + 3*x^3*y*z + 3*x^3*z^2 "
    "- 2*x^2*y^3 + 2*x^2*y^2*z - 2*x^2*y*z^2 + 2*x^2*z^3 - 2*x*y^4 "
    "+ 3*x*y^3*z - 2*x*y^2*z^2 + 2*x*y*z^3 + 2*y^5 - 2*y^4*z "
    "- 2*y^3*z^2 - 3*y^2*z^3"
)

def lines_curve(d: int) -> str:
    """The d lines x + i*y + i^2*z, i = 1..d: no three meet, so the curve
    is nodal with C(d, 2) nodes, and every monomial of degree d occurs."""
    return "*".join(f"(x+{i}*y+{i * i}*z)" for i in range(1, d + 1))


LINES = [lines_curve(20), "--nodal", "--nodes", "190", "--components", "20", "--rational"]

# the inputs of acceptance criteria 1-6 and one curve of criterion 7's
# structured set; the default gfp run also covers criterion 8's second prime
ACCEPTANCE = (
    [ladder_curve(20)],
    ["(x^9+y^4*z^5)^7+x*z^62", "--skip-oracle", "--exponents", "9,56,62"],
    ["x^5 + y^5 + z^5"],
    ["x*y*z"],
    [CONIC_PAIR, "--nodal", "--nodes", "4", "--components", "2", "--rational"],
    [UNINODAL_QUARTIC],
    [UNINODAL_QUINTIC],
    ["y^4 + x*z^3"],
)

SMALL_PRIME_CURVES = (CONIC_PAIR, "x*y*z*(x+y+z)", "y^4 + x*z^3")
SMALL_PRIMES = (13, 17)

# its components are the lines x of the first six candidate coordinates
SIX_CANDIDATE_LINES = "x*y*z*(2*x+y)*(2*x+z)*(4*x+2*y+z)"

# the first prime of seed 0's first pair divides the denominator
REDRAW = ["x^3/1277389331 + y^3 + z^3", "--seed", "0"]

FORMULA = (
    ["x*y*z", "--exponents", "1,1"],
    ["(x^3-y^3)*(y^3-z^3)*(x^3-z^3)", "--exponents", "4,4"],
    ["3*x^2*y^3 + 4*y^5 + 5*y^3*z^2 + 4*y*z^4", "--exponents", "2,3,4"],
    ["x^4*y^2*z - 5*x*y^5*z + x*y*z^5 + 3*y^6*z", "--exponents", "5,5,5", "--tau", "15"],
    [
        "-2*x*y^3*z - 3*x*y^2*z^2 - 6*x*y*z^3 - 3*x*z^4 + 2*y^2*z^3 + 4*y*z^4",
        "--exponents",
        "3,3,3,3",
        "--tau",
        "10",
    ],
)

# exponents no quartic has: sigma = 3(d - 1) - (d1 + d2 + d3) < 0
REFUSED = (
    ["x^4+y^4+z^4", "--exponents", "2,2,100"],
    ["x^4+y^4+z^4", "--exponents", "2,2,6"],
)


def inputs() -> list[list[str]]:
    """The argument lists after `analyze`, in a fixed order."""
    out = [list(args) for args in ACCEPTANCE]
    out += [[curve, "--field", "rational"] for curve in fixed_curves("rational", smoke=False)]
    pool = load_reference()["survey_pool"]
    out += [[curve] for _, curve, _ in pool[:SURVEY_CURVES]]
    out += [[pool[i][1]] for i in SEVEN_GENERATORS]
    out += [[ladder_curve(d), "--max-degree-cap", str(d)] for d in (24, 28)]
    out.append(LINES)
    out += [[curve, "--field", f"gfp:{p}"] for curve in SMALL_PRIME_CURVES for p in SMALL_PRIMES]
    out += [[SIX_CANDIDATE_LINES], [SIX_CANDIDATE_LINES, "--field", "rational"]]
    out.append(REDRAW)
    out += [[args[0], "--skip-oracle", *args[1:]] for args in FORMULA + REFUSED]
    return out


def run(args: list[str], env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "jacmod", "analyze", *args, "--json"],
        capture_output=True,
        text=True,
        env=env,
    )
    try:
        report = json.loads(proc.stdout)
        report.pop("timings", None)
    except json.JSONDecodeError:
        report = proc.stdout
    return {"args": args, "exit": proc.returncode, "stderr": proc.stderr, "report": report}


def record() -> list[dict]:
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", str(ROOT / "src"))
    return [run(args, env) for args in inputs()]


def first_difference(expected: dict, result: dict) -> str:
    """The first top-level key of two differing records, or of their
    reports when both are JSON objects, whose values differ."""
    for key in ("exit", "stderr"):
        if expected[key] != result[key]:
            return key
    old, new = expected["report"], result["report"]
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return "report"
    return "report." + next(k for k in [*old, *new] if old.get(k) != new.get(k))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE", help="record the outputs into FILE")
    mode.add_argument("--check", metavar="FILE", help="compare the outputs with FILE")
    args = parser.parse_args(argv)

    results = record()
    if args.write:
        Path(args.write).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(results)} outputs to {args.write}")
        return 0
    expected = json.loads(Path(args.check).read_text())
    if [e["args"] for e in expected] != [r["args"] for r in results]:
        print("the input list differs from the recorded one", file=sys.stderr)
        return 1
    differ = [(e, r) for e, r in zip(expected, results) if e != r]
    for e, r in differ:
        print(f"differs: {shlex.join(r['args'])}: {first_difference(e, r)}", file=sys.stderr)
    print(f"{len(results) - len(differ)} of {len(results)} outputs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
