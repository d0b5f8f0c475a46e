"""One process of the jacmod benchmark; run.py starts it, one at a time.

    worker.py setup     --workload W --seed N [--smoke]
    worker.py run       --workload W --seed N [--smoke] --seconds S
    worker.py trace     --workload W --seed N [--smoke]
    worker.py cli-trace --seed N --curve TEXT

setup imports the package, draws the first prime pair (which pays the
sympy import) and builds the inputs, then prints "ready".  run does the
same, then analyses and verifies whole rounds of inputs until starting
another round would overrun S seconds (at least one round).  trace runs
one round under the layer tracer.  cli-trace runs one traced
`jacmod analyze --json` in this process.  Each prints one JSON line last.

jacmod is imported from the PYTHONPATH run.py sets (the checkout's src/).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time

import workloads as wl


def _ready(args) -> list[wl.Case]:
    import jacmod.fields

    jacmod.fields.prime_pair(args.seed)
    cases = wl.cases(args.workload, args.seed, args.smoke)
    print("ready", flush=True)
    return cases


def _analyze(case: wl.Case, field: str, seed: int) -> tuple[float, str]:
    """Seconds spent in analyze_text, and the digest of the outputs
    (NOT_REDUCED for a non-reduced rejection, or an error text)."""
    import jacmod.analysis
    from jacmod.jacobian import NotReducedError

    start = time.perf_counter()
    try:
        report = jacmod.analysis.analyze_text(
            case.curve, jacmod.analysis.AnalysisOptions(field=field, seed=seed)
        )
    except NotReducedError:
        return time.perf_counter() - start, wl.NOT_REDUCED
    except Exception as exc:  # every failure is recorded against the case
        return time.perf_counter() - start, f"error {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return seconds, wl.digest(wl.outputs(report.to_json_dict()))


def _rounds(cases: list[wl.Case], args, seconds: float) -> dict:
    field = wl.FIELD[args.workload]
    samples, rounds, failures = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        for index, case in enumerate(cases):
            elapsed, got = _analyze(case, field, args.seed)
            samples.append([index, elapsed])
            if got != case.expected:
                failures.append(f"{case.curve}: expected {case.expected}, got {got}")
        rounds.append(time.perf_counter() - start)
        if time.perf_counter() + rounds[-1] > deadline:
            return {"samples": samples, "rounds": rounds, "failures": failures}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace", "cli-trace"))
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--curve")
    args = parser.parse_args()

    if args.mode in ("setup", "run"):
        import jacmod.cli  # noqa: F401  (the whole package, as the CLI loads it)

        cases = _ready(args)
        if args.mode == "run":
            print(json.dumps(_rounds(cases, args, args.seconds)))
        return 0

    start = time.perf_counter()
    import jacmod.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    if args.mode == "trace":
        result = _rounds(_ready(args), args, 0.0)
    else:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = jacmod.cli.main(["analyze", args.curve, "--json", "--seed", str(args.seed)])
        result = {"exit": code, "stdout": stdout.getvalue()}
    result.update(trace=tracer.export(), import_s=import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
