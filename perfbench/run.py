#!/usr/bin/env python3
"""The jacmod benchmark: the main process.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 10 --trace 0

Run it from the root of a jacmod checkout; it analyses curves with the
package in src/.  This one process is a closed loop with one client:
it starts one child process at a time (worker.py, or `python -m jacmod`
on the cli workload) and the next analysis only after the previous one
finished.  Every analysis is checked against reference.json.

--trace 0 measures the end-to-end metrics of BENCHMARK.json; --trace 1
runs one untraced round and two traced rounds, requires the traced
work counters to be identical, and reports the per-layer metrics.
The last line of output is one JSON object (correct, attempted, failed,
metrics); the line before it records the seed, versions and raw figures.
A wrong output makes the run exit 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads as wl

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORKER = str(BENCH / "worker.py")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
STAGES = ("milnor", "resolution", "saturation")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


@dataclass
class Child:
    lines: list[str]
    code: int
    seconds: float  # from start to exit
    ready_s: float | None  # from start to the "ready" line
    maxrss_mb: float


def _environment() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], deadline: float, check: bool = True) -> Child:
    """Run `python argv` to completion and measure it; killed at deadline.
    With check, a nonzero exit raises BenchError."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=_environment(), stdout=subprocess.PIPE, text=True
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    lines: list[str] = []
    ready_s = None
    try:
        for line in proc.stdout:
            if ready_s is None and line == "ready\n":
                ready_s = time.perf_counter() - start
            lines.append(line.rstrip("\n"))
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    seconds = time.perf_counter() - start
    if check and proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited with {proc.returncode}")
    return Child(lines, proc.returncode, seconds, ready_s, usage.ru_maxrss / 1024)


@dataclass
class Rounds:
    """Figures of one or more rounds of a workload."""

    samples: list = field(default_factory=list)  # [case index, seconds]
    rounds: list = field(default_factory=list)  # wall seconds per round
    failures: list = field(default_factory=list)
    maxrss_mb: float = 0.0
    trace: dict | None = None
    import_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.samples)


class Bench:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.cases = wl.cases(args.workload, args.seed, args.smoke)

    def _worker(self, mode: str, *extra: str) -> list[str]:
        a = self.args
        argv = [WORKER, mode, "--workload", a.workload, "--seed", str(a.seed)]
        return argv + (["--smoke"] if a.smoke else []) + list(extra)

    def setup_seconds(self, count: int) -> list[float]:
        return [spawn(self._worker("setup"), self.deadline).ready_s for _ in range(count)]

    def run(self, seconds: float, traced: bool) -> Rounds:
        """Rounds of the workload for `seconds` (one round at 0)."""
        if self.args.workload == "cli":
            return self._cli(seconds, traced)
        mode = ("trace",) if traced else ("run", "--seconds", str(seconds))
        child = spawn(self._worker(*mode), self.deadline)
        data = json.loads(child.lines[-1])
        result = Rounds(data["samples"], data["rounds"], data["failures"], child.maxrss_mb)
        result.trace, result.import_s = data.get("trace"), data.get("import_s", 0.0)
        return result

    def _cli(self, seconds: float, traced: bool) -> Rounds:
        """Sequential cold `jacmod analyze --json` invocations, timed
        from process start to exit."""
        seed = str(self.args.seed)
        result = Rounds()
        end = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            for index, case in enumerate(self.cases):
                if traced:
                    child = spawn([WORKER, "cli-trace", "--seed", seed, "--curve", case.curve], self.deadline)
                    data = json.loads(child.lines[-1])
                    code, stdout = data["exit"], data["stdout"]
                    result.trace = _merge(result.trace, data["trace"])
                    result.import_s += data["import_s"]
                else:
                    argv = ["-m", "jacmod", "analyze", case.curve, "--json", "--seed", seed]
                    child = spawn(argv, self.deadline, check=False)
                    code, stdout = child.code, "\n".join(child.lines)
                result.samples.append([index, child.seconds])
                result.maxrss_mb = max(result.maxrss_mb, child.maxrss_mb)
                got = f"exit {code}" if code else wl.digest(wl.outputs(json.loads(stdout)))
                if got != case.expected:
                    result.failures.append(f"{case.curve}: expected {case.expected}, got {got}")
            result.rounds.append(time.perf_counter() - start)
            if time.perf_counter() + result.rounds[-1] > end:
                return result


def _merge(total: dict | None, part: dict) -> dict:
    """Sum two tracer exports."""
    if total is None:
        return part
    for name, values in part["spans"].items():
        row = total["spans"].setdefault(name, [0, 0.0, 0.0])
        total["spans"][name] = [a + b for a, b in zip(row, values)]
    for stage, values in part["linalg"].items():
        total["linalg"][stage] = [a + b for a, b in zip(total["linalg"][stage], values)]
    total["redraws"] += part["redraws"]
    return total


def _counters(trace: dict) -> dict:
    """Every work count of a traced round; these must repeat exactly."""
    return {
        "linalg": {stage: [row[0], *row[2:]] for stage, row in trace["linalg"].items()},
        "span_calls": {name: row[0] for name, row in sorted(trace["spans"].items())},
        "redraws": trace["redraws"],
    }


def end_to_end(bench: Bench, run: Rounds, setup: list[float]) -> tuple[dict, dict]:
    times = [seconds for _, seconds in run.samples]
    top = max(case.degree for case in bench.cases)
    top_times = [s for i, s in run.samples if bench.cases[i].degree == top]
    metrics = {
        "wall_s": statistics.median(run.rounds),
        "top_degree_s": statistics.median(top_times),
        "peak_rss_mb": run.maxrss_mb,
        "setup_s": statistics.median(setup),
    }
    by_degree = {}
    for i, s in run.samples:
        by_degree.setdefault(bench.cases[i].degree, []).append(s)
    detail = {
        "rounds": len(run.rounds),
        "round_s": run.rounds,
        "samples": len(times),
        "latency_p50_s": statistics.median(times),
        "top_degree": top,
        "top_degree_samples": len(top_times),
        "median_s_by_degree": {d: statistics.median(v) for d, v in sorted(by_degree.items())},
        "setup_samples_s": setup,
    }
    # the highest percentile with at least ten samples beyond it
    if len(times) >= 100:
        detail["latency_p90_s"] = statistics.quantiles(times, n=10)[-1]
    return metrics, detail


def per_layer(untraced: Rounds, passes: list[Rounds]) -> tuple[dict, dict]:
    def figures(p: Rounds) -> dict:
        spans, linalg = p.trace["spans"], p.trace["linalg"]

        def span(name: str, column: int):
            return spans.get(name, [0, 0.0, 0.0])[column]

        wall = p.rounds[0]
        m = {}
        for stage in STAGES:
            calls, seconds, rows, nnz, rank = linalg[stage]
            m[f"linalg.calls.{stage}"] = calls
            m[f"linalg.s.{stage}"] = seconds
            m[f"linalg.rows_in.{stage}"] = rows
            m[f"linalg.nnz_in.{stage}"] = nnz
            m[f"linalg.rank_out.{stage}"] = rank
            m[f"linalg.useful_ratio.{stage}"] = rank / rows if rows else 0.0
        m["jacobian.milnor_s"] = span("jacobian.milnor", 1)
        m["jacobian.saturation_s"] = span("jacobian.saturation", 1)
        m["jacobian.self_s"] = span("jacobian.milnor", 2) + span("jacobian.saturation", 2)
        m["resolution.resolve_s"] = span("resolution.resolve", 1)
        m["resolution.self_s"] = span("resolution.resolve", 2)
        m["poly.parse_s"] = span("poly.parse", 1)
        m["curves.classify_s"] = span("curves.classify", 1)
        m["analysis.cross_check_s"] = span("analysis.cross_check", 1)
        m["analysis.self_s"] = span("analysis.analyze", 2) + span("analysis.prime_run", 2)
        m["analysis.prime_runs"] = span("analysis.prime_run", 0) / max(span("analysis.analyze", 0), 1)
        m["analysis.redraws"] = p.trace["redraws"]
        m["fields.prime_draw_s"] = span("fields.prime_draw", 1)
        m["cli.import_s"] = p.import_s
        # the spans inside analyses partition them into layer self times
        m["trace.coverage"] = span("analysis.analyze", 1) / wall
        m["trace.overhead_s"] = wall - untraced.rounds[0]
        return m

    first, second = (figures(p) for p in passes)
    metrics = {name: (first[name] + second[name]) / 2 for name in first}
    detail = {
        "untraced_round_s": untraced.rounds[0],
        "traced_round_s": [p.rounds[0] for p in passes],
        "counters": _counters(passes[0].trace),
        "spans": passes[0].trace["spans"],
    }
    return metrics, detail


def _provenance(args) -> dict:
    def version(package: str) -> str | None:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = git.stdout.strip() or None
        except OSError:
            pass
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "jacmod").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "field": wl.FIELD[args.workload],
        "git_commit": commit,
        "src_sha256": sources.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "jacmod" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a jacmod checkout (src/jacmod, BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    try:
        bench = Bench(args)
        if args.trace:
            untraced = bench.run(0.0, traced=False)
            passes = [bench.run(0.0, traced=True) for _ in range(2)]
            metrics, detail = per_layer(untraced, passes)
            rounds = [untraced, *passes]
            listed = spec["per_layer"]
        else:
            start = time.perf_counter()
            setup = bench.setup_seconds(1 if args.smoke else SETUP_SAMPLES)
            # set-up samples, and the run's own set-up, use up measuring time
            left = args.seconds - (time.perf_counter() - start) - statistics.median(setup)
            run = bench.run(max(left, 0.0), traced=False)
            metrics, detail = end_to_end(bench, run, setup)
            rounds = [run]
            listed = spec["end_to_end"]
    except (BenchError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    if set(metrics) != {m["name"] for m in listed}:
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    rejected = sum(1 for r in rounds for i, _ in r.samples if bench.cases[i].expected == wl.NOT_REDUCED)
    correct = not failures
    if args.trace and any(_counters(p.trace) != _counters(passes[0].trace) for p in passes):
        print("error: traced work counters differ between the two traced rounds", file=sys.stderr)
        correct = False
    for failure in failures[:20]:
        print(f"wrong output: {failure}", file=sys.stderr)

    detail.update(
        _provenance(args),
        attempted=attempted,
        failed=len(failures),
        failed_ratio=len(failures) / max(attempted, 1),
        expected_rejections=rejected,
    )
    units = {m["name"]: m["unit"] for m in listed}
    for m in listed:
        print(f"{m['name']:<28} {metrics[m['name']]:>14.6f} {m['unit']}")
    print(json.dumps({"perfbench": detail}))
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
