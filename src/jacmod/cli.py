"""Command line front end.

Two subcommands:

    jacmod analyze "x^3 + y^3 + z^3"           human-readable report
    jacmod analyze --json CURVE                machine-readable report
    jacmod plot-data CURVE                     CSV (k, n, source) for plotting

Exit codes: 0 all checks pass, 1 at least one formula check failed,
2 invalid input (parse error, bad flags, inconsistent metadata,
non-reduced curve), an internal consistency failure, a run that
cannot allocate its matrices, or output that cannot be written (a
closed pipe, a full disk).  Data goes to
stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence

from .analysis import (
    DEFAULT_MAX_DEGREE_CAP,
    FAIL,
    AnalysisError,
    AnalysisOptions,
    CurveReport,
    NodalData,
    analyze_text,
)
from .curves import MetadataError
from .fields import FieldError
from .jacobian import InternalConsistencyError
from .poly import PolynomialError
from .resolution import IncompleteResolutionError


def _exponent_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected comma-separated integers, e.g. 9,56,62"
        ) from None
    return values


class UsageError(ValueError):
    """A command line argparse refuses: an unknown flag or subcommand,
    or a value of the wrong form."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises UsageError where argparse would
    print the usage and exit, so that main reports it on one line."""

    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "curve",
        help="homogeneous polynomial in x, y, z (e.g. \"x^3 + y^3 + z^3\")",
    )
    common.add_argument(
        "--field",
        default="gfp",
        help="gfp (two random primes, default) | gfp:<prime> | rational",
    )
    common.add_argument(
        "--seed", type=int, default=0, help="seed for the prime draw (default 0)"
    )
    common.add_argument(
        "--max-degree-cap",
        type=int,
        default=DEFAULT_MAX_DEGREE_CAP,
        metavar="D",
        help="largest degree the linear-algebra oracle runs at "
        f"(default {DEFAULT_MAX_DEGREE_CAP}); above it the formula evaluators take over",
    )
    common.add_argument(
        "--skip-oracle",
        action="store_true",
        help="skip the linear-algebra oracle; requires --exponents, taken on trust: "
        "nothing checks that the curve is reduced or that they are its own",
    )
    common.add_argument(
        "--exponents",
        type=_exponent_list,
        default=None,
        metavar="D1,D2,...",
        help="syzygy exponents for formula-only mode",
    )
    common.add_argument(
        "--tau",
        type=int,
        default=None,
        help="Tjurina number for formula-only mode (needed by some patterns)",
    )

    parser = _Parser(
        prog="jacmod",
        description="Hilbert vector of the Jacobian module of a reduced "
        "plane curve: exact computation, classification, and closed-form "
        "cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", parents=[common], help="full report with formula checks"
    )
    analyze.add_argument(
        "--nodal",
        action="store_true",
        help="declare every singularity an ordinary node (enables the nodal "
        "formula check; needs --nodes and --components)",
    )
    analyze.add_argument("--nodes", type=int, default=None, help="number of nodes")
    analyze.add_argument(
        "--components", type=int, default=None, help="number of irreducible components"
    )
    analyze.add_argument(
        "--rational",
        action="store_true",
        help="every irreducible component is rational",
    )
    fmt = analyze.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit the JSON report")
    fmt.add_argument("--csv", action="store_true", help="emit plot CSV instead")

    sub.add_parser(
        "plot-data",
        parents=[common],
        help="CSV rows k,n,source for the Hilbert vector",
    )
    return parser


def _nodal_from_args(args: argparse.Namespace) -> NodalData | None:
    if not getattr(args, "nodal", False):
        for flag in ("nodes", "components"):
            if getattr(args, flag, None) is not None:
                raise AnalysisError(f"--{flag} needs --nodal")
        if getattr(args, "rational", False):
            raise AnalysisError("--rational needs --nodal")
        return None
    if args.nodes is None or args.components is None:
        raise AnalysisError("--nodal needs both --nodes and --components")
    return NodalData(args.nodes, args.components, args.rational)


def _format_int_row(label: str, value: object) -> str:
    return f"{label:<18} {value}"


def _sequence(values) -> str:
    return ", ".join(str(v) for v in values) if values else "-"


def format_report(report: CurveReport) -> str:
    lines = [
        _format_int_row("curve", report.curve),
        _format_int_row("fields", _sequence(report.field_labels)),
        _format_int_row("degree", report.degree),
    ]
    cls = report.classification
    tag = cls.tag if cls.m is None else f"{cls.tag} (m = {cls.m})"
    flags = [
        name
        for name, on in (
            ("maximal-tjurina", cls.maximal_tjurina),
            ("stable", cls.stable),
            ("semistable", cls.semistable and not cls.stable),
        )
        if on
    ]
    if flags:
        tag += "  [" + ", ".join(flags) + "]"
    lines.append(_format_int_row("classification", tag))
    if cls.level is not None:
        lines.append(_format_int_row("level", cls.level))

    if report.tjurina is not None:
        lines.append(_format_int_row("tjurina", report.tjurina))
    if report.mdr is not None:
        lines.append(_format_int_row("mdr", report.mdr))
    if report.exponents:
        lines.append(_format_int_row("exponents", _sequence(report.exponents)))
        lines.append(_format_int_row("second degrees", _sequence(report.second_degrees)))
        lines.append(_format_int_row("epsilons", _sequence(report.epsilons)))
    lines.append(_format_int_row("sigma", report.sigma if report.sigma is not None else "-"))
    if report.nu is not None:
        lines.append(_format_int_row("nu", report.nu))
    if report.bundle is not None:
        lines.append(
            _format_int_row("bundle", f"c1 = {report.bundle.c1}, c2 = {report.bundle.c2}")
        )
    if report.hartshorne is not None:
        lines.append(_format_int_row("sigma bound", report.hartshorne))
    if report.coincidence is not None:
        ct = report.coincidence
        lines.append(
            _format_int_row("coincidence", f">= {ct.value}" if ct.censored else ct.value)
        )
    if report.vector is not None:
        lines.append(
            _format_int_row(
                "vector",
                " ".join(str(v) for v in report.vector)
                + f"   (degrees 0..{report.top}, source {report.vector_source})",
            )
        )
    if report.milnor is not None:
        lines.append(
            _format_int_row("milnor", " ".join(str(v) for v in report.milnor))
        )

    if report.checks:
        lines.append("")
        lines.append("checks")
        width = max(len(c.name) for c in report.checks)
        for c in report.checks:
            row = f"  {c.name:<{width}}  {c.status}"
            if c.detail and c.status == FAIL:
                row += f"  ({c.detail})"
            lines.append(row)

    lines.append("")
    total = dict(report.timings).get("total", 0.0)
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}  ({total:.3f}s)")
    return "\n".join(lines)


def format_csv(report: CurveReport) -> str:
    rows = ["k,n,source"]
    rows.extend(f"{k},{n},{source}" for k, n, source in report.plot_rows())
    return "\n".join(rows)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        options = AnalysisOptions(
            field=args.field,
            seed=args.seed,
            max_degree_cap=args.max_degree_cap,
            skip_oracle=args.skip_oracle,
            exponents=args.exponents,
            tau=args.tau,
            nodal=_nodal_from_args(args),
        )
        report = analyze_text(args.curve, options)
        if args.command == "plot-data" or getattr(args, "csv", False):
            output = format_csv(report)
        elif getattr(args, "json", False):
            output = json.dumps(report.to_json_dict(), indent=2)
        else:
            output = format_report(report)
    except (
        UsageError,
        PolynomialError,
        FieldError,
        IncompleteResolutionError,
        InternalConsistencyError,
        AnalysisError,
        MetadataError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a degree the cap admits that this host cannot hold
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    try:
        print(output)
        sys.stdout.flush()
    except OSError as exc:  # a closed pipe, a full disk
        # what is left in the buffer goes to devnull, so the
        # interpreter's final flush stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
