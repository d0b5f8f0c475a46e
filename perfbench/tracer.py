"""Layer spans for the traced benchmark pass, recorded from outside jacmod.

install() replaces public functions of the jacmod modules with timing
wrappers, in every jacmod module that holds a reference to them, so a
call is caught wherever another module imported the function.  Each
span's self time is its duration minus the spans it encloses.
Eliminations (row_rank, rref, kernel_basis) also count the rows,
nonzeros and rank of their input and are charged to the innermost
enclosing pipeline stage: milnor, resolution or saturation.
"""

from __future__ import annotations

import sys
import time
from functools import wraps

import numpy as np

STAGES = {
    "jacobian.milnor": "milnor",
    "resolution.resolve": "resolution",
    "jacobian.saturation": "saturation",
}
ELIMINATIONS = ("row_rank", "rref", "kernel_basis")


class _Frame:
    __slots__ = ("name", "child_s", "draws")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0
        self.draws = 0


class Tracer:
    def __init__(self):
        self.stack: list[_Frame] = []
        # span name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}
        # stage -> [calls, seconds, rows in, nonzeros in, rank out]
        self.linalg = {stage: [0, 0.0, 0, 0, 0] for stage in (*STAGES.values(), "other")}
        self.redraws = 0

    def _close(self, frame: _Frame, seconds: float) -> None:
        span = self.spans.setdefault(frame.name, [0, 0.0, 0.0])
        span[0] += 1
        span[1] += seconds
        span[2] += seconds - frame.child_s
        if self.stack:
            self.stack[-1].child_s += seconds

    def span(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame(name)
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                self.stack.pop()
                self._close(frame, seconds)

        return traced

    def prime_draw(self, fn):
        """A span that also counts prime pairs drawn beyond the first
        within one analysis."""
        traced = self.span("fields.prime_draw", fn)

        @wraps(fn)
        def counted(*args, **kwargs):
            analysis = next((f for f in reversed(self.stack) if f.name == "analysis.analyze"), None)
            if analysis is not None:
                analysis.draws += 1
                self.redraws += analysis.draws > 1
            return traced(*args, **kwargs)

        return counted

    def elimination(self, fn):
        name = "linalg." + fn.__name__

        @wraps(fn)
        def traced(matrix, *args, **kwargs):
            if self.stack and self.stack[-1].name.startswith("linalg."):
                return fn(matrix, *args, **kwargs)  # called by another elimination
            frame = _Frame(name)
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(matrix, *args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                self.stack.pop()
                self._close(frame, seconds)
            # counting is bookkeeping: charge it to a span of its own
            bookkeeping = _Frame("tracer")
            start = time.perf_counter()
            stage = next((STAGES[f.name] for f in reversed(self.stack) if f.name in STAGES), "other")
            row = self.linalg[stage]
            row[0] += 1
            row[1] += seconds
            row[2] += matrix.shape[0]
            row[3] += int(np.count_nonzero(matrix))
            row[4] += _rank(result, matrix)
            self._close(bookkeeping, time.perf_counter() - start)
            return result

        return traced

    def export(self) -> dict:
        return {"spans": self.spans, "linalg": self.linalg, "redraws": self.redraws}


def _rank(result, matrix) -> int:
    if isinstance(result, (int, np.integer)):
        return int(result)  # row_rank
    if hasattr(result, "rank"):
        return int(result.rank)  # rref
    return matrix.shape[1] - result.shape[0]  # kernel_basis: columns minus nullity


def _replace(fn, wrapper) -> None:
    """Point every reference to fn in the loaded jacmod modules at wrapper."""
    for name, module in list(sys.modules.items()):
        if name == "jacmod" or name.startswith("jacmod."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each jacmod layer.  Call after
    importing jacmod.cli, which loads every module."""
    from jacmod import analysis, cli, curves, fields, jacobian, linalg, poly, resolution

    for name in ELIMINATIONS:
        fn = getattr(linalg, name)
        _replace(fn, tracer.elimination(fn))
    _replace(poly.parse_form, tracer.span("poly.parse", poly.parse_form))
    _replace(fields.prime_pair, tracer.prime_draw(fields.prime_pair))
    _replace(curves.classify, tracer.span("curves.classify", curves.classify))
    _replace(resolution.resolve, tracer.span("resolution.resolve", resolution.resolve))
    _replace(analysis.cross_check, tracer.span("analysis.cross_check", analysis.cross_check))
    _replace(analysis._analyze_over_field, tracer.span("analysis.prime_run", analysis._analyze_over_field))
    _replace(analysis.analyze_text, tracer.span("analysis.analyze", analysis.analyze_text))
    _replace(cli.main, tracer.span("cli.main", cli.main))
    jac = jacobian.CurveJacobian
    jac.milnor_hilbert = tracer.span("jacobian.milnor", jac.milnor_hilbert)
    jac.module_vector = tracer.span("jacobian.saturation", jac.module_vector)
