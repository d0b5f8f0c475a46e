"""The oracle's runs, and the rule that trusts their integers over the
default prime field: two independent primes must agree, which makes an
unlucky prime detectable.  The two runs go at the same time, the second
prime's in a helper process (POSIX) forked at the first pair of a
process and reused by every later one, since a fork per analysis costs
more than a small analysis.
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
from dataclasses import dataclass, field

from .fields import prime_field, prime_pair
from .jacobian import (
    AnalysisError,
    CurveJacobian,
    InternalConsistencyError,
    MilnorProfile,
    ModuleVector,
)
from .poly import PolynomialError, TernaryForm, reduce_form
from .resolution import IncompleteResolutionError, PencilOfLinesError, ResolutionProfile, resolve


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


# prime pairs drawn at most, and the step between the seeds they are drawn from
PAIRS = 3
SEED_STEP = 7919

# errors that only an unlucky prime can cause once the form parses over Q
_PRIME_ERRORS = (PolynomialError, InternalConsistencyError, IncompleteResolutionError)


def agreeing_run(form: TernaryForm, seed: int) -> tuple[OracleRun, tuple[int, int]]:
    """The run mod p1 of the form over Q, once the run mod p2 agrees
    with it, and (p1, p2).  Disagreeing integers, an error only a prime
    can cause, or an error under one prime only re-draw the pair, so an
    unlucky prime cannot silently corrupt a report; when both runs raise
    the same error class, the first prime's error is raised."""
    for attempt in range(PAIRS):
        pair = prime_pair(seed + attempt * SEED_STEP, max_degree=form.degree)
        first, second = _run_pair(form, *pair)
        if type(first) is not type(second) or isinstance(first, _PRIME_ERRORS):
            # the form is fine over the rationals, so this pair is unlucky
            # (only one prime saw a failure, a divisor vanished or an
            # identity broke): draw again
            continue
        if isinstance(first, Exception):
            raise first  # both primes agree that the input is at fault
        if first == second:
            return first, pair
    raise AnalysisError(
        f"no agreeing runs under {PAIRS} prime pairs (last {pair}); "
        "the input may be numerically degenerate"
    )


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
    helper, sent the form over Q and p2) at the same time.  A pipe or a
    fork that fails (say EMFILE or EAGAIN) closes whatever it opened and
    raises AnalysisError.  Any exception here, or a helper that ends
    without sending a result, kills and reaps the helper, so the next
    pair forks a fresh one.  Threads take turns: a reply is read by the
    thread that sent its request."""
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
    """Kill and reap this process's helper, if it has one; its exit status."""
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
