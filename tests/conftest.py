"""Shared fixtures and the acceptance-suite summary printer."""

from __future__ import annotations

import contextlib

import pytest

from jacmod import linalg, oracle
from jacmod.fields import prime_field, rational_field

# criterion number -> (label, status); filled by the acceptance fixture
_acceptance_results: dict[int, tuple[str, str]] = {}


@pytest.fixture(autouse=True)
def fresh_helper():
    """Retire the second-prime helper after each test, as interpreter
    exit does, so that the next test's patches reach the helper it
    forks."""
    yield
    oracle._retire_helper()


@pytest.fixture(autouse=True)
def no_spare_table():
    """Drop the process's spare table buffer after each test, so that no
    test inherits another test's buffer; a test that needs a dirty spare
    plants one itself."""
    yield
    linalg._spare.clear()


@pytest.fixture(scope="session")
def gfp():
    return prime_field(2**31 - 1)


@pytest.fixture(scope="session")
def gfp_alt():
    return prime_field(2147483629)


@pytest.fixture(scope="session")
def rationals():
    return rational_field()


@pytest.fixture
def acceptance():
    """Context manager recording one acceptance criterion's outcome for
    the end-of-run summary (a criterion passes only if its whole block
    runs without an assertion failure)."""

    @contextlib.contextmanager
    def recorder(number: int, label: str):
        _acceptance_results[number] = (label, "FAIL")
        yield
        _acceptance_results[number] = (label, "PASS")

    return recorder


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_acceptance_results):
        label, status = _acceptance_results[number]
        terminalreporter.write_line(f"criterion {number} ({label}): {status}")
