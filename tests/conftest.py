"""Shared test harness: per-test timeout enforcement.

A hung test (an accidental unbounded drive loop, a deadlocked pump)
should fail loudly, not wedge the whole suite.  CI installs
``pytest-timeout``; when that plugin is present this conftest defers to
it entirely.  Locally — where the plugin may not be installed — a
SIGALRM fallback enforces the same bound on POSIX platforms, and is a
clean no-op anywhere SIGALRM is unavailable (Windows, non-main-thread
runners).

Override per test with ``@pytest.mark.timeout(seconds)`` — the same
marker pytest-timeout uses, so tests stay portable between both
enforcement paths.
"""

from __future__ import annotations

import signal
import threading

import pytest
from hypothesis import settings

#: ``--hypothesis-profile=deep``: property tests that size themselves from
#: the loaded profile (tests/test_vault_walk_reference.py) run 1,000
#: examples; CI's deep step selects it.
settings.register_profile("deep", max_examples=1000, deadline=None)

#: Default per-test bound in seconds.  Generous: the slowest legitimate
#: tests (full-campaign service runs) finish well under this.
DEFAULT_TIMEOUT = 120


class PerTestTimeout(BaseException):
    """The SIGALRM fallback's error.  Not an ``Exception``: hypothesis
    takes one for a failing example and replays it to shrink — with the
    one alarm spent, a replay that hangs would hang the suite.  This
    ends the test instead, and pytest reports it as failed."""


def _plugin_active(config) -> bool:
    return config.pluginmanager.hasplugin("timeout")


def pytest_configure(config):
    # Register the marker so `--strict-markers` runs accept it even
    # when pytest-timeout is absent.
    if not _plugin_active(config):
        config.addinivalue_line(
            "markers",
            "timeout(seconds): per-test timeout (SIGALRM fallback)",
        )


def _timeout_for(item) -> float:
    marker = item.get_closest_marker("timeout")
    if marker and marker.args:
        return float(marker.args[0])
    return float(DEFAULT_TIMEOUT)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if (
        _plugin_active(item.config)
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return
    seconds = _timeout_for(item)
    if seconds <= 0:
        yield
        return

    def _alarm(signum, frame):
        raise PerTestTimeout(
            f"test exceeded the {seconds:.0f}s per-test timeout"
        )

    previous = signal.signal(signal.SIGALRM, _alarm)
    # ITIMER_REAL supports fractional seconds, unlike alarm().
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
