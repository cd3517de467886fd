import contextlib
import signal

import pytest


@pytest.fixture
def report_line(request):
    """Write a line straight to the terminal, bypassing output capture, so
    per-criterion pass/fail lines stay visible in the normal test log."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _write(text):
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_line(text)
        else:
            print(text)

    return _write


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""
    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def deadline():
    """``with deadline(seconds):`` raises TimeoutError in its block once
    ``seconds`` of wall time pass.  Session-scoped, so Hypothesis tests can
    take it too."""
    return _deadline
