"""Per-test watchdog: a test that hangs ends the run with every thread's traceback.

Each item, its fixture setup and teardown included, gets WATCHDOG_S seconds;
the slowest item of the suite, a module fixture's setup, takes under 20 s.
Past that, faulthandler writes the stacks to the terminal's stderr and exits
the process with status 1, so a kernel fault that loops fails the suite
instead of hanging it.
"""

import faulthandler
import os

import pytest

WATCHDOG_S = 300

# the terminal's stderr, kept before output capture redirects fd 2
_STDERR = pytest.StashKey()


def pytest_configure(config):
    config.stash[_STDERR] = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    config.stash[_STDERR].close()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(
        WATCHDOG_S, exit=True, file=item.config.stash[_STDERR]
    )
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
