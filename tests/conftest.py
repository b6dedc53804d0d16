"""Shared pytest configuration for the affext test suite."""

import shutil
import sys

import pytest
from hypothesis import HealthCheck, settings

from affext import batch

settings.register_profile(
    "affext",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("affext")

HAVE_CC = bool(shutil.which("cc") or shutil.which("gcc"))
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="needs a C compiler")


@pytest.fixture
def fresh_c_build():
    """Forget this process's C kernel outcome, and so its fallback warning, before and after."""
    batch.c_build.cache_clear()
    yield
    batch.c_build.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the one-line-per-criterion acceptance verdicts."""
    lines: list[str] = []
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").endswith("test_acceptance"):
            lines.extend(getattr(mod, "_ANNOUNCEMENTS", []))
    for rep in terminalreporter.stats.get("skipped", []):
        if "test_acceptance" in rep.nodeid:
            reason = rep.longrepr[2] if isinstance(rep.longrepr, tuple) else rep.longrepr
            lines.append(f"{rep.nodeid.split('::')[-1]}: SKIP - {reason}")
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
