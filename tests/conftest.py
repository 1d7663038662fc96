import pytest

from multiprice import lp, perturb


@pytest.fixture(autouse=True)
def empty_memos():
    """Every test starts with an empty choice-LP memo and grid memo, so a
    test that patches the oracle, the simplex or a limit neither reads
    answers another test left nor leaves its own behind."""
    lp._cached_solve.cache_clear()
    perturb._perturbed.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        import test_acceptance
    except ImportError:
        return
    lines = getattr(test_acceptance, "RESULT_LINES", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
