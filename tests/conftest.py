import pytest

from leviroots import root_system


def pytest_configure(config):
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_log(request):
    return request.config._acceptance_lines


@pytest.fixture(scope="session")
def a2():
    return root_system("A2")


@pytest.fixture(scope="session")
def g2():
    return root_system("G2")


@pytest.fixture(scope="session")
def f4():
    return root_system("F4")


def classical_root_count(stype) -> int:
    """Classical root count of a simple type: the generation oracle."""
    n = stype.rank
    return {
        "A": n * (n + 1),
        "B": 2 * n * n,
        "C": 2 * n * n,
        "D": 2 * n * (n - 1),
        "E": {6: 72, 7: 126, 8: 240}.get(n, 0),
        "F": 48,
        "G": 12,
    }[stype.family]
