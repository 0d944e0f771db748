from fractions import Fraction

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


def replace(record, **changes):
    """A copy of a slotted record with some fields changed.

    Every record class of the package takes its slots, by name, as its
    constructor arguments, so the copy goes through the constructor.
    """
    unknown = changes.keys() - set(record.__slots__)
    if unknown:
        raise TypeError(f"{type(record).__name__} has no fields {sorted(unknown)}")
    return type(record)(**{name: changes.get(name, getattr(record, name))
                           for name in record.__slots__})


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


# -- plain Fraction references for the fraction-free linear algebra --------


def fraction_eliminate(rows):
    """Row echelon form over Fraction: (echelon rows, pivot columns, sign)."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots, sign = [], 1
    for c in range(len(work[0]) if work else 0):
        r0 = len(pivots)
        pivot = next((r for r in range(r0, len(work)) if work[r][c]), None)
        if pivot is None:
            continue
        if pivot != r0:
            work[r0], work[pivot] = work[pivot], work[r0]
            sign = -sign
        for r in range(r0 + 1, len(work)):
            ratio = work[r][c] / work[r0][c]
            work[r] = [x - ratio * y for x, y in zip(work[r], work[r0])]
        pivots.append(c)
    return work, pivots, sign


def fraction_det(mat):
    work, pivots, sign = fraction_eliminate(mat)
    if len(pivots) < len(mat):
        return Fraction(0)
    out = Fraction(sign)
    for i in range(len(mat)):
        out *= work[i][i]
    return out


def fraction_solve(mat, rhs):
    """The solution of mat . x = rhs by elimination and back substitution."""
    n = len(mat)
    work, pivots, _ = fraction_eliminate([list(mat[i]) + [rhs[i]] for i in range(n)])
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (work[i][n] - sum(work[i][j] * x[j] for j in range(i + 1, n))) / work[i][i]
    return tuple(x)
