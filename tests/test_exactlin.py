from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fraction_det, fraction_eliminate, fraction_solve
from leviroots import exactlin


def jordan_solve(mat, rhss):
    """The solutions of mat . x = rhs, one per rhs, or None if mat is singular.

    Read off one Jordan elimination of [mat | rhss] as levi reads the
    t-root projections: pivot row i holds p * x_i, p the last pivot.
    """
    n = len(mat)
    rows = [list(mat[i]) + [rhs[i] for rhs in rhss] for i in range(n)]
    rank, p, _ = exactlin.eliminate(rows, n, jordan=True)
    if rank < n:
        return None
    return [tuple(Q(row[n + t], p) for row in rows) for t in range(len(rhss))]


def test_solve_identity():
    assert jordan_solve([[1, 0], [0, 1]], [[3, 5]]) == [(Q(3), Q(5))]


def test_solve_exact_fractions():
    # 2x - y = 1, -x + 2y = 1  ->  x = y = 1
    assert jordan_solve([[2, -1], [-1, 2]], [[1, 1]]) == [(Q(1), Q(1))]
    # a system with a genuinely fractional answer
    [sol] = jordan_solve([[2, 1], [1, 3]], [[1, 0]])
    assert sol == (Q(3, 5), Q(-1, 5))


def test_solve_singular():
    assert jordan_solve([[1, 1], [2, 2]], [[1, 2]]) is None


def test_solve_many_matches_repeated_solve():
    mat = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    rhss = [[1, 0, 0], [0, 1, 0], [2, 3, 4]]
    got = jordan_solve(mat, rhss)
    for rhs, sol in zip(rhss, got):
        assert jordan_solve(mat, [rhs]) == [sol]


def test_det_values():
    assert exactlin.det([[2]]) == 2
    assert exactlin.det([[2, -1], [-1, 2]]) == 3
    assert exactlin.det([[1, 2], [2, 4]]) == 0
    # extended A2 Cartan matrix is singular
    aff = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    assert exactlin.det(aff) == 0


def test_rank_of():
    assert exactlin.rank_of([(1, 0), (0, 1)]) == 2
    assert exactlin.rank_of([(1, 1), (2, 2)]) == 1
    assert exactlin.rank_of([(0, 0)]) == 0
    assert exactlin.rank_of([(1, 2, 3)]) == 1


def test_project_onto_span():
    # project alpha1 onto span{alpha2} in A2: coefficient -1/2
    span_gram = [[2]]
    pairings = [-1]
    assert jordan_solve(span_gram, [pairings]) == [(Q(-1, 2),)]


def test_project_empty_span():
    assert jordan_solve([], [[]]) == [()]


def test_rat_str():
    assert exactlin.rat_str(Q(3, 2)) == "3/2"
    assert exactlin.rat_str(Q(-1, 3)) == "-1/3"
    assert exactlin.rat_str(2) == "2"
    assert exactlin.rat_str(Q(4, 2)) == "2"


@given(st.lists(st.integers(-50, 50), min_size=2, max_size=4))
def test_solve_roundtrip_diagonally_dominant(diag_noise):
    n = len(diag_noise)
    # build a strictly diagonally dominant (hence invertible) matrix: a row
    # has at most 3 off-diagonal entries of size <= 50, so 151 dominates
    mat = [[151 + abs(diag_noise[i]) if i == j else diag_noise[(i + j) % n]
            for j in range(n)] for i in range(n)]
    rhs = [diag_noise[i] - i for i in range(n)]
    [sol] = jordan_solve(mat, [rhs])
    for i in range(n):
        assert sum(Q(mat[i][j]) * sol[j] for j in range(n)) == rhs[i]


@given(st.integers(1, 4), st.integers(0, 3))
def test_rank_of_duplicated_rows(n, extra):
    rows = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rows += [rows[0]] * extra
    assert exactlin.rank_of(rows) == n


# -- the fraction-free routines against a plain Fraction reference ----------

entries = st.integers(-6, 6) | st.sampled_from([0, 0, 1, -1])


@st.composite
def int_matrix(draw, square=True):
    n = draw(st.integers(1, 5))
    m = n if square else draw(st.integers(1, 5))
    return draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(int_matrix())
def test_det_matches_fraction_reference(mat):
    got = exactlin.det(mat)
    assert type(got) is int
    assert got == fraction_det(mat)


@settings(max_examples=200, deadline=None)
@given(int_matrix(square=False))
def test_rank_of_matches_fraction_reference(rows):
    assert exactlin.rank_of(rows) == len(fraction_eliminate(rows)[1])


@settings(max_examples=200, deadline=None)
@given(int_matrix(), st.data())
def test_solve_many_matches_fraction_reference(mat, data):
    n = len(mat)
    rhss = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=3))
    if fraction_det(mat) == 0:
        assert jordan_solve(mat, rhss) is None
    else:
        assert jordan_solve(mat, rhss) == [fraction_solve(mat, rhs) for rhs in rhss]


def test_eliminate_leaves_scaled_schur_complement():
    # leading block [[2, -1], [-1, 2]] (det 3) of the A3 Cartan matrix: the
    # rows below hold 3 * (2 - (0, -1) B^-1 (0, -1)^T) = 3 * 4/3
    rows = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    assert exactlin.eliminate(rows, 2) == (2, 3, 1)
    assert rows[2][2] == 4


def test_non_integer_entries_rejected():
    with pytest.raises(TypeError):
        exactlin.det([[Q(1, 2)]])
    with pytest.raises(TypeError):
        exactlin.rank_of([(1.5, 0)])
