"""levi's exact linear algebra: the pivot-only fraction-free elimination
that certifies a positive definite block, and how the documents print its
rationals."""

from fractions import Fraction as Q
from operator import mul

from hypothesis import given, settings, strategies as st

from conftest import fraction_det, fraction_solve
from leviroots import designation, root_system, troot_system
from leviroots.bds import bds_document
from leviroots.levi import eliminate


def eliminate_solve(mat, rhss):
    """The solutions of mat . x = rhs, one per rhs, or None unless every
    leading minor of mat is positive.

    Read off one forward elimination of [mat | rhss] as levi reads the
    t-root projection: back-substitution through the upper triangular
    rows, in integers, gives p * x with p the last pivot, det(mat).
    """
    n = len(mat)
    rows = [list(mat[i]) + [rhs[i] for rhs in rhss] for i in range(n)]
    p = eliminate(rows, n)
    if not p:
        return None
    out = []
    for t in range(len(rhss)):
        px = [0] * n
        for i in reversed(range(n)):
            row = rows[i]
            px[i] = (p * row[n + t] - sum(row[j] * px[j] for j in range(i + 1, n))) // row[i]
        out.append(tuple(Q(v, p) for v in px))
    return out


def test_solve_identity():
    assert eliminate_solve([[1, 0], [0, 1]], [[3, 5]]) == [(Q(3), Q(5))]


def test_solve_exact_fractions():
    # 2x - y = 1, -x + 2y = 1  ->  x = y = 1
    assert eliminate_solve([[2, -1], [-1, 2]], [[1, 1]]) == [(Q(1), Q(1))]
    # a system with a genuinely fractional answer
    [sol] = eliminate_solve([[2, 1], [1, 3]], [[1, 0]])
    assert sol == (Q(3, 5), Q(-1, 5))


def test_solve_singular():
    # the second pivot, the determinant, is 0
    assert eliminate_solve([[1, 1], [2, 2]], [[1, 2]]) is None


def test_solve_many_matches_repeated_solve():
    mat = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    rhss = [[1, 0, 0], [0, 1, 0], [2, 3, 4]]
    got = eliminate_solve(mat, rhss)
    for rhs, sol in zip(rhss, got):
        assert eliminate_solve(mat, [rhs]) == [sol]


def test_det_values():
    assert eliminate([[2]], 1) == 2
    assert eliminate([[2, -1], [-1, 2]], 2) == 3
    assert eliminate([[1, 2], [2, 4]], 2) == 0
    # a zero leading entry is a zero leading minor, never a row swap
    assert eliminate([[0, 1], [1, 0]], 2) == 0
    # extended A2 Cartan matrix is singular
    aff = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    assert eliminate(aff, 3) == 0


def test_indefinite_block_of_positive_determinant():
    # eigenvalues 8, -1, -1: the determinant is 8, the second leading
    # minor 2*2 - 3*3 = -5
    rows = [[2, 3, 3, 0], [3, 2, 3, -1], [3, 3, 2, 0], [0, -1, 0, 2]]
    assert fraction_det([r[:3] for r in rows[:3]]) == 8
    assert eliminate(rows, 3) == 0


def test_zero_leading_pivot():
    rows = [[0, 1, 2], [1, 2, 0], [2, 0, 5]]
    assert eliminate(rows, 2) == 0
    assert rows == [[0, 1, 2], [1, 2, 0], [2, 0, 5]]


def test_no_pivot_leaves_the_rows():
    rows = [[2, -1], [-1, 2]]
    assert eliminate(rows, 0) == 1
    assert rows == [[2, -1], [-1, 2]]


def test_project_onto_span():
    # project alpha1 onto span{alpha2} in A2: coefficient -1/2
    span_gram = [[2]]
    pairings = [-1]
    assert eliminate_solve(span_gram, [pairings]) == [(Q(-1, 2),)]


def test_project_empty_span():
    assert eliminate_solve([], [[]]) == [()]


def test_rat_str():
    # the documents print each rational as str(Fraction(x)): '2', '-1/3',
    # never '4/2', and Fraction parses it back exactly
    for x, text in ((Q(3, 2), "3/2"), (Q(-1, 3), "-1/3"), (2, "2"), (Q(4, 2), "2")):
        assert str(Q(x)) == text and Q(text) == x
    [node] = bds_document(root_system("F4"), node=3)["nodes"]
    assert node["alcove_vertex"] == ["0", "0", "1/4", "0"]
    trace = troot_system(designation(root_system("G2"), kept=[1])).document()["trace_vector"]
    assert trace == ["9", "6"]


@given(st.lists(st.integers(-50, 50), min_size=2, max_size=4))
def test_solve_roundtrip_diagonally_dominant(diag_noise):
    n = len(diag_noise)
    # build a strictly diagonally dominant (hence invertible) matrix: a row
    # has at most 3 off-diagonal entries of size <= 50, so 151 dominates
    mat = [[151 + abs(diag_noise[i]) if i == j else diag_noise[(i + j) % n]
            for j in range(n)] for i in range(n)]
    rhs = [diag_noise[i] - i for i in range(n)]
    [sol] = eliminate_solve(mat, [rhs])
    for i in range(n):
        assert sum(Q(mat[i][j]) * sol[j] for j in range(n)) == rhs[i]


# -- the fraction-free routines against a plain Fraction reference ----------

entries = st.integers(-6, 6) | st.sampled_from([0, 0, 1, -1])


@st.composite
def symmetric_matrix(draw):
    """A symmetric integer matrix, its diagonal raised by up to 30: some are
    positive definite, some not."""
    n = draw(st.integers(1, 5))
    lower = draw(st.lists(entries, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    boost = draw(st.integers(0, 30))
    mat = [[0] * n for _ in range(n)]
    for (i, j), x in zip(((i, j) for i in range(n) for j in range(i + 1)), lower):
        mat[i][j] = mat[j][i] = x + (boost if i == j else 0)
    return mat


@settings(max_examples=300, deadline=None)
@given(symmetric_matrix(), st.data())
def test_eliminate_is_sylvester_criterion(mat, data):
    # nonzero exactly when every leading minor of the k x k block is
    # positive, and then det(B); kept row i is upper triangular, entry j >= i
    # the minor of rows 0..i and columns 0..i-1, j (pivot i the leading
    # minor), and the rows below hold det(B) times the Schur complement
    # D - C^T B^-1 C
    n = len(mat)
    k = data.draw(st.integers(0, n))
    rows = [list(r) for r in mat]
    got = eliminate(rows, k)
    assert type(got) is int
    block = [r[:k] for r in mat[:k]]
    if not all(fraction_det([r[:m] for r in block[:m]]) > 0 for m in range(1, k + 1)):
        assert got == 0
        return
    assert got == fraction_det(block)
    for i in range(k):
        assert rows[i] == [0] * i + [
            fraction_det([r[:i] + [r[j]] for r in mat[:i + 1]]) for j in range(i, n)]
    solved = [fraction_solve(block, [mat[i][j] for i in range(k)]) for j in range(k, n)]
    for i in range(k, n):
        assert rows[i][:k] == [0] * k
        assert rows[i][k:] == [
            got * (mat[i][j] - sum(mat[i][a] * x[a] for a in range(k)))
            for j, x in zip(range(k, n), solved)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(entries, min_size=5, max_size=5), min_size=1, max_size=5), st.data())
def test_solve_many_matches_fraction_reference(cols, data):
    # mat = A A^T + I is positive definite
    n = len(cols)
    mat = [[sum(map(mul, cols[i], cols[j])) + (i == j) for j in range(n)] for i in range(n)]
    rhss = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=3))
    assert eliminate_solve(mat, rhss) == [fraction_solve(mat, rhs) for rhs in rhss]


def test_eliminate_leaves_scaled_schur_complement():
    # leading block [[2, -1], [-1, 2]] (det 3) of the A3 Cartan matrix: the
    # kept rows are upper triangular with the pivots 2 and 3 on the
    # diagonal, and the row below holds 3 * (2 - (0, -1) B^-1 (0, -1)^T) = 3 * 4/3
    rows = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    assert eliminate(rows, 2) == 3
    assert rows == [[2, -1, 0], [0, 3, -2], [0, 0, 4]]

