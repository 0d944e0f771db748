"""Exact rational linear algebra for small dense systems.

Everything here runs over ``fractions.Fraction``; there is no floating
point anywhere in the package.  The systems are tiny (Gram matrices of
at most 13 rows), so plain Gaussian elimination with the first nonzero
pivot is the right tool.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import SingularMatrix

RatVec = tuple[Fraction, ...]


def rat_str(x) -> str:
    """Canonical exact string for a rational: '2', '-1/2', ...

    Used by every JSON emitter; Fraction(s) parses it back exactly.
    """
    return str(Fraction(x))


def solve_many(mat: Sequence[Sequence], rhss: Sequence[Sequence]) -> list[RatVec]:
    """Solve one square system against several right-hand sides.

    The elimination is done once; each right-hand side is carried along
    as an extra column.  Raises SingularMatrix when the matrix is not
    invertible.
    """
    n = len(mat)
    if n == 0:
        return [() for _ in rhss]
    for row in mat:
        if len(row) != n:
            raise SingularMatrix("matrix is not square")
    for rhs in rhss:
        if len(rhs) != n:
            raise SingularMatrix("right-hand side has wrong length")
    k = len(rhss)
    # augmented rows: matrix columns followed by one column per rhs
    aug = [
        [Fraction(mat[i][j]) for j in range(n)] + [Fraction(rhss[t][i]) for t in range(k)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrix(f"no pivot in column {col}")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        prow = aug[col]
        pval = prow[col]
        for r in range(col + 1, n):
            factor = aug[r][col]
            if factor == 0:
                continue
            ratio = factor / pval
            row = aug[r]
            for c in range(col, n + k):
                row[c] -= ratio * prow[c]
    outs = []
    for t in range(k):
        x = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            acc = aug[i][n + t]
            row = aug[i]
            for j in range(i + 1, n):
                acc -= row[j] * x[j]
            x[i] = acc / row[i]
        outs.append(tuple(x))
    return outs


def det(mat: Sequence[Sequence]) -> Fraction:
    """Exact determinant via fraction Gaussian elimination."""
    n = len(mat)
    if n == 0:
        return Fraction(1)
    rows = [[Fraction(x) for x in row] for row in mat]
    sign = 1
    out = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        prow = rows[col]
        out *= prow[col]
        for r in range(col + 1, n):
            if rows[r][col] == 0:
                continue
            ratio = rows[r][col] / prow[col]
            row = rows[r]
            for c in range(col, n):
                row[c] -= ratio * prow[c]
    return out * sign


def rank_of(rows: Iterable[Sequence]) -> int:
    """Rank of a list of row vectors (not necessarily square)."""
    work = [[Fraction(x) for x in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        for r in range(rank + 1, len(work)):
            if work[r][col] == 0:
                continue
            ratio = work[r][col] / prow[col]
            row = work[r]
            for c in range(col, ncols):
                row[c] -= ratio * prow[c]
        rank += 1
        if rank == len(work):
            break
    return rank
