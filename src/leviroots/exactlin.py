"""Exact linear algebra for small dense integer systems.

One fraction-free elimination (Bareiss, *Sylvester's identity and
multistep integer-preserving Gaussian elimination*, 1968) serves every
caller: each entry it leaves is an integer minor of the input, and each
of its divisions is exact.  The determinant of a square matrix is the
sign times the last pivot at full rank, 0 below it; a Jordan
elimination of ``[A | B]`` leaves ``p * A^-1 B`` by ``p * I`` (p
the last pivot), so callers divide only to print.  Nothing is floating
point.  The systems are tiny (Gram matrices of at most 13 rows), so the
first nonzero pivot is the right choice.
"""

from __future__ import annotations

from fractions import Fraction

RatVec = tuple[Fraction, ...]


def rat_str(x) -> str:
    """Canonical exact string for a rational: '2', '-1/2', ...

    Used by every JSON emitter; Fraction(s) parses it back exactly.
    """
    return str(Fraction(x))


def eliminate(rows: list[list[int]], ncols: int, jordan: bool = False) -> tuple[int, int, int]:
    """Fraction-free elimination of an integer matrix, in place.

    Pivots are sought in the first ``ncols`` columns, left to right: the
    first nonzero entry at or below the next pivot row, swapped up; a
    column without one is skipped.  With pivot p and previous pivot q
    (1 at first), every row r below the pivot row (every other row, if
    ``jordan``) becomes (p*r - r[c]*pivot row) / q, an exact division.
    Returns the number of pivots, the last pivot (1 if none) and the sign
    of the row permutation.

    After k pivots with no swap, the last pivot is det(B) for the leading
    k x k block B, and the rows below hold det(B) times the Schur
    complement of B.  With ``jordan``, each pivot row also has the last
    pivot on its diagonal and zeros in the other pivot columns.
    """
    n = len(rows)
    rank, prev, sign = 0, 1, 1
    for c in range(ncols):
        pivot = next((r for r in range(rank, n) if rows[r][c]), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            sign = -sign
        prow = rows[rank]
        p = prow[c]
        # below the pivot row, the columns left of c are already zero
        start = 0 if jordan else c
        for r in range(0 if jordan else rank + 1, n):
            if r != rank:
                row = rows[r]
                f = row[c]
                for t in range(start, len(row)):
                    row[t] = (p * row[t] - f * prow[t]) // prev
        prev = p
        rank += 1
    return rank, prev, sign
