"""t-root systems: restricted roots of a parabolic's Levi factor.

A parabolic designation keeps a subset of the simple roots (spanning
the semisimple part s of the Levi factor m) and deletes the rest.
Restricting a root phi to the center t of m amounts to reading off
phi's integer coefficients on the deleted nodes: that tuple is the
*key*, and it is the canonical identity of a t-root throughout this
package.  The rational projection vector is derived data, computed on
demand by orthogonal projection away from the kept span.

The projection and the t-root form come from ``eliminate``, one
pivot-only fraction-free Jordan elimination (Bareiss, 1968) whose
divisions are all exact and whose positive pivots certify the kept Gram
block positive definite (Sylvester's criterion); nothing is floating
point, and a ``Fraction`` is built only for output.

Each t-root space g_nu, held as the mask of the roots restricting to nu,
is certified irreducible under m here, by a unique highest-weight root
and a unique lowest-weight root, which
``RootSystem.weight_certificate`` reads off the raising mask of the kept
simple roots, their reach in the root-sum table.
The laws that the spaces obey together (the bracket law, the sign rule,
the string law and the positivity of the nilradical trace) are checked,
on the same masks and the integer t-root form ``TRootSystem.form``, by
``checks.check_designation``.  A system stores only what nothing else
determines: the simple t-roots (the unit keys) and the key of the
nilradical trace (the dimension-weighted sum of the positive keys) are
derived on each read, so the trace law reads the spaces as they stand.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import mul

from .errors import InvalidDesignation, IrreducibilityViolation, NotFiniteType
from .rootsys import Root, RootSystem, node_set

Key = tuple[int, ...]


def eliminate(rows: list[list[int]], k: int) -> int:
    """Fraction-free Jordan elimination of the first ``k`` columns, in place.

    Pivot c is ``rows[c][c]`` as it stands: no pivot search and no row
    swap.  With pivot p and previous pivot q (1 at first), every other row
    r becomes (p*r - r[c]*row c) / q, an exact division (Bareiss, 1968).
    Pivot c is then the leading (c+1)-minor, so every pivot is positive
    exactly when the leading k x k block B of a symmetric matrix is
    positive definite (Sylvester's criterion).

    Returns det(B), the last pivot (1 if k = 0), or 0 at the first pivot
    <= 0.  On success each of the first k rows has det(B) on its diagonal
    and zeros in the other first k columns, and the rows below hold det(B)
    times the Schur complement of B.
    """
    prev = 1
    for c in range(k):
        prow = rows[c]
        p = prow[c]
        if p <= 0:
            return 0
        for r, row in enumerate(rows):
            if r != c:
                f = row[c]
                for t in range(len(row)):
                    row[t] = (p * row[t] - f * prow[t]) // prev
        prev = p
    return prev


class ParabolicDesignation:
    """A choice of kept simple-root nodes (1-based), kept != all."""

    __slots__ = ("rs", "deleted", "kept0", "deleted0")

    def __init__(self, rs: RootSystem, kept_nodes: Iterable[int]):
        kept = node_set(rs.rank, kept_nodes)
        nodes = frozenset(range(1, rs.rank + 1))
        if kept == nodes:
            raise InvalidDesignation("kept every node; the parabolic must be proper")
        self.rs = rs
        self.deleted = tuple(sorted(nodes - kept))
        self.kept0 = tuple(sorted(k - 1 for k in kept))
        self.deleted0 = tuple(d - 1 for d in self.deleted)

    @property
    def kept(self) -> frozenset[int]:
        # built on demand: sweeps hold thousands of designations, and a
        # frozenset of five or more nodes takes 728 bytes, kept0 under 130
        return frozenset(k + 1 for k in self.kept0)

    def __repr__(self) -> str:
        name = str(self.rs.stype) if self.rs.stype else f"rank-{self.rs.rank}"
        return f"ParabolicDesignation({name}, kept={sorted(self.kept)})"


def designation(rs: RootSystem, kept: Iterable[int] | None = None,
                deleted: Iterable[int] | None = None) -> ParabolicDesignation:
    """Build a designation from either the kept or the deleted node set."""
    if (kept is None) == (deleted is None):
        raise InvalidDesignation("give exactly one of kept= or deleted=")
    if kept is None:
        deleted = node_set(rs.rank, deleted)
        if not deleted:
            raise InvalidDesignation("deleted no node; the parabolic must be proper")
        kept = frozenset(range(1, rs.rank + 1)) - deleted
    return ParabolicDesignation(rs, kept)


def _certify(rs: RootSystem, key: Key, mask: int, raised: int) -> tuple[int, int]:
    """The numbers of the one highest and one lowest weight root of a space,
    ``raised`` the raising mask of the kept simple roots; any other count is
    an ``IrreducibilityViolation``."""
    top, bottom = rs.weight_certificate(mask, raised)
    if top.bit_count() != 1 or bottom.bit_count() != 1:
        raise IrreducibilityViolation(
            f"space {key} has {top.bit_count()} highest / {bottom.bit_count()} lowest weight roots"
        )
    return top.bit_length() - 1, bottom.bit_length() - 1


class TRootSystem:
    """All t-root spaces of one parabolic designation.

    ``spaces`` maps each key to its t-root space, the roots restricting to
    that key, as a mask over the numbering of ``rs.indexed``.  Iteration
    and serialization order is (key height, key) ascending, so output is
    deterministic.  ``form`` is ``(det, Gs)``: the t-root form as an
    integer matrix Gs and its positive scale det.  The simple t-roots
    ``simples`` and the trace key ``delta_key`` are read off the
    designation and the spaces each time they are read, so they follow
    the spaces as they stand.
    """

    __slots__ = ("designation", "rs", "spaces", "keys", "positives", "form", "_raised", "_proj")

    def __init__(self, des: ParabolicDesignation):
        rs = des.rs
        self.designation = des
        self.rs = rs
        D = des.deleted0
        # the raising mask of the kept simple roots, which certifies each space
        self._raised = rs.sum_table().reach(rs.simple_mask(des.kept0))

        # each positive root's key, zipped from the deleted coefficient columns
        columns = rs.columns()
        groups: dict[Key, int] = {}
        for i, key in enumerate(zip(*[columns[d] for d in D])):
            groups[key] = groups.get(key, 0) | 1 << i
        groups.pop((0,) * len(D), None)  # the Levi factor's roots

        positives = sorted(groups, key=lambda k: (sum(k), k))
        for key in positives:
            _certify(rs, key, groups[key], self._raised)
        # negation reverses the (height, key) order, and every negative key
        # comes before every positive one
        negatives = [tuple([-c for c in key]) for key in reversed(positives)]
        self.keys = tuple(negatives) + tuple(positives)
        masks = [rs.mirror(groups[k]) for k in reversed(positives)]
        self.spaces = dict(zip(self.keys, masks + [groups[k] for k in positives]))
        self.positives = tuple(positives)

        # the t-root form (det, Gs), Gs = det * S for the Schur complement
        # S = G_DD - G_DK G_KK^-1 G_KD, K the kept and D the deleted nodes:
        # one Jordan elimination of the Gram matrix, kept nodes first,
        # certifies G_KK positive definite (det = det(G_KK) > 0), leaves Gs
        # in the deleted block and, in the kept rows, det * G_KK^-1 G_KD,
        # which ``troot_vec`` reads
        k = len(des.kept0)
        order = des.kept0 + D
        gram = rs.gram
        rows = [[gram[a][b] for b in order] for a in order]
        det = eliminate(rows, k)
        if not det:
            raise NotFiniteType("the kept Gram block is not positive definite")
        self.form = det, tuple(tuple(row[k:]) for row in rows[k:])
        self._proj = tuple(row[k:] for row in rows[:k])

    # -- derived keys, computed on each read -----------------------------

    @property
    def simples(self) -> tuple[Key, ...]:
        """The simple t-roots: the unit keys, one per deleted node, since
        alpha_j itself restricts to unit key j."""
        width = len(self.designation.deleted)
        return tuple(tuple(1 if i == a else 0 for i in range(width)) for a in range(width))

    @property
    def delta_key(self) -> Key:
        """The key of the nilradical trace: the sum of the positive keys,
        each weighted by the dimension of its space as it stands."""
        delta = [0] * len(self.designation.deleted)
        for k in self.positives:
            dim = self.spaces[k].bit_count()
            for i, c in enumerate(k):
                delta[i] += dim * c
        return tuple(delta)

    # -- exact geometry ---------------------------------------------------

    def troot_vec(self, key: Sequence[int]) -> tuple[Fraction, ...]:
        """Rational vector of a key combination, in simple-root coordinates.

        The deleted simple roots projected away from the kept span: deleted
        coordinate j is the key entry, kept coordinate a is minus the
        projection row of a, dotted with the key, over det.
        """
        det = self.form[0]
        out = [Fraction(0)] * self.rs.rank
        for j, c in zip(self.designation.deleted0, key):
            out[j] = Fraction(c)
        for a, row in zip(self.designation.kept0, self._proj):
            out[a] = Fraction(-sum(map(mul, row, key)), det)
        return tuple(out)

    def extremes(self, key) -> tuple[Root, Root]:
        """The highest and the lowest weight root of the space at key, by
        the certificate that ``__init__`` runs on each positive space."""
        top, bottom = _certify(self.rs, tuple(key), self.spaces[tuple(key)], self._raised)
        return self.rs.indexed[top], self.rs.indexed[bottom]

    # -- serialization ----------------------------------------------------

    def document(self) -> dict:
        """Versioned JSON-ready description (see docs/schemas.md)."""
        des = self.designation
        spaces = []
        for key, mask in self.spaces.items():
            highest, lowest = self.extremes(key)
            roots = sorted(self.rs.roots_of(mask), key=lambda r: (sum(r), r))
            spaces.append({
                "key": list(key),
                "dim": mask.bit_count(),
                "roots": [list(r) for r in roots],
                "highest": list(highest),
                "lowest": list(lowest),
            })
        return {
            "schema": "leviroots.trootsystem/1",
            "type": str(self.rs.stype) if self.rs.stype else None,
            "rank": self.rs.rank,
            "kept": sorted(des.kept),
            "deleted": list(des.deleted),
            "spaces": spaces,
            "simples": [list(k) for k in self.simples],
            "trace_vector": [str(v) for v in nilradical_trace(self)],
        }

    def __repr__(self) -> str:
        return (f"TRootSystem({self.designation!r}, "
                f"{len(self.keys)} t-roots)")


def troot_system(des: ParabolicDesignation) -> TRootSystem:
    """Group the roots by key, certify every space irreducible and the
    kept Gram block positive definite, and build the t-root form."""
    return TRootSystem(des)


def nilradical_trace(trsys: TRootSystem) -> tuple[Fraction, ...]:
    """Covector representing x -> trace(ad x | nilradical) on the center.

    Equals the dimension-weighted sum of the positive t-roots; it pairs
    strictly positively with every positive t-root.
    """
    return trsys.troot_vec(trsys.delta_key)

