"""t-root systems: restricted roots of a parabolic's Levi factor.

A parabolic designation keeps a subset of the simple roots (spanning
the semisimple part s of the Levi factor m) and deletes the rest.
Restricting a root phi to the center t of m amounts to reading off
phi's integer coefficients on the deleted nodes: that tuple is the
*key*, and it is the canonical identity of a t-root throughout this
package.

The t-root form comes from ``eliminate``, one pivot-only fraction-free
forward elimination (Bareiss, 1968) whose divisions are all exact and
whose positive pivots certify the kept Gram block positive definite
(Sylvester's criterion); ``troot_vec`` back-substitutes through it for
the projection away from the kept span.  Nothing is floating point, and
a ``Fraction`` is built only for output.

Each t-root space g_nu, held as the mask of the roots restricting to nu,
is certified irreducible under m here, by a unique highest-weight root
and a unique lowest-weight root, which
``RootSystem.weight_certificate`` reads off the raising mask of the kept
simple roots, their reach in the root-sum table.
The laws that the spaces obey together (the bracket law, the sign rule,
the string law and the positivity of the nilradical trace) are checked,
on the same masks and the integer t-root form ``TRootSystem.form``, by
``checks.check_designation``.  A system stores only what nothing else
determines: the positive spaces, since g_-nu is the negative of g_nu root
by root, the mirror of its mask.  The positive keys, the simple t-roots
(the unit keys) and the key of the nilradical trace (the
dimension-weighted sum of the positive keys) are derived on each read, so
the trace law reads the spaces as they stand.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import mul

from .errors import InvalidDesignation, IrreducibilityViolation, NotFiniteType
from .rootsys import Root, RootSystem, is_int, node_set

Key = tuple[int, ...]


def eliminate(rows: list[list[int]], k: int) -> int:
    """Fraction-free forward elimination of the first ``k`` columns, in place.

    Pivot c is ``rows[c][c]`` as it stands: no pivot search and no row
    swap.  With pivot p and previous pivot q (1 at first), each row r below
    row c becomes 0 in column c and (p*r - r[c]*row c) / q right of it, an
    exact division (Bareiss, 1968).  Pivot c is then the leading
    (c+1)-minor, so every pivot is positive exactly when the leading k x k
    block B of a symmetric matrix is positive definite (Sylvester's criterion).

    Returns det(B), the last pivot (1 if k = 0), or 0 at the first pivot
    <= 0.  On success the first k rows are upper triangular, pivot c on the
    diagonal, and the rows below hold zeros in the first k columns and
    det(B) times the Schur complement of B.
    """
    prev = 1
    for c in range(k):
        prow = rows[c]
        p = prow[c]
        if p <= 0:
            return 0
        right = range(c + 1, len(prow))
        for row in rows[c + 1:]:
            f = row[c]
            row[c] = 0
            for t in right:
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


def _certify(rs: RootSystem, key: Key, mask: int, raised: int, lowered: int) -> tuple[int, int]:
    """The numbers of the one highest and one lowest weight root of a space,
    ``raised`` the raising mask of the kept simple roots and ``lowered`` its
    mirror; other counts are an ``IrreducibilityViolation``."""
    top, bottom = rs.weight_certificate(mask, raised, lowered)
    if top.bit_count() != 1 or bottom.bit_count() != 1:
        raise IrreducibilityViolation(
            f"space {key} has {top.bit_count()} highest / {bottom.bit_count()} lowest weight roots"
        )
    return top.bit_length() - 1, bottom.bit_length() - 1


def _eliminated(des: ParabolicDesignation) -> tuple[list[list[int]], int]:
    """The Gram matrix, kept nodes first, and ``eliminate`` of its kept columns."""
    order = des.kept0 + des.deleted0
    rows = [[des.rs.gram[a][b] for b in order] for a in order]
    return rows, eliminate(rows, len(des.kept0))


class TRootSystem:
    """All t-root spaces of one parabolic designation.

    ``spaces`` maps each positive key to its t-root space, the roots
    restricting to that key, as a mask over the numbering of ``rs.indexed``,
    in (key height, key) ascending order, so output is deterministic; the
    space at -nu is ``rs.mirror(spaces[nu])``.  ``form`` is ``(det, Gs)``:
    the t-root form as an integer matrix Gs and its positive scale det.
    The positive keys ``positives``, the simple t-roots ``simples`` and the
    trace key ``delta_key`` are read off the designation and the spaces each
    time they are read, so they follow the spaces as they stand.
    """

    __slots__ = ("designation", "rs", "spaces", "form", "_raised")

    def __init__(self, des: ParabolicDesignation):
        rs = des.rs
        self.designation = des
        self.rs = rs
        D = des.deleted0
        # the raising mask of the kept simple roots and its mirror certify each space
        self._raised = rs.sum_table().reach(rs.simple_mask(des.kept0))
        lowered = rs.mirror(self._raised)

        # each positive root's key, zipped from the deleted coefficient columns
        columns = rs.columns()
        groups: dict[Key, int] = {}
        for i, key in enumerate(zip(*[columns[d] for d in D])):
            groups[key] = groups.get(key, 0) | 1 << i
        groups.pop((0,) * len(D), None)  # the Levi factor's roots

        self.spaces = {}
        for key in sorted(groups, key=lambda k: (sum(k), k)):
            _certify(rs, key, groups[key], self._raised, lowered)
            self.spaces[key] = groups[key]

        # the t-root form (det, Gs), Gs = det * S for the Schur complement
        # S = G_DD - G_DK G_KK^-1 G_KD, K the kept and D the deleted nodes:
        # the forward elimination certifies G_KK positive definite
        # (det = det(G_KK) > 0) and leaves Gs in the deleted block
        k = len(des.kept0)
        rows, det = _eliminated(des)
        if not det:
            raise NotFiniteType("the kept Gram block is not positive definite")
        self.form = det, tuple(tuple(row[k:]) for row in rows[k:])

    # -- derived keys, computed on each read -----------------------------

    @property
    def positives(self) -> tuple[Key, ...]:
        """The positive t-roots, the keys of ``spaces`` in their order."""
        return tuple(self.spaces)

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
        dims = [mask.bit_count() for mask in self.spaces.values()]
        return (tuple(sum(map(mul, column, dims)) for column in zip(*self.spaces))
                or (0,) * len(self.designation.deleted))  # no key, all zero

    # -- exact geometry ---------------------------------------------------

    def troot_vec(self, key: Sequence[int]) -> tuple[Fraction, ...]:
        """Rational vector of a key combination, in simple-root coordinates.

        The deleted simple roots projected away from the kept span: deleted
        coordinate j is the key entry, kept coordinate a is minus entry a of
        G_KK^-1 G_KD key, det times which back-substitution finds in integers
        on the upper triangular kept rows of the elimination behind ``form``.
        """
        des, key = self.designation, tuple(key)
        if len(key) != len(des.deleted) or not all(map(is_int, key)):
            raise InvalidDesignation(f"key {key} is not one integer per deleted node of {des!r}")
        rows, det = _eliminated(des)
        k = len(des.kept0)
        proj = [0] * k
        for i in reversed(range(k)):
            row = rows[i]
            proj[i] = (det * sum(map(mul, row[k:], key))
                       - sum(map(mul, row[i + 1:k], proj[i + 1:]))) // row[i]
        out = dict(zip(des.deleted0, map(Fraction, key)))
        out.update(zip(des.kept0, (Fraction(-v, det) for v in proj)))
        return tuple(map(out.__getitem__, range(self.rs.rank)))

    def extremes(self, key) -> tuple[Root, Root]:
        """The highest and the lowest weight root of the space at a positive
        or negative key, by the certificate that ``__init__`` runs on each
        positive space."""
        key = tuple(key)
        negated = tuple([-c for c in key]) if all(map(is_int, key)) else None
        if negated is None or key not in self.spaces and negated not in self.spaces:
            raise InvalidDesignation(f"key {key} is no t-root of {self.designation!r}")
        # the space at -nu is the mirror of the one at nu
        mask = self.spaces[key] if key in self.spaces else self.rs.mirror(self.spaces[negated])
        top, bottom = _certify(self.rs, key, mask, self._raised, self.rs.mirror(self._raised))
        return self.rs.indexed[top], self.rs.indexed[bottom]

    # -- serialization ----------------------------------------------------

    def document(self) -> dict:
        """Versioned JSON-ready description (see docs/schemas.md)."""
        des = self.designation
        # every t-root in (key height, key) order: the negatives, reversed, first
        positives = list(self.spaces.items())
        negatives = [(tuple([-c for c in key]), self.rs.mirror(mask))
                     for key, mask in reversed(positives)]
        spaces = []
        masks = self._raised, self.rs.mirror(self._raised)
        for key, mask in negatives + positives:
            top, bottom = _certify(self.rs, key, mask, *masks)
            roots = sorted(self.rs.roots_of(mask), key=lambda r: (sum(r), r))
            spaces.append({
                "key": list(key),
                "dim": mask.bit_count(),
                "roots": [list(r) for r in roots],
                "highest": list(self.rs.indexed[top]),
                "lowest": list(self.rs.indexed[bottom]),
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
                f"{2 * len(self.spaces)} t-roots)")


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

