"""t-root systems: restricted roots of a parabolic's Levi factor.

A parabolic designation keeps a subset of the simple roots (spanning
the semisimple part s of the Levi factor m) and deletes the rest.
Restricting a root phi to the center t of m amounts to reading off
phi's integer coefficients on the deleted nodes: that tuple is the
*key*, and it is the canonical identity of a t-root throughout this
package.  The rational projection vector is derived data, computed on
demand by orthogonal projection away from the kept span.

The central structural facts realized here, all certified
combinatorially on root sets:

* each t-root space g_nu is irreducible under m, witnessed by a unique
  highest-weight root and a unique lowest-weight root;
* bracket law [g_mu, g_nu] = g_{mu+nu}, realized as root-vector sums;
* sign rules linking the bilinear pairing of two t-roots to membership
  of their sum and difference;
* t-weight strings through the adjoint module are intervals with
  prescribed endpoint signs;
* the trace covector of the nilradical action is strictly positive on
  positive t-roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence

from . import exactlin
from .errors import InvalidDesignation, InvalidPair, IrreducibilityViolation
from .exactlin import RatVec
from .rootsys import Root, RootSystem

Key = tuple[int, ...]


class ParabolicDesignation:
    """A choice of kept simple-root nodes (1-based), kept != all."""

    __slots__ = ("rs", "deleted", "kept0", "deleted0")

    def __init__(self, rs: RootSystem, kept_nodes: Iterable[int]):
        kept = frozenset(kept_nodes)
        nodes = frozenset(range(1, rs.rank + 1))
        if not kept <= nodes:
            bad = sorted(kept - nodes)
            raise InvalidDesignation(f"node indices out of range: {bad}")
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
        deleted = frozenset(deleted)
        if not deleted:
            raise InvalidDesignation("deleted no node; the parabolic must be proper")
        # the symmetric difference keeps an out-of-range node in the kept
        # set, where the constructor's range check names it
        kept = frozenset(range(1, rs.rank + 1)) ^ deleted
    return ParabolicDesignation(rs, kept)


def troot_of(des: ParabolicDesignation, root: Root) -> Key | None:
    """Key of the restriction of a root to the center; None iff it vanishes.

    The restriction is zero exactly when the root lives in the Levi
    factor (all coefficients on deleted nodes are zero).
    """
    key = tuple(root[d] for d in des.deleted0)
    return key if any(key) else None


@dataclass(frozen=True, slots=True)
class TRootSpace:
    """One t-root space: all roots restricting to the same nonzero key.

    Roots are held by number in ``rs.indexed`` (``indexed``): ``numbers``,
    their ``mask``, the highest weight ``top`` and the lowest ``bottom``;
    ``roots``, ``highest`` and ``lowest`` decode them for output.
    """

    key: Key
    numbers: tuple[int, ...]
    top: int
    bottom: int
    indexed: tuple[Root, ...] = field(repr=False, compare=False)
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mask = 0
        for i in self.numbers:
            mask |= 1 << i
        object.__setattr__(self, "mask", mask)

    @property
    def dim(self) -> int:
        return len(self.numbers)

    @property
    def roots(self) -> tuple[Root, ...]:
        return tuple(map(self.indexed.__getitem__, self.numbers))

    @property
    def highest(self) -> Root:
        return self.indexed[self.top]

    @property
    def lowest(self) -> Root:
        return self.indexed[self.bottom]


class TRootSystem:
    """All t-root spaces of one parabolic designation.

    Spaces are indexed by key; iteration and serialization order is
    (key height, key) ascending, so output is deterministic.
    """

    __slots__ = (
        "designation", "rs", "spaces", "keys", "positives", "simples",
        "delta_key", "_kpows", "_troots", "_nil_sums", "_beta",
        "_form", "_proj", "_pairings", "_pos_pairings",
    )

    def __init__(self, des: ParabolicDesignation):
        rs = des.rs
        self.designation = des
        self.rs = rs
        D = des.deleted0
        kept = sum(1 << k for k in des.kept0)
        steps = rs.step_table()
        positives = rs.positives
        n_pos = len(positives)

        groups: dict[Key, list[int]] = {}
        for i, phi in enumerate(positives):
            key = tuple([phi[d] for d in D])
            if any(key):
                groups.setdefault(key, []).append(i)

        spaces: dict[Key, TRootSpace] = {}
        for key, members in groups.items():
            # no kept simple step up from the highest weight, none down from
            # the lowest; the steps down from root i are those up from i + n_pos
            hw = [i for i in members if not steps[i] & kept]
            lw = [i for i in members if not steps[i + n_pos] & kept]
            if len(hw) != 1 or len(lw) != 1:
                raise IrreducibilityViolation(
                    f"space {key} has {len(hw)} highest / {len(lw)} lowest weight roots"
                )
            top, bottom = hw[0], lw[0]
            # positives are in (height, lex) order, so the group is too, and
            # negation reverses that order
            spaces[key] = TRootSpace(key, tuple(members), top, bottom, rs.indexed)
            neg_key = tuple(-c for c in key)
            spaces[neg_key] = TRootSpace(
                neg_key, tuple([i + n_pos for i in reversed(members)]),
                bottom + n_pos, top + n_pos, rs.indexed,
            )

        order = sorted(spaces, key=lambda k: (sum(k), k))
        self.spaces = {k: spaces[k] for k in order}
        self.keys = tuple(order)
        self.positives = tuple(k for k in order if all(c >= 0 for c in k))
        width = len(D)
        self.simples = tuple(
            tuple(1 if i == a else 0 for i in range(width)) for a in range(width)
        )
        for s in self.simples:
            if s not in self.spaces:  # alpha_j itself restricts to the unit key
                raise IrreducibilityViolation(f"unit key {s} missing from t-root set")
        delta = [0] * width
        for k in self.positives:
            dim = self.spaces[k].dim
            for i, c in enumerate(k):
                delta[i] += dim * c
        self.delta_key = tuple(delta)
        self._kpows = rs._pows[:width]
        self._troots = None
        self._nil_sums = None
        self._beta = None
        self._form = None
        self._pairings = {}
        self._pos_pairings = None

    # -- key arithmetic -------------------------------------------------

    def key_enc(self, key: Key) -> int:
        return sum(map(mul, key, self._kpows))

    def key_index(self) -> dict[int, Key]:
        """Each t-root by its integer encoding, read from ``keys`` on first use.

        Keys are bounded by the marks of the deleted nodes, and the encoding
        is collision-free up to twice that bound, so the encoding of a sum
        or difference of two t-roots is in the index exactly when the
        sum or difference is a t-root.
        """
        if self._troots is None:
            self._troots = {self.key_enc(k): k for k in self.keys}
        return self._troots

    def is_troot(self, key) -> bool:
        return tuple(key) in self.spaces

    def space(self, key) -> TRootSpace:
        return self.spaces[tuple(key)]

    # -- exact geometry ---------------------------------------------------

    def scaled_form(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``(det, Gs)``: the t-root form as an integer matrix and its scale.

        With K the kept and D the deleted nodes, the exact t-root Gram is
        the Schur complement S = G_DD - G_DK G_KK^-1 G_KD.  One fraction-free
        Jordan elimination of the Gram matrix, kept nodes first, leaves
        Gs = det * S in the deleted block, with det = det(G_KK) > 0 since
        G_KK is positive definite; so Gs is an integer matrix with the
        signs of the exact form.  The kept rows of the deleted columns hold
        det * G_KK^-1 G_KD, which ``_betas`` reads.  Built on first use.
        """
        if self._form is None:
            K = self.designation.kept0
            order = K + self.designation.deleted0
            gram = self.rs.gram
            rows = [[gram[a][b] for b in order] for a in order]
            k = len(K)
            rank, det, _ = exactlin.eliminate(rows, k, jordan=True)
            if rank != k or det <= 0:
                raise AssertionError("the kept Gram block is not positive definite")
            self._form = det, tuple(tuple(row[k:]) for row in rows[k:])
            self._proj = tuple(row[k:] for row in rows[:k])
        return self._form

    def _betas(self) -> tuple[RatVec, ...]:
        # the deleted simple roots projected away from the kept span:
        # beta_j = alpha_j - sum over kept a of (G_KK^-1 G_KD)[a][j] alpha_a
        if self._beta is None:
            det = self.scaled_form()[0]
            beta = []
            for t, j in enumerate(self.designation.deleted0):
                vec = [Fraction(0)] * self.rs.rank
                vec[j] = Fraction(1)
                for a, row in zip(self.designation.kept0, self._proj):
                    vec[a] = Fraction(-row[t], det)
                beta.append(tuple(vec))
            self._beta = tuple(beta)
        return self._beta

    def troot_vec(self, key: Sequence[int]) -> RatVec:
        """Rational vector of a key combination, in simple-root coordinates."""
        out = [Fraction(0)] * self.rs.rank
        for c, b in zip(key, self._betas()):
            if c:
                for i, v in enumerate(b):
                    if v:
                        out[i] += c * v
        return tuple(out)

    def inner(self, k1: Sequence[int], k2: Sequence[int]) -> Fraction:
        """Exact pairing of two key combinations under the ambient form."""
        return Fraction(sum(map(mul, k1, self._pairing(tuple(k2)))), self.scaled_form()[0])

    def _pairing(self, key: Key) -> tuple[int, ...]:
        # integer vector Gs . key, memoized per key
        cached = self._pairings.get(key)
        if cached is None:
            cached = tuple(sum(map(mul, row, key)) for row in self.scaled_form()[1])
            self._pairings[key] = cached
        return cached

    def positive_pairings(self) -> list[int]:
        """Scaled integer pairings of the positive t-roots, row by row.

        With p positive t-roots, entry ``i * p + j`` pairs ``positives[i]``
        with ``positives[j]``: a fixed positive multiple of ``inner``, so
        it has the same sign.  Built on first use; by bilinearity the row
        of a key one unit step above a positive key is that key's row plus
        the unit key's row, and any other row takes p dot products.  One
        flat list, not p row lists, is kept.
        """
        if self._pos_pairings is None:
            pos, pows = self.positives, self._kpows
            rows: dict[int, list[int]] = {}
            table: list[int] = []
            for key in pos:  # by height, so the key one step below comes first
                e = self.key_enc(key)
                for a in range(len(key)):
                    below, unit = rows.get(e - pows[a]), rows.get(pows[a])
                    if below is not None and unit is not None:
                        row = list(map(add, below, unit))
                        break
                else:
                    form = self._pairing(key)
                    row = [sum(map(mul, nu, form)) for nu in pos]
                rows[e] = row
                table += row
            self._pos_pairings = table
        return self._pos_pairings

    def inner_sign(self, k1: Sequence[int], k2) -> int:
        """Sign of the pairing, read on the integer form ``scaled_form``."""
        s = sum(map(mul, k1, self._pairing(tuple(k2))))
        return (s > 0) - (s < 0)

    # -- serialization ----------------------------------------------------

    def document(self) -> dict:
        """Versioned JSON-ready description (see docs/schemas.md)."""
        des = self.designation
        return {
            "schema": "leviroots.trootsystem/1",
            "type": str(self.rs.stype) if self.rs.stype else None,
            "rank": self.rs.rank,
            "kept": sorted(des.kept),
            "deleted": list(des.deleted),
            "spaces": [
                {
                    "key": list(sp.key),
                    "dim": sp.dim,
                    "roots": [list(r) for r in sp.roots],
                    "highest": list(sp.highest),
                    "lowest": list(sp.lowest),
                }
                for sp in self.spaces.values()
            ],
            "simples": [list(k) for k in self.simples],
            "trace_vector": [exactlin.rat_str(v) for v in nilradical_trace(self)],
        }

    def __repr__(self) -> str:
        return (f"TRootSystem({self.designation!r}, "
                f"{len(self.keys)} t-roots)")


def troot_system(des: ParabolicDesignation) -> TRootSystem:
    """Group the roots by key and certify every space irreducible."""
    return TRootSystem(des)


def troot_coroot(trsys: TRootSystem, nu) -> RatVec:
    """The covector 2*nu/(nu,nu), in simple-root coordinates."""
    key = tuple(nu)
    if not trsys.is_troot(key):
        raise InvalidPair(f"{key} is not a t-root here")
    norm = trsys.inner(key, key)
    return tuple(2 * v / norm for v in trsys.troot_vec(key))


def nilradical_trace(trsys: TRootSystem) -> RatVec:
    """Covector representing x -> trace(ad x | nilradical) on the center.

    Equals the dimension-weighted sum of the positive t-roots; it pairs
    strictly positively with every positive t-root.
    """
    return trsys.troot_vec(trsys.delta_key)


def _troot_pair(trsys: TRootSystem, mu, nu) -> tuple[Key, Key]:
    km, kn = tuple(mu), tuple(nu)
    if not (trsys.is_troot(km) and trsys.is_troot(kn)):
        raise InvalidPair("both arguments must be t-roots of this system")
    return km, kn


def bracket_image(trsys: TRootSystem, mu, nu) -> tuple[Root, ...]:
    """Root set of [g_mu, g_nu]: all root sums phi + phi'.

    Equals the full root set of g_{mu+nu} when mu+nu is a t-root and is
    empty otherwise.  Rejects mu + nu = 0, where the bracket lands in
    the Levi factor instead of a t-root space.
    """
    km, kn = _troot_pair(trsys, mu, nu)
    if all(a + b == 0 for a, b in zip(km, kn)):
        raise InvalidPair("mu + nu = 0: the bracket lands in the Levi factor")
    rs = trsys.rs
    got = rs.sum_table().sums(trsys.spaces[km].numbers, trsys.spaces[kn].mask)
    return tuple(sorted(rs.roots_of(got), key=lambda r: (sum(r), r)))


class SignRuleReport(NamedTuple):
    mu: Key
    nu: Key
    inner_sign: int
    ok: bool
    failures: tuple[str, ...]


def sign_rule_failures(mu: Key, emu: int, nus: Sequence[Key], encs: Sequence[int],
                       signs: Sequence[int], troots: dict[int, Key]) -> list[str]:
    """The sign rule for mu against each nu of a row, read on encodings.

    ``emu`` and ``encs`` encode mu and the nus, ``signs`` has the sign of
    each (mu, nu), and ``troots`` is ``TRootSystem.key_index()``.
    Negative pairing forces mu + nu to be a t-root (when nonzero), positive
    pairing forces mu - nu (when nonzero), and zero pairing makes the two
    memberships equivalent.  Returns the failure texts.
    """
    out = []
    for nu, enu, s in zip(nus, encs, signs):
        plus, minus = emu + enu, emu - enu
        if s < 0:
            if plus and plus not in troots:
                out.append(f"({mu},{nu}) < 0 but the sum is not a t-root")
        elif s > 0:
            if minus and minus not in troots:
                out.append(f"({mu},{nu}) > 0 but the difference is not a t-root")
        elif (plus in troots) != (minus in troots):
            out.append(f"({mu},{nu}) = 0 but sum/difference membership differs")
    return out


def sign_rule_check(trsys: TRootSystem, mu, nu) -> SignRuleReport:
    """Verify the sign rule (``sign_rule_failures``) for one pair of t-roots."""
    km, kn = _troot_pair(trsys, mu, nu)
    s = trsys.inner_sign(km, kn)
    failures = tuple(sign_rule_failures(
        km, trsys.key_enc(km), (kn,), (trsys.key_enc(kn),), (s,), trsys.key_index()))
    return SignRuleReport(km, kn, s, not failures, failures)


def _as_weight_key(trsys: TRootSystem, gamma) -> Key:
    width = len(trsys.simples)
    if gamma is None:
        return (0,) * width
    key = tuple(gamma)
    if not any(key):
        return (0,) * width
    if key not in trsys.spaces:
        raise InvalidPair(f"{key} is neither zero nor a t-root here")
    return key


def string_weights(trsys: TRootSystem) -> dict[int, Key]:
    """The t-weights of the adjoint module by encoding: the t-roots and zero."""
    weights = dict(trsys.key_index())
    weights[0] = (0,) * len(trsys.simples)
    return weights


def string_reaches(trsys: TRootSystem, encs: Iterable[int]) -> dict[int, int]:
    """``RootSums.reach`` of the space at each nonzero encoding in ``encs``."""
    reach = trsys.rs.sum_table().reach
    spaces, troots = trsys.spaces, trsys.key_index()
    return {e: reach(spaces[troots[e]].numbers) for e in encs if e}


def string_walk(step: int, nu: Key, positions: Iterable[int], pairings: Iterable[int],
                weights: dict[int, Key], reaches: dict[int, int], up: int, down: int,
                out: list[str]) -> None:
    """The string law at each t-weight of ``positions`` along nu.

    Everything is read on encodings: ``step`` encodes nu and ``weights``
    is ``string_weights``; ``pairings`` gives a positive multiple of
    (x, nu) for each position x, ``reaches`` holds ``string_reaches`` of
    (at least) the nonzero positions, and ``up`` and ``down`` are the
    masks of the spaces at nu and -nu.  A position is the top of its maximal nu-run
    when x + nu is no t-weight, and the bottom when x - nu is none.  A
    singleton run must be orthogonal to nu; otherwise its top must pair
    positively and its bottom negatively with nu, and the action of g_nu
    (raising, below the top) and g_-nu (lowering, above the bottom) must
    be nonzero at every nonzero position: some root of the space there
    adds to a root of the acting space within Delta u {0}.  Appends each
    failure text to ``out``.
    """
    for x, s in zip(positions, pairings):
        raised, lowered = x + step in weights, x - step in weights
        if not (raised or lowered):
            if s:
                out.append(f"singleton string at {weights[x]} along {nu} not orthogonal")
            continue
        if not raised and s <= 0:
            out.append(f"top of string {weights[x]} along {nu} not positive")
        if not lowered and s >= 0:
            out.append(f"bottom of string {weights[x]} along {nu} not negative")
        if x:  # bracketing with the Levi factor is automatic
            if raised and not reaches[x] & up:
                out.append(f"no raising root sum at {weights[x]} along {nu}")
            if lowered and not reaches[x] & down:
                out.append(f"no lowering root sum at {weights[x]} along {nu}")


def _string_line(trsys: TRootSystem, gamma, nu) -> tuple[Key, Key, list[int]]:
    """The keys of gamma and nu, and every j, ascending, with gamma + j*nu a t-weight.

    gamma is a t-root key or None/zeros for the zero weight, nu a t-root
    key.  Read by key arithmetic over ``string_weights``: a weight w is on
    the line when w - gamma is a whole multiple of nu, coordinate by
    coordinate.
    """
    kn = tuple(nu)
    if kn not in trsys.spaces:
        raise InvalidPair(f"{kn} is not a t-root here")
    kg = _as_weight_key(trsys, gamma)
    a = next(i for i, c in enumerate(kn) if c)
    line = []
    for w in string_weights(trsys).values():
        j, r = divmod(w[a] - kg[a], kn[a])
        if not r and all(x - g == j * v for x, g, v in zip(w, kg, kn)):
            line.append(j)
    return kg, kn, sorted(line)


def troot_string(trsys: TRootSystem, gamma, nu) -> tuple[int, int]:
    """Endpoints (p, q) of the nu-string through the t-weight gamma.

    The string is the set of j with gamma + j*nu a t-weight of the
    adjoint module (a t-root or zero), as ``_string_line`` finds it.  The
    set is verified to be an interval containing 0; a violation would be
    an internal error.
    """
    kg, kn, line = _string_line(trsys, gamma, nu)
    p, q = line[0], line[-1]
    if line != list(range(p, q + 1)):
        raise AssertionError(f"t-weight string through {kg} along {kn} is not an interval")
    return p, q


class StringReport(NamedTuple):
    gamma: Key
    nu: Key
    p: int
    q: int
    ok: bool
    failures: tuple[str, ...]


def troot_string_report(trsys: TRootSystem, gamma, nu) -> StringReport:
    """The string law (``string_walk``) on the whole nu-line through gamma.

    (p, q) are its least and greatest j (``_string_line``); a gap in the
    line shows as endpoint failures at both of its edges.
    """
    kg, kn, line = _string_line(trsys, gamma, nu)
    weights = string_weights(trsys)
    eg, en = trsys.key_enc(kg), trsys.key_enc(kn)
    run = [eg + j * en for j in line]
    row = trsys._pairing(kn)
    pairings = [sum(map(mul, weights[x], row)) for x in run]
    failures: list[str] = []
    string_walk(en, kn, run, pairings, weights, string_reaches(trsys, run),
                trsys.spaces[kn].mask, trsys.spaces[tuple(-c for c in kn)].mask, failures)
    return StringReport(kg, kn, line[0], line[-1], not failures, tuple(failures))
