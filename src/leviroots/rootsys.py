"""Root systems of the simple Lie algebras, generated from Cartan data.

Roots live in a single universal coordinate system: the integer
coefficient vector over the simple roots, as a plain tuple.  Node
numbering follows Bourbaki (1-based at the API and CLI surface), and
Cartan matrices are stored in the column convention
``a[i][j] = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j)``, the one printed
in the standard tables.  See docs/conventions.md for the full table.

Root sets are bitmasks over one numbering of the roots (``indexed``),
the weight certificate's raising masks too, read from the sum table.

The invariant bilinear form is the symmetrized Cartan form
``G = A . diag(d)`` with minimal positive integer symmetrizers ``d``;
it agrees with the Killing form restricted to the Cartan subalgebra up
to one positive scalar per simple algebra, so sign and integrality
statements are normalization-free.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import compress, count
from math import gcd, lcm
from operator import add, gt, mul

from .errors import InvalidCartan, InvalidDesignation, InvalidRank, NotFiniteType

Root = tuple[int, ...]
CartanMatrix = tuple[tuple[int, ...], ...]

FAMILIES = "ABCDEFG"

#: Inclusive rank ranges per family; None means unbounded above.
_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

#: Ranks above this are rejected by default to keep closure honest-sized.
DEFAULT_MAX_RANK = 12


def decimal(text: str) -> int | None:
    """The number that text spells in ASCII decimal digits, else None: never
    '0_2', ' 2' or '٣' (which ``int`` reads) or '²' (``str.isdigit``)."""
    return int(text) if text.isascii() and text.isdigit() else None


def is_int(x) -> bool:
    """The one integer rule of every input: an int, not a bool (nor 2.0)."""
    return isinstance(x, int) and not isinstance(x, bool)


def node_set(rank: int, nodes: Iterable[int]) -> frozenset[int]:
    """The node numbers as a set, each an int in 1..rank named once: the one
    check of the nodes that designations and the extended diagram take."""
    nodes = tuple(nodes)
    for k in nodes:
        if not is_int(k):
            raise InvalidDesignation(f"node index {k!r} is not an integer")
    out = frozenset(nodes)
    if len(out) < len(nodes):
        twice = sorted({k for k in nodes if nodes.count(k) > 1})
        raise InvalidDesignation(f"node indices named twice: {twice}")
    bad = sorted(k for k in out if not 1 <= k <= rank)
    if bad:
        raise InvalidDesignation(f"node indices out of range: {bad}")
    return out


class FrozenRecord:
    """Base of the immutable value records: fields are set once, by
    ``__init__``, and the record is equal and hashed by ``_key()``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class SimpleType(FrozenRecord):
    """One of the simple types A1..G2, e.g. SimpleType('E', 8).

    Ordered by (family, rank), the one order in which ``sorted`` lists
    types, as ``bds.DiagramClass`` does.
    """

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        if family not in _RANK_RANGE:
            raise InvalidRank(f"unknown family {family!r}")
        if not is_int(rank):
            raise InvalidRank(f"rank {rank!r} is not an integer")
        lo, hi = _RANK_RANGE[family]
        if rank < lo or (hi is not None and rank > hi):
            raise InvalidRank(f"{family}{rank} is not a simple type")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    def _key(self) -> tuple[str, int]:
        return self.family, self.rank

    def __lt__(self, other):
        return self._key() < other._key() if isinstance(other, SimpleType) else NotImplemented

    def __repr__(self) -> str:
        return f"SimpleType({self.family!r}, {self.rank})"

    @classmethod
    def parse(cls, text: str) -> "SimpleType":
        text = text.strip()
        rank = decimal(text[1:])
        if rank is None or text[:1].upper() not in _RANK_RANGE:
            raise InvalidRank(f"cannot parse simple type from {text!r}")
        return cls(text[0].upper(), rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _chain(rank: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    return a


def cartan_matrix(stype: SimpleType, max_rank: int = DEFAULT_MAX_RANK) -> CartanMatrix:
    """Bourbaki Cartan matrix of a simple type (column convention)."""
    n = stype.rank
    if n > max_rank:
        raise InvalidRank(f"rank {n} exceeds the configured maximum {max_rank}")
    fam = stype.family
    a = _chain(n)
    if fam == "B":
        # last simple root short
        a[n - 2][n - 1] = -2
    elif fam == "C":
        # last simple root long
        a[n - 1][n - 2] = -2
    elif fam == "D":
        a[n - 2][n - 1] = a[n - 1][n - 2] = 0
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
    elif fam == "E":
        # chain 1-3-4-5-..-n with node 2 hanging off node 4
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]
        for i, j in edges:
            if i <= n and j <= n:
                a[i - 1][j - 1] = a[j - 1][i - 1] = -1
    elif fam == "F":
        # nodes 1,2 long; 3,4 short
        a[1][2] = -2
    elif fam == "G":
        # node 1 short, node 2 long
        a[1][0] = -3
    return tuple(tuple(row) for row in a)


def symmetrizers(cartan: CartanMatrix) -> tuple[int, ...]:
    """Minimal positive integers d with a[i][j]*d[j] == a[j][i]*d[i].

    d[i] is proportional to half the square length of the i-th simple
    root, so G = A.diag(d) is the integer Gram matrix of the form.
    """
    n = len(cartan)
    # d_j / d_0 as num[j] / den[j], in integers; den[j] is 0 until j is reached
    num, den = [0] * n, [0] * n
    num[0] = den[0] = 1
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if i == j or cartan[i][j] == 0:
                continue
            # d_j = d_i * a[j][i] / a[i][j]
            p, q = num[i] * cartan[j][i], den[i] * cartan[i][j]
            if not den[j]:
                num[j], den[j] = p, q
                queue.append(j)
            elif num[j] * q != p * den[j]:
                raise InvalidCartan("matrix is not symmetrizable")
    if not all(den):
        raise InvalidCartan("matrix is decomposable")
    scale = lcm(*den)
    ints = [p * (scale // q) for p, q in zip(num, den)]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _validate_cartan(cartan) -> CartanMatrix:
    # the one check of Cartan input, for generate and classify, returned as
    # a tuple of rows; entry types come first, so no later test lets 2.0
    # pass for 2 or True for 1.  Decomposable matrices pass: symmetrizers
    # rejects them
    try:
        cartan = tuple(tuple(row) for row in cartan)
    except TypeError:
        raise InvalidCartan("the matrix must be a sequence of rows") from None
    for i, row in enumerate(cartan):
        for j, x in enumerate(row):
            if not is_int(x):
                raise InvalidCartan(f"entry a[{i}][{j}] = {x!r} is not an integer")
    n = len(cartan)
    if n == 0:
        raise InvalidCartan("empty matrix")
    if any(len(row) != n for row in cartan):
        raise InvalidCartan("matrix is not square")
    for i, row in enumerate(cartan):
        if row[i] != 2:
            raise InvalidCartan(f"diagonal entry a[{i}][{i}] != 2")
        for j, x in enumerate(row):
            if i != j:
                if x > 0:
                    raise InvalidCartan(f"off-diagonal a[{i}][{j}] must be a nonpositive integer")
                if (x == 0) != (cartan[j][i] == 0):
                    raise InvalidCartan(f"zero pattern not symmetric at ({i},{j})")
    return cartan


def _max_positive_count(rank: int) -> int:
    # largest number of positive roots any simple type of this rank has
    special = {2: 6, 4: 24, 6: 36, 7: 63, 8: 120}
    return max(rank * rank, special.get(rank, 0))


def _bit_flags(mask: int):
    # one flag per bit of a nonnegative int, least significant first
    return map("1".__eq__, bin(mask)[:1:-1])


def mask_bits(mask: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, ascending."""
    return list(compress(count(), _bit_flags(mask)))


class RootSums:
    """Which roots add up to which, for one root system.

    Roots are numbered once per system (see ``RootSystem.indexed``):
    the positives first, then their negatives in the same order, so a
    root and its negative are ``len(positives)`` apart.  ``adjz[i]`` is
    the bitmask of the roots ``j`` with ``root_i + root_j`` in
    ``Delta u {0}``; the sum itself is found by adding the two integer
    encodings.  Root sets are Python-int bitmasks over the numbering.
    """

    __slots__ = ("adjz", "_encs", "_enc_index", "_pos_sums")

    def __init__(self, rs: "RootSystem"):
        encs = rs._encs
        enc_index = rs._enc_index
        size = len(encs)
        n_pos = size // 2
        adjz = [1 << (i + n_pos if i < n_pos else i - n_pos) for i in range(size)]
        # each unordered pair once; a sum is a root iff its encoding is one
        for i in range(size):
            ei = encs[i]
            row = 0
            for j in range(i + 1, size):
                if ei + encs[j] in enc_index:
                    row |= 1 << j
                    adjz[j] |= 1 << i
            adjz[i] |= row
        self.adjz = adjz
        self._encs = encs
        self._enc_index = enc_index
        self._pos_sums = None

    def reach(self, mask: int) -> int:
        """Bitmask of the roots that add to some root of mask within Delta u {0}."""
        adjz = self.adjz
        out = 0
        while mask:
            i = mask.bit_length() - 1
            mask ^= 1 << i
            out |= adjz[i]
        return out

    def sums(self, indices, mask: int) -> int:
        """Bitmask of the roots ``root_i + root_j``, i in indices, j in mask."""
        adjz, encs, get = self.adjz, self._encs, self._enc_index.get
        out = 0
        for i in indices:
            m = adjz[i] & mask
            ei = encs[i]
            while m:
                j = m.bit_length() - 1
                m ^= 1 << j
                k = get(ei + encs[j])
                if k is not None:  # None: the pair cancels to zero
                    out |= 1 << k
        return out

    def positive_sums(self) -> list[int]:
        """Per positive root phi, the roots ``phi + psi`` with psi positive.

        Entry phi is ``sums((phi,), mask of the positives)``; built on first
        use and kept.  For a set S of positive roots, ``sums((phi,), S)`` is
        the entry with the sums of phi over the other positives taken out:
        translation by phi is injective, so the two sum sets are disjoint.
        """
        if self._pos_sums is None:
            n_pos = len(self._encs) // 2
            positive = (1 << n_pos) - 1
            self._pos_sums = [self.sums((phi,), positive) for phi in range(n_pos)]
        return self._pos_sums


class RootSystem:
    """An irreducible finite root system with its exact bilinear form.

    ``generate`` builds it and hands over its keys of the positives, which
    are the one root encoding (``encode``); the constructor encodes nothing.

    Attributes
    ----------
    stype : SimpleType or None (None when built from an explicit matrix
        whose classification the caller did not supply)
    cartan : Cartan matrix (column convention)
    d : integer symmetrizers, d[i] = half square length of alpha_i
    gram : integer Gram matrix of the simple roots, gram[i][j] = a[i][j]*d[j]
    positives : positive roots sorted by (height, lex)
    roots : frozenset of all roots
    indexed : every root by its number: the positives, then their negatives
    index : root -> its number in ``indexed``
    highest_root : the unique root of maximal height
    marks : coefficients of the highest root
    """

    __slots__ = (
        "stype", "rank", "cartan", "d", "gram", "positives", "roots",
        "indexed", "index", "highest_root", "marks", "_pows", "_encs",
        "_enc_index", "_sums", "_columns", "_coef_masks",
    )

    def __init__(self, stype, cartan, d, positives, encs, pows):
        self.stype = stype
        self.rank = len(cartan)
        self.cartan = cartan
        self.d = d
        self.gram = tuple(
            tuple(cartan[i][j] * d[j] for j in range(self.rank)) for i in range(self.rank)
        )
        self.positives = positives
        self.indexed = positives + tuple([tuple([-c for c in r]) for r in positives])
        self.index = {r: i for i, r in enumerate(self.indexed)}
        self.roots = frozenset(self.indexed)
        self.highest_root = self.marks = positives[-1]
        # generate's keys of the positives, and the powers of its base
        self._pows = pows
        self._encs = encs + tuple([-e for e in encs])
        self._enc_index = {e: i for i, e in enumerate(self._encs)}
        self._sums = None
        self._columns = None
        self._coef_masks = None

    # -- basic queries ------------------------------------------------

    def encode(self, coeffs) -> int:
        """The key of a coefficient vector, as ``generate`` keys a root.

        Its digits are the coefficients in base 2*bound + 2, alpha_1 the
        lowest, so a key's digits stop at its width.  The encoding adds, and
        it is injective on vectors whose entries differ by less than the
        base.  That covers every sum or difference of two roots or of two
        t-root keys: their entries are at most twice the largest mark, and
        from rank 2 on the base exceeds four times the largest mark.
        """
        return sum(map(mul, coeffs, self._pows))

    def sum_table(self) -> RootSums:
        """The root-sum table, built on first use and kept."""
        if self._sums is None:
            self._sums = RootSums(self)
        return self._sums

    def simple_mask(self, nodes) -> int:
        """The mask of the simple roots alpha_(k+1), k in some 0-based nodes.

        ``sum_table().reach`` of it is the raising mask of those roots."""
        mask = 0
        for k in nodes:
            mask |= 1 << self.index[(0,) * k + (1,) + (0,) * (self.rank - 1 - k)]
        return mask

    def mirror(self, mask: int) -> int:
        """The negatives of the roots in mask: the two halves of the numbering swapped."""
        n_pos = len(self.positives)
        return mask >> n_pos | (mask & (1 << n_pos) - 1) << n_pos

    def weight_certificate(self, mask: int, raised: int) -> tuple[int, int]:
        """The highest and the lowest weight roots of mask, as two masks.

        ``raised`` holds the roots that a raising set moves within Delta u {0}
        and its mirror those that the lowering set moves; mask spans an
        irreducible module when each extreme is one root.
        """
        return mask & ~raised, mask & ~self.mirror(raised)

    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The positives transposed, built on first use: ``columns()[k][i]``
        is the coefficient of alpha_(k+1) in ``positives[i]``."""
        if self._columns is None:
            self._columns = tuple(zip(*self.positives))
        return self._columns

    def coefficient_masks(self) -> tuple[dict[int, int], ...]:
        """Per node k, each coefficient value c -> the mask of the positive
        roots whose coefficient of alpha_(k+1) is c.  Built on first use."""
        if self._coef_masks is None:
            out = []
            for column in self.columns():
                masks: dict[int, int] = {}
                for i, c in enumerate(column):
                    masks[c] = masks.get(c, 0) | 1 << i
                out.append(masks)
            self._coef_masks = tuple(out)
        return self._coef_masks

    def roots_of(self, mask: int) -> tuple[Root, ...]:
        """The roots in a bitmask, in numbering order."""
        return tuple(compress(self.indexed, _bit_flags(mask)))

    # -- serialization ------------------------------------------------

    def document(self) -> dict:
        """Versioned JSON-ready description (see docs/schemas.md)."""
        return {
            "schema": "leviroots.rootsystem/1",
            "type": str(self.stype) if self.stype else None,
            "rank": self.rank,
            "cartan": [list(row) for row in self.cartan],
            "d": list(self.d),
            "count": len(self.roots),
            "positives": [list(r) for r in self.positives],
            "highest_root": list(self.highest_root),
            "marks": list(self.marks),
        }

    def __repr__(self) -> str:
        name = str(self.stype) if self.stype else f"rank-{self.rank}"
        return f"RootSystem({name}, {len(self.roots)} roots)"


def generate(cartan, stype: SimpleType | None = None) -> RootSystem:
    """Generate the full root system from an indecomposable Cartan matrix.

    Breadth-first root-string closure, one height at a time: a positive
    root phi extends by the simple root alpha_i exactly when the string
    bound q = p_i - <phi, alpha_i^vee> is positive, where the depth p_i
    counts the steps down the alpha_i string that are already roots.
    Each root carries both from one step below: its pairings are those of
    the root it extends plus row i of the matrix, and p_i is one more
    than the depth of phi - alpha_i when that is a root, else 0.  Roots
    are keyed by their base-(2*bound + 2) encoding, alpha_1 the lowest
    digit: no coefficient exceeds the height cap 2*bound, so no digit
    carries and a step along alpha_i adds one power of the base.  Each
    height is sorted by coefficient tuple, so the positives come in
    (height, lex) order.  The keys and the powers of the base go into the
    ``RootSystem`` as its one root encoding (``RootSystem.encode``).  All
    arithmetic is integer.

    Raises NotFiniteType when closure overruns the classical root-count
    bound for the rank, and InvalidCartan for malformed input.
    """
    cartan = _validate_cartan(cartan)
    d = symmetrizers(cartan)  # also rejects decomposable/unsymmetrizable
    n = len(cartan)
    bound = _max_positive_count(n)
    base = 2 * bound + 2
    steps = tuple(base ** i for i in range(n))

    # encoding -> (coefficients, pairings <phi, alpha_i^vee>, depths p_i)
    known = {
        steps[i]: (tuple(1 if j == i else 0 for j in range(n)), cartan[i], (0,) * n)
        for i in range(n)
    }
    get = known.get
    # each level by coefficient tuple, which the values lead with
    level = sorted(known, key=get)
    encs = list(level)
    positives = [known[e][0] for e in level]
    height = 1
    while level:
        height += 1
        if height > 2 * bound:  # the cap that keeps every coefficient a digit
            raise NotFiniteType("root-string closure did not terminate")
        nxt: dict[int, tuple[Root, tuple[int, ...]]] = {}
        for enc in level:
            phi, pairings, depths = known[enc]
            # q_i = p_i - <phi, alpha_i^vee> >= 1: the alpha_i string goes on
            for i in compress(range(n), map(gt, depths, pairings)):
                up = enc + steps[i]
                if up not in nxt:
                    nxt[up] = (phi[:i] + (phi[i] + 1,) + phi[i + 1:],
                               tuple(map(add, pairings, cartan[i])))
        level = sorted(nxt, key=nxt.get)
        for enc in level:
            phi, pairings = nxt[enc]
            depths = tuple(below[2][i] + 1 if (below := get(enc - step)) else 0
                           for i, step in enumerate(steps))
            known[enc] = (phi, pairings, depths)
            positives.append(phi)
        encs += level
        if len(positives) > bound:
            raise NotFiniteType(
                f"closure produced more than {bound} positive roots at rank {n}"
            )
    if any(c <= 0 for c in positives[-1]):
        raise NotFiniteType("highest root has a zero coefficient; matrix is decomposable")
    if len(positives) > 1 and sum(positives[-2]) == sum(positives[-1]):
        raise NotFiniteType("highest root is not unique; matrix is not irreducible")
    return RootSystem(stype, cartan, d, tuple(positives), tuple(encs), steps)


def root_system(name: str | SimpleType, max_rank: int = DEFAULT_MAX_RANK) -> RootSystem:
    """Convenience: build a named simple type's root system."""
    stype = name if isinstance(name, SimpleType) else SimpleType.parse(name)
    return generate(cartan_matrix(stype, max_rank=max_rank), stype)


def all_simple_types(max_rank: int) -> list[SimpleType]:
    """Every simple type of rank at most max_rank, deterministic order."""
    out = []
    for fam in FAMILIES:
        lo, hi = _RANK_RANGE[fam]
        top = min(hi if hi is not None else max_rank, max_rank)
        for r in range(lo, top + 1):
            out.append(SimpleType(fam, r))
    return out
