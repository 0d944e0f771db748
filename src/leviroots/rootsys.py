"""Root systems of the simple Lie algebras, generated from Cartan data.

Roots live in a single universal coordinate system: the integer
coefficient vector over the simple roots, as a plain tuple.  Node
numbering follows Bourbaki (1-based at the API and CLI surface), and
Cartan matrices are stored in the column convention
``a[i][j] = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j)``, the one printed
in the standard tables.  See docs/conventions.md for the full table.

The invariant bilinear form is the symmetrized Cartan form
``G = A . diag(d)`` with minimal positive integer symmetrizers ``d``;
it agrees with the Killing form restricted to the Cartan subalgebra up
to one positive scalar per simple algebra, so sign and integrality
statements are normalization-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from math import gcd
from operator import mul

from .errors import InvalidCartan, InvalidRank, NotFiniteType

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


@dataclass(frozen=True, order=True)
class SimpleType:
    """One of the simple types A1..G2, e.g. SimpleType('E', 8)."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _RANK_RANGE:
            raise InvalidRank(f"unknown family {self.family!r}")
        lo, hi = _RANK_RANGE[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise InvalidRank(f"{self.family}{self.rank} is not a simple type")

    @classmethod
    def parse(cls, text: str) -> "SimpleType":
        text = text.strip()
        if len(text) < 2 or text[0].upper() not in _RANK_RANGE or not text[1:].isdigit():
            raise InvalidRank(f"cannot parse simple type from {text!r}")
        return cls(text[0].upper(), int(text[1:]))

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
    vals: list[Fraction | None] = [None] * n
    vals[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if i == j or cartan[i][j] == 0:
                continue
            ratio = Fraction(cartan[j][i], cartan[i][j])  # d_j / d_i
            want = vals[i] * ratio
            if vals[j] is None:
                vals[j] = want
                queue.append(j)
            elif vals[j] != want:
                raise InvalidCartan("matrix is not symmetrizable")
    if any(v is None for v in vals):
        raise InvalidCartan("matrix is decomposable")
    denom_lcm = 1
    for v in vals:
        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    ints = [int(v * denom_lcm) for v in vals]
    g = 0
    for x in ints:
        g = gcd(g, x)
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
            if isinstance(x, bool) or not isinstance(x, int):
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

    __slots__ = ("adjz", "_encs", "_enc_index")

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

    def reach(self, indices) -> int:
        """Bitmask of the roots that add to some root i in indices within Delta u {0}."""
        adjz = self.adjz
        out = 0
        for i in indices:
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


class RootSystem:
    """An irreducible finite root system with its exact bilinear form.

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
        "_enc_index", "_sums", "_steps",
    )

    def __init__(self, stype, cartan, d, positives):
        self.stype = stype
        self.rank = len(cartan)
        self.cartan = cartan
        self.d = d
        self.gram = tuple(
            tuple(cartan[i][j] * d[j] for j in range(self.rank)) for i in range(self.rank)
        )
        self.positives = positives
        self.indexed = positives + tuple(tuple(-c for c in r) for r in positives)
        self.index = {r: i for i, r in enumerate(self.indexed)}
        self.roots = frozenset(self.indexed)
        self.highest_root = positives[-1]
        if len(positives) > 1 and sum(positives[-2]) == sum(positives[-1]):
            raise NotFiniteType("highest root is not unique; matrix is not irreducible")
        self.marks = self.highest_root
        # integer encoding: collision-free for coordinate vectors bounded by 2*max(marks)
        base = 4 * max(self.marks) + 1
        self._pows = tuple(base ** i for i in range(self.rank))
        pos_encs = [self.encode(r) for r in positives]
        self._encs = tuple(pos_encs + [-e for e in pos_encs])
        self._enc_index = {e: i for i, e in enumerate(self._encs)}
        self._sums = None
        self._steps = None

    # -- basic queries ------------------------------------------------

    def encode(self, coeffs) -> int:
        """Positional integer encoding of a coefficient vector."""
        return sum(map(mul, coeffs, self._pows))

    def sum_table(self) -> RootSums:
        """The root-sum table, built on first use and kept."""
        if self._sums is None:
            self._sums = RootSums(self)
        return self._sums

    def step_table(self) -> list[int]:
        """Per root, the simple steps that stay in Delta u {0}, built on first use.

        Bit k of entry i is set when ``indexed[i] + alpha_(k+1)`` is a root
        or zero.  A root and its negative are ``len(positives)`` apart, so
        the steps down from root i are the entry of its negative.
        """
        if self._steps is None:
            hits = self._enc_index
            self._steps = [
                sum(1 << k for k, s in enumerate(self._pows) if e + s in hits or e == -s)
                for e in self._encs
            ]
        return self._steps

    def roots_of(self, mask: int) -> tuple[Root, ...]:
        """The roots in a bitmask, in numbering order."""
        return tuple(compress(self.indexed, _bit_flags(mask)))

    def form(self, v, w):
        """Symmetrized Cartan form of two coefficient vectors.

        Exact: integer for integer vectors, Fraction otherwise.
        """
        gram = self.gram
        total = 0
        for i, vi in enumerate(v):
            if vi == 0:
                continue
            row = gram[i]
            acc = 0
            for j, wj in enumerate(w):
                if wj != 0:
                    acc += row[j] * wj
            total += vi * acc
        return total

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

    Breadth-first root-string closure: a positive root phi extends by
    the simple root alpha_i exactly when the string bound
    q = p - <phi, alpha_i^vee> is positive, where p counts the steps
    already available downward.  All arithmetic is integer.

    Raises NotFiniteType when closure overruns the classical root-count
    bound for the rank, and InvalidCartan for malformed input.
    """
    cartan = _validate_cartan(cartan)
    d = symmetrizers(cartan)  # also rejects decomposable/unsymmetrizable
    n = len(cartan)
    bound = _max_positive_count(n)

    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    known: set[Root] = set(simples)
    level = list(simples)
    positives: list[Root] = list(simples)
    height = 1
    while level:
        height += 1
        if height > 2 * bound:
            raise NotFiniteType("root-string closure did not terminate")
        nxt: set[Root] = set()
        for phi in level:
            for i in range(n):
                # pairing <phi, alpha_i^vee> = sum_j phi_j * a[j][i]
                c = sum(phi[j] * cartan[j][i] for j in range(n) if phi[j])
                # p = steps down the alpha_i string that are already roots
                p = 0
                cur = list(phi)
                while True:
                    cur[i] -= 1
                    if cur[i] < 0 or tuple(cur) not in known:
                        break
                    p += 1
                if p - c >= 1:
                    up = list(phi)
                    up[i] += 1
                    nxt.add(tuple(up))
        fresh = [r for r in nxt if r not in known]
        known.update(fresh)
        positives.extend(fresh)
        if len(positives) > bound:
            raise NotFiniteType(
                f"closure produced more than {bound} positive roots at rank {n}"
            )
        level = fresh
    positives.sort(key=lambda r: (sum(r), r))
    if any(c <= 0 for c in positives[-1]):
        raise NotFiniteType("highest root has a zero coefficient; matrix is decomposable")
    return RootSystem(stype, cartan, d, tuple(positives))


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
