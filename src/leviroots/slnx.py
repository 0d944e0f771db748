"""Block form of parabolic data for the special linear family.

A composition (d_1, ..., d_k) of n carves the n-by-n matrix algebra
into a k-by-k grid of blocks.  The corresponding parabolic keeps the
simple roots inside each diagonal block and deletes the ones at the
cut points (the partial sums).  Every off-diagonal block (r, s) is one
irreducible constituent: its dimension is d_r * d_s, and its key marks
exactly the cut points separating row block r from column block s.

Everything here is derived from interval combinatorics alone so that it
can serve as an independent oracle against the general machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidComposition
from .levi import Key, ParabolicDesignation, designation, troot_system
from .rootsys import RootSystem, SimpleType, cartan_matrix, root_system


@dataclass(frozen=True)
class Composition:
    """An ordered tuple of positive block sizes, at least two blocks."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise InvalidComposition("need at least two blocks")
        if any(isinstance(p, bool) or not isinstance(p, int) or p < 1 for p in self.parts):
            raise InvalidComposition(f"parts must be positive integers: {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    def cuts(self) -> tuple[int, ...]:
        """Partial sums d_1, d_1+d_2, ..., n - d_k (the deleted nodes)."""
        out = []
        acc = 0
        for p in self.parts[:-1]:
            acc += p
            out.append(acc)
        return tuple(out)


def composition(parts) -> Composition:
    return Composition(tuple(parts))


def designation_of(comp: Composition, rs: RootSystem | None = None) -> ParabolicDesignation:
    """The parabolic on A_{n-1} whose deleted nodes are the cut points."""
    if rs is None:
        rs = root_system(SimpleType("A", comp.n - 1), max_rank=comp.n - 1)
    if rs.cartan != cartan_matrix(SimpleType("A", comp.n - 1), max_rank=comp.n - 1):
        raise InvalidComposition(
            f"composition of {comp.n} needs type A{comp.n - 1}, got {rs.stype}"
        )
    return designation(rs, deleted=comp.cuts())


@dataclass(frozen=True)
class BlockEntry:
    """One off-diagonal block: position, dimension, key, distance."""

    row: int
    col: int
    dim: int
    key: Key
    order: int
    acting_blocks: tuple[int, ...]


@dataclass(frozen=True)
class BlockTRootTable:
    comp: Composition
    entries: tuple[BlockEntry, ...]

    @property
    def count(self) -> int:
        return len(self.entries)


def block_table(comp: Composition) -> BlockTRootTable:
    """All off-diagonal blocks with dimensions and keys, from combinatorics.

    The key of block (r, s) with r < s marks the cut points q with
    r <= q <= s - 1; its mirror (s, r) negates it.  The block sees a
    nontrivial action only from diagonal blocks r and s of size > 1.
    """
    k = comp.k
    entries = []
    for r in range(1, k + 1):
        for s in range(1, k + 1):
            if r == s:
                continue
            lo, hi = min(r, s), max(r, s)
            sign = 1 if r < s else -1
            key = tuple(
                sign if lo <= q + 1 <= hi - 1 else 0 for q in range(k - 1)
            )
            acting = tuple(p for p in (r, s) if comp.parts[p - 1] > 1)
            entries.append(BlockEntry(
                r, s, comp.parts[r - 1] * comp.parts[s - 1],
                key, hi - lo, acting,
            ))
    entries.sort(key=lambda e: (e.order, e.key, e.row))
    return BlockTRootTable(comp, tuple(entries))


class CrossCheckReport:
    """Agreement record between block combinatorics and the general machinery."""

    __slots__ = ("comp", "ok", "failures", "count")

    def __init__(self, comp, ok, failures, count):
        self.comp = comp
        self.ok = ok
        self.failures = failures
        self.count = count


def crosscheck(comp: Composition, rs: RootSystem | None = None) -> CrossCheckReport:
    """Verify blocks against the restriction pipeline on A_{n-1}.

    Checks the key bijection, dimensions, the total count k(k-1), the
    distance rule order = |r - s|, and that every root of a block
    vanishes on kept nodes outside row/column blocks of size > 1 only
    when those blocks are trivial (the acting-blocks rule, checked via
    block boundaries).
    """
    des = designation_of(comp, rs)
    trsys = troot_system(des)
    table = block_table(comp)
    failures = []

    by_key = {}
    for e in table.entries:
        if e.key in by_key:
            failures.append(f"duplicate key {e.key} in block table")
        by_key[e.key] = e
    space_keys = set(trsys.spaces)
    if set(by_key) != space_keys:
        failures.append(
            f"key sets differ: {len(by_key)} blocks vs {len(space_keys)} spaces"
        )
    if len(table.entries) != comp.k * (comp.k - 1):
        failures.append("block count is not k(k-1)")
    if len(trsys.spaces) != comp.k * (comp.k - 1):
        failures.append("space count is not k(k-1)")

    # kept nodes of each diagonal block as a node mask: block b of size p
    # from matrix index first holds nodes first..first+p-2
    movers, first = {}, 1
    for b, p in enumerate(comp.parts, start=1):
        movers[b] = ((1 << (p - 1)) - 1) << (first - 1)
        first += p
    steps, n_pos = des.rs.step_table(), len(des.rs.positives)
    for key, e in by_key.items():
        space = trsys.spaces.get(key)
        if space is None:
            continue
        if space.dim != e.dim:
            failures.append(f"key {key}: dim {space.dim} != block {e.row},{e.col} dim {e.dim}")
        if sum(abs(c) for c in key) != e.order:
            failures.append(f"key {key}: order mismatch with |r - s|")
        # a diagonal block acts on (r, s) iff it is block r or s and has
        # size > 1: at root level, some kept node i inside it moves the
        # space, a +- alpha_i in Delta u {0} for a root a of it: bit i - 1 of
        # the step-table entry of a or of -a, len(positives) away
        moved = 0
        for a in space.numbers:
            moved |= steps[a] | steps[(a + n_pos) % (2 * n_pos)]
        for b in range(1, comp.k + 1):
            moves = bool(moved & movers[b])
            if moves != (b in e.acting_blocks):
                failures.append(
                    f"block {e.row},{e.col}: diagonal block {b} "
                    f"{'acts' if moves else 'is inert'} contrary to the table"
                )
    return CrossCheckReport(comp, not failures, tuple(failures), len(table.entries))


def sln_document(comp: Composition) -> dict:
    """JSON-ready description of the block table."""
    table = block_table(comp)
    return {
        "schema": "leviroots.sln/1",
        "n": comp.n,
        "blocks": list(comp.parts),
        "deleted_nodes": list(comp.cuts()),
        "troot_count": table.count,
        "spaces": [
            {
                "row": e.row,
                "col": e.col,
                "key": list(e.key),
                "dim": e.dim,
                "order": e.order,
                "acting_blocks": list(e.acting_blocks),
            }
            for e in table.entries
        ],
    }
