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

from itertools import accumulate
from operator import sub
from typing import TYPE_CHECKING

from .errors import InvalidComposition
from .rootsys import FrozenRecord, RootSystem, SimpleType, cartan_matrix, is_int, root_system

if TYPE_CHECKING:  # sln builds no t-roots, so levi is imported where it runs
    from .levi import Key, ParabolicDesignation, TRootSystem


class Composition(FrozenRecord):
    """An ordered tuple of positive block sizes, at least two blocks."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        if len(parts) < 2:
            raise InvalidComposition("need at least two blocks")
        if not all(is_int(p) and p > 0 for p in parts):
            raise InvalidComposition(f"parts must be positive integers: {parts}")
        object.__setattr__(self, "parts", parts)

    def _key(self) -> tuple[int, ...]:
        return self.parts

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    def cuts(self) -> tuple[int, ...]:
        """Partial sums d_1, d_1+d_2, ..., n - d_k (the deleted nodes)."""
        return tuple(accumulate(self.parts[:-1]))


def composition(parts) -> Composition:
    return Composition(tuple(parts))


def designation_of(comp: Composition, rs: RootSystem | None = None) -> ParabolicDesignation:
    """The parabolic on A_{n-1} whose deleted nodes are the cut points."""
    from .levi import designation

    if rs is None:
        rs = root_system(SimpleType("A", comp.n - 1), max_rank=comp.n - 1)
    if rs.cartan != cartan_matrix(SimpleType("A", comp.n - 1), max_rank=comp.n - 1):
        got = rs.stype or f"an explicit rank-{rs.rank} matrix"
        raise InvalidComposition(f"composition of {comp.n} needs type A{comp.n - 1}, got {got}")
    return designation(rs, deleted=comp.cuts())


def composition_of(des: ParabolicDesignation) -> Composition:
    """The composition whose cut points are the deleted nodes of a parabolic
    on A_{n-1}: the inverse of ``designation_of``."""
    bounds = (0, *des.deleted, des.rs.rank + 1)
    return composition(map(sub, bounds[1:], bounds))


class BlockEntry:
    """One off-diagonal block: position, dimension, key, distance."""

    __slots__ = ("row", "col", "dim", "key", "order", "acting_blocks")

    def __init__(self, row: int, col: int, dim: int, key: Key, order: int,
                 acting_blocks: tuple[int, ...]):
        self.row = row
        self.col = col
        self.dim = dim
        self.key = key
        self.order = order
        self.acting_blocks = acting_blocks


def block_table(comp: Composition) -> tuple[BlockEntry, ...]:
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
    return tuple(entries)


def crosscheck(trsys: TRootSystem) -> tuple[str, ...]:
    """Verify the block table of a parabolic on A_{n-1} against its t-root
    system, and return the failure texts (none when they agree).

    Checks that the block keys are exactly the t-root keys, that each
    space has its block's dimension, and the acting-blocks rule: a
    diagonal block moves the space of block (r, s) exactly when it is
    block r or s and has size > 1.  The table's own shape (k(k-1)
    distinct keys, order = |r - s|) holds by construction.  A system
    whose Cartan matrix is not type A raises ``InvalidComposition``, as
    ``designation_of`` does.
    """
    comp = composition_of(trsys.designation)
    designation_of(comp, trsys.rs)
    failures = []

    by_key = {e.key: e for e in block_table(comp)}
    space_keys = set(trsys.spaces)
    if set(by_key) != space_keys:
        failures.append(
            f"key sets differ: {len(by_key)} blocks vs {len(space_keys)} spaces"
        )

    # M_b, the roots that a kept node of diagonal block b raises: block b of
    # size p from matrix index first holds nodes first..first+p-2.  Block b
    # moves a space when M_b or its mirror (the roots it lowers) meets it
    rs, movers, first = trsys.rs, {}, 1
    reach = rs.sum_table().reach
    for b, p in enumerate(comp.parts, start=1):
        raised = reach(rs.simple_mask(range(first - 1, first + p - 2)))
        movers[b] = raised | rs.mirror(raised)
        first += p
    for key, e in by_key.items():
        space = trsys.spaces.get(key)
        if space is None:
            continue
        if space.bit_count() != e.dim:
            failures.append(f"key {key}: dim {space.bit_count()} != block {e.row},{e.col} dim {e.dim}")
        for b in range(1, comp.k + 1):
            moves = bool(space & movers[b])
            if moves != (b in e.acting_blocks):
                failures.append(
                    f"block {e.row},{e.col}: diagonal block {b} "
                    f"{'acts' if moves else 'is inert'} contrary to the table"
                )
    return tuple(failures)


def sln_document(comp: Composition) -> dict:
    """JSON-ready description of the block table."""
    entries = block_table(comp)
    return {
        "schema": "leviroots.sln/1",
        "n": comp.n,
        "blocks": list(comp.parts),
        "deleted_nodes": list(comp.cuts()),
        "troot_count": len(entries),
        "spaces": [
            {
                "row": e.row,
                "col": e.col,
                "key": list(e.key),
                "dim": e.dim,
                "order": e.order,
                "acting_blocks": list(e.acting_blocks),
            }
            for e in entries
        ],
    }
