"""Center-weighted grading and central series of a nilradical.

The order of a positive t-root is the sum of its key entries; grading
the nilradical by order makes the central series computable in closed
form: the i-th term of the upper central series is the span of the top
i orders.  Up to indexing the upper and lower central series are one
chain (Theorem 0.2): the i-th term of the lower central series,
everything of order at least i, is the same chain read in reverse.  The
chain and its reverse are checked here against deliberately independent
brute-force oracles, one per series, that work purely on root sets and
never consult the grading.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .errors import SeriesMismatch
from .levi import Key, TRootSystem
from .rootsys import mask_bits


def grading(trsys: TRootSystem) -> dict[int, tuple[Key, ...]]:
    """The positive t-roots bucketed by order, the levels in ascending
    order, with the grading certified.

    Verifies that every order 1..k_cent is realized, k_cent the sum of
    the highest root's coefficients over the deleted nodes, and that the
    top level is the single restricted highest root.  So k_cent is the
    number of levels and the center key is the one key of the top level.
    Orders add across t-root sums by linearity of the key sum, so no
    separate additivity pass is needed.
    """
    levels: dict[int, list[Key]] = {}
    for key in trsys.positives:
        levels.setdefault(sum(key), []).append(key)
    marks = tuple(trsys.rs.marks[d] for d in trsys.designation.deleted0)
    k_cent = sum(marks)
    if sorted(levels) != list(range(1, k_cent + 1)):
        raise SeriesMismatch("grading levels are not 1..k_cent")
    if levels[k_cent] != [marks]:
        raise SeriesMismatch("top level is not the restricted highest root alone")
    return {k: tuple(v) for k, v in sorted(levels.items())}


NilSums = tuple[int, dict[int, int]]


def nilradical_sums(trsys: TRootSystem) -> NilSums:
    """The nilradical's root mask, and each of its roots' sums with n.

    For phi in n, sums[phi] is the bitmask of the roots phi + psi with psi
    in n, read from the spaces, the root-sum table and each positive root's
    deleted-node coefficients.  Take the nilradical by coefficients, N: the
    positive roots with a nonzero deleted-node coefficient.  For phi and psi
    positive, phi + psi has phi's deleted-node coefficients exactly when psi
    has none, that is, when psi is a Levi root; so when n is N, phi's row of
    ``positive_sums`` outside phi's coefficient fiber is sums[phi].  Spaces
    whose union is not N (damaged data) take the direct sums.  Computed on
    each call, from the spaces as they stand.
    """
    rs = trsys.rs
    total = reduce(or_, (trsys.spaces[key] for key in trsys.positives), 0)
    table = rs.sum_table()
    # each positive root's deleted-node coefficients, and each one's fiber
    deleted = trsys.designation.deleted0
    coeffs = list(zip(*[rs.columns()[d] for d in deleted]))
    fibers: dict[tuple[int, ...], int] = {}
    for i, c in enumerate(coeffs):
        fibers[c] = fibers.get(c, 0) | 1 << i
    positive = (1 << len(rs.positives)) - 1
    by_coeffs = positive & ~fibers.get((0,) * len(deleted), 0)
    if total != by_coeffs:
        return total, {phi: table.sums((phi,), total) for phi in mask_bits(total)}
    rows = table.positive_sums()
    return total, {phi: rows[phi] & ~fibers[coeffs[phi]] for phi in mask_bits(total)}


def lower_series_oracle(trsys: TRootSystem, nil: NilSums) -> list[int]:
    """Brute-force descending series: repeatedly bracket with all of n.

    Starts from the full nilradical root set and keeps only root sums;
    stops when bracketing kills everything.  Independent of the grading.
    ``nil`` is ``nilradical_sums(trsys)``.
    """
    total, sums = nil
    sums_with_n = trsys.rs.sum_table().sums
    chain = [total]
    while True:
        nxt = 0
        for b in mask_bits(chain[-1]):
            step = sums.get(b)
            if step is None:  # a sum that lies outside the nilradical root set
                step = sums_with_n((b,), total)
            nxt |= step
        if not nxt:
            break
        if len(chain) > total.bit_count() + 1:
            raise SeriesMismatch("lower central series did not terminate")
        chain.append(nxt)
    return chain


def upper_series_oracle(trsys: TRootSystem, nil: NilSums) -> list[int]:
    """Brute-force ascending series: iterated centers, per root vector.

    A root vector sits in the next term when bracketing with every
    nilradical root vector lands in the previous term.  Each term is
    verified to be a union of whole t-root spaces (stability under the
    Levi factor), which is what makes per-root computation exact.
    ``nil`` is ``nilradical_sums(trsys)``.
    """
    total, sums = nil
    spaces = [(key, trsys.spaces[key]) for key in trsys.positives]
    chain: list[int] = []
    prev = 0
    while prev != total:
        outside = ~prev
        cur = 0
        for phi, row in sums.items():
            if not row & outside:
                cur |= 1 << phi
        if cur == prev:  # the terms only grow, so a repeat is a fixed point
            raise SeriesMismatch("upper central series stalled")
        for key, mask in spaces:
            inside = cur & mask
            if inside and inside != mask:
                raise SeriesMismatch(f"center term splits the t-root space {key}")
        chain.append(cur)
        prev = cur
    return chain


def closed_form_series(trsys: TRootSystem, levels: dict[int, tuple[Key, ...]]) -> list[int]:
    """The central series read off the order grading ``levels``, as one chain.

    Term i of the upper central series is the span of the top i orders, a
    root mask over ``rs.indexed``.  Up to indexing the lower central
    series is the same chain (Theorem 0.2): its term i, everything of order
    at least i, is upper term k_cent + 1 - i.  Returns the upper chain,
    after comparing it with the upper oracle and its reverse with the
    lower oracle, which share one ``nilradical_sums``; SeriesMismatch is
    raised on any difference.
    """
    upper = []
    acc = 0
    for keys in reversed(levels.values()):
        for key in keys:
            acc |= trsys.spaces[key]
        upper.append(acc)
    nil = nilradical_sums(trsys)
    if upper[::-1] != lower_series_oracle(trsys, nil):
        raise SeriesMismatch("closed-form lower series disagrees with its oracle")
    if upper != upper_series_oracle(trsys, nil):
        raise SeriesMismatch("closed-form upper series disagrees with its oracle")
    return upper


def series_document(trsys: TRootSystem) -> dict:
    """Versioned JSON-ready description (see docs/schemas.md)."""
    levels = grading(trsys)
    upper = closed_form_series(trsys, levels)
    k_cent = len(levels)
    des = trsys.designation

    def root_list(term):
        # the terms hold positive roots only, and the numbering lists the
        # positives in (height, lex) order
        return [list(r) for r in trsys.rs.roots_of(term)]

    return {
        "schema": "leviroots.series/1",
        "type": str(trsys.rs.stype) if trsys.rs.stype else None,
        "rank": trsys.rs.rank,
        "kept": sorted(des.kept),
        "deleted": list(des.deleted),
        "k_cent": k_cent,
        "center_key": list(levels[k_cent][0]),
        "levels": [
            {"order": k, "keys": [list(key) for key in keys]}
            for k, keys in levels.items()
        ],
        "upper": [root_list(t) for t in upper],
        "lower": [root_list(t) for t in reversed(upper)],
    }
