"""Center-weighted grading and central series of a nilradical.

The order of a positive t-root is the sum of its key entries; grading
the nilradical by order makes both central series computable in closed
form: the i-th term of the upper central series is the span of the top
i orders, and the i-th term of the lower central series is everything
of order at least i.  Both closed forms are checked here against
deliberately independent brute-force oracles that work purely on root
sets and never consult the grading.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .errors import SeriesMismatch
from .levi import Key, TRootSystem
from .rootsys import mask_bits


def order_of(key) -> int:
    """Grading order of a key: the sum of its entries."""
    return sum(key)


@dataclass(frozen=True)
class Grading:
    """Positive t-roots bucketed by order, plus the top order."""

    levels: dict[int, tuple[Key, ...]]
    k_cent: int
    center_key: Key


def grading(trsys: TRootSystem) -> Grading:
    """Bucket the positive t-roots by order and certify the grading.

    Verifies that every order 1..k_cent is realized, that the top order
    equals the sum of the highest root's coefficients over the deleted
    nodes, and that the top level is the single restricted highest root.
    Orders add across t-root sums by linearity of the key sum, so no
    separate additivity pass is needed.
    """
    levels: dict[int, list[Key]] = {}
    for key in trsys.positives:
        levels.setdefault(order_of(key), []).append(key)
    rs = trsys.rs
    D = trsys.designation.deleted0
    k_cent = sum(rs.marks[d] for d in D)
    if sorted(levels) != list(range(1, k_cent + 1)):
        raise AssertionError("grading levels are not 1..k_cent")
    center_key = tuple(rs.marks[d] for d in D)
    if levels[k_cent] != [center_key]:
        raise AssertionError("top level is not the restricted highest root alone")
    return Grading(
        {k: tuple(v) for k, v in sorted(levels.items())}, k_cent, center_key
    )


@dataclass(frozen=True)
class CentralSeries:
    """Both central series as root masks over ``rs.indexed``; length is the
    nilpotency class."""

    upper: tuple[int, ...]
    lower: tuple[int, ...]
    length: int


def _nilradical_sums(trsys: TRootSystem) -> tuple[list[int], int, dict[int, int]]:
    """Nilradical roots by number, their mask, and each one's sums with n.

    For phi in n, sums[phi] is the bitmask of the roots phi + psi with psi
    in n.  Read from the spaces and the root-sum table only.
    """
    if trsys._nil_sums is None:
        spaces = [trsys.spaces[key] for key in trsys.positives]
        members = [i for sp in spaces for i in sp.numbers]
        total = reduce(or_, (sp.mask for sp in spaces), 0)
        sums = trsys.rs.sum_table().sums
        trsys._nil_sums = members, total, {phi: sums((phi,), total) for phi in members}
    return trsys._nil_sums


def lower_series_oracle(trsys: TRootSystem) -> list[int]:
    """Brute-force descending series: repeatedly bracket with all of n.

    Starts from the full nilradical root set and keeps only root sums;
    stops when bracketing kills everything.  Independent of the grading.
    """
    members, total, sums = _nilradical_sums(trsys)
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
        if len(chain) > len(members) + 1:
            raise AssertionError("lower central series did not terminate")
        chain.append(nxt)
    return chain


def upper_series_oracle(trsys: TRootSystem) -> list[int]:
    """Brute-force ascending series: iterated centers, per root vector.

    A root vector sits in the next term when bracketing with every
    nilradical root vector lands in the previous term.  Each term is
    verified to be a union of whole t-root spaces (stability under the
    Levi factor), which is what makes per-root computation exact.
    """
    members, total, sums = _nilradical_sums(trsys)
    chain: list[int] = []
    prev = 0
    while prev != total:
        outside = ~prev
        cur = 0
        for phi in members:
            if not sums[phi] & outside:
                cur |= 1 << phi
        if cur == prev or prev & ~cur:
            raise AssertionError("upper central series stalled")
        for key in trsys.positives:
            inside = cur & trsys.spaces[key].mask
            if inside and inside != trsys.spaces[key].mask:
                raise AssertionError(f"center term splits the t-root space {key}")
        chain.append(cur)
        prev = cur
    return chain


def closed_form_series(trsys: TRootSystem, grad: Grading | None = None) -> CentralSeries:
    """Both central series read off the order grading.

    The result is always compared against both brute-force oracles, and
    SeriesMismatch is raised on any difference.
    """
    if grad is None:
        grad = grading(trsys)
    k_cent = grad.k_cent
    level_masks = {k: reduce(or_, (trsys.spaces[key].mask for key in keys), 0)
                   for k, keys in grad.levels.items()}
    # upper term i is the top i orders, lower term i everything of order
    # >= i: upper term k_cent + 1 - i
    upper = []
    acc = 0
    for k in range(k_cent, 0, -1):
        acc |= level_masks[k]
        upper.append(acc)
    lower = upper[::-1]
    series = CentralSeries(tuple(upper), tuple(lower), k_cent)
    if lower != lower_series_oracle(trsys):
        raise SeriesMismatch("closed-form lower series disagrees with its oracle")
    if upper != upper_series_oracle(trsys):
        raise SeriesMismatch("closed-form upper series disagrees with its oracle")
    return series


def series_document(trsys: TRootSystem) -> dict:
    """Versioned JSON-ready description (see docs/schemas.md)."""
    grad = grading(trsys)
    series = closed_form_series(trsys, grad)
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
        "k_cent": grad.k_cent,
        "center_key": list(grad.center_key),
        "levels": [
            {"order": k, "keys": [list(key) for key in keys]}
            for k, keys in grad.levels.items()
        ],
        "upper": [root_list(t) for t in series.upper],
        "lower": [root_list(t) for t in series.lower],
    }
