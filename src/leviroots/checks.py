"""Exhaustive verification sweeps.

Every structural claim the library relies on is re-checkable here, per
parabolic designation and per extended-diagram node, with failures
collected as machine-readable records instead of exceptions.  The
sweeps are exact (integer arithmetic throughout) and iterate
in a fixed (height, lexicographic) order so repeated runs emit
byte-identical reports.

For the quadratic laws the pair count is cut by symmetry, never the
content.  t-root spaces at opposite keys are exact mirrors, with the keys
closed under negation (which the suite itself verifies per designation),
so the string law is walked once per positive nu over the positive
t-weights x: a negative x pairs with nu as minus its mirror -x, so its
conditions are those at -x on the mirrored run, with top and bottom,
raising and lowering swapped.  The same walk reports the sign rule.  Off
the diagonal, the sign rule for (x, nu) fails exactly when the walk's
endpoint test at x does: (x, nu) < 0 forces x + nu to be a t-root,
(x, nu) > 0 forces x - nu, and (x, nu) = 0 both or neither.  The rule
for (mu, nu) is the one for (-mu, -nu), (nu, mu) and (mu, -nu), so a
failed endpoint test is also a sign-rule record when x comes before nu
among the positives, once per orbit.  On the diagonal the walk counts
x - nu = 0 as a weight, so it tests nothing at x = nu when 2 nu is a
t-root; the rule is tested there as (nu, nu) > 0.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import mul, or_

from . import slnx
from .bds import (
    _cartan_of, _is_prime, classify, delete_node, extended_diagram, residue_bracket_check,
    residue_irreducibility, subalgebra_roots,
)
from .errors import LeviRootsError
from .levi import ParabolicDesignation, designation, troot_system
from .rootsys import RootSystem, SimpleType, all_simple_types, cartan_matrix, root_system
from .series import closed_form_series, grading


@dataclass(frozen=True)
class Failure:
    """One violated condition: which check, where, and what went wrong."""

    check: str
    subject: str
    detail: str

    def as_dict(self) -> dict:
        return {"check": self.check, "subject": self.subject, "detail": self.detail}


def _deleted_label(des: ParabolicDesignation) -> str:
    return "deleted=" + ",".join(str(j) for j in des.deleted)


# ---------------------------------------------------------------------------
# designation scopes


def borel_designation(rs: RootSystem) -> ParabolicDesignation:
    return designation(rs, kept=())


def standard_designations(rs: RootSystem) -> list[ParabolicDesignation]:
    """The Borel plus every maximal parabolic (deduplicated at rank 1)."""
    out = [borel_designation(rs)]
    for j in range(1, rs.rank + 1):
        if rs.rank > 1:
            out.append(designation(rs, deleted=(j,)))
    return out


def all_parabolic_designations(rs: RootSystem) -> list[ParabolicDesignation]:
    """All 2^rank - 1 designations, ordered by (size, nodes) of the deleted set."""
    nodes = range(1, rs.rank + 1)
    out = []
    for size in range(1, rs.rank + 1):
        for deleted in combinations(nodes, size):
            out.append(designation(rs, deleted=deleted))
    return out


# ---------------------------------------------------------------------------
# one designation


class DesignationReport:
    __slots__ = ("deleted", "counts", "failures")

    def __init__(self, deleted, counts, failures):
        self.deleted = deleted
        self.counts = counts
        self.failures = failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "deleted": list(self.deleted),
            "ok": self.ok,
            "counts": self.counts,
            "failures": [f.as_dict() for f in self.failures],
        }


def check_designation(des: ParabolicDesignation) -> DesignationReport:
    """Run every per-designation theorem check, the ladder too, and collect failures."""
    failures: list[Failure] = []
    label = _deleted_label(des)
    try:
        trsys = troot_system(des)
    except LeviRootsError as exc:
        failures.append(Failure("certification", label, str(exc)))
        return DesignationReport(des.deleted, {}, tuple(failures))

    counts = {
        "troots": len(trsys.keys),
        "positive": len(trsys.positives),
        "simple": len(trsys.simples),
    }
    # every law below reads the space at each key and at each positive
    # key's mirror, and the string law finds each positive key in the key
    # index (a mirror missing from keys is a negation-symmetry failure)
    needed = {*trsys.keys, *trsys.positives, *(tuple([-c for c in k]) for k in trsys.positives)}
    missing = sorted((k for k in needed if k not in trsys.spaces), key=lambda k: (sum(k), k))
    if missing:
        failures.append(Failure("partition", label, f"keys without a space: {missing}"))
        return DesignationReport(des.deleted, counts, tuple(failures))
    unlisted = sorted(set(trsys.positives).difference(trsys.keys), key=lambda k: (sum(k), k))
    if unlisted:
        failures.append(Failure("partition", label, f"t-roots missing from keys: {unlisted}"))
        return DesignationReport(des.deleted, counts, tuple(failures))
    # the encodings of the positive keys (simplicity, bracket and string
    # law), the reach of every space by encoding (bracket and string law)
    # and the positive pairing table (string law and sign rule)
    pos_encs = [trsys.key_enc(k) for k in trsys.positives]
    reach = des.rs.sum_table().reach
    reaches = {e: reach(trsys.spaces[k].mask) for e, k in trsys.key_index().items() if e}
    pairings = trsys.positive_pairings()
    _check_partition(des, trsys, failures)
    _check_simples(des, trsys, pos_encs, failures)
    _check_brackets(trsys, pos_encs, reaches, failures, label)
    _check_strings(trsys, pos_encs, reaches, pairings, failures, label)
    _check_delta(trsys, failures, label)
    counts["k_cent"] = _check_series(trsys, failures, label)
    if len(des.deleted) == 1:  # a maximal parabolic: t-roots +-1..n, n the mark
        n = des.rs.marks[des.deleted0[0]]
        if set(trsys.positives) != {(k,) for k in range(1, n + 1)} or len(trsys.keys) != 2 * n:
            failures.append(Failure(
                "maximal-parabolic-ladder", label,
                f"t-roots are not +-1..{n} times the unit key"))
    return DesignationReport(des.deleted, counts, tuple(failures))


def _check_partition(des, trsys, failures):
    """Spaces partition the roots off the Levi factor; mirrors are exact;
    each positive space is the whole fiber of its key."""
    rs = des.rs
    label = _deleted_label(des)
    # the fiber of a key: the AND, over the deleted nodes, of the positive
    # roots with that key entry as their coefficient there
    value_masks = [rs.coefficient_masks()[d] for d in des.deleted0]
    everything = (1 << len(rs.positives)) - 1

    def fiber(key):
        out = everything
        for masks, c in zip(value_masks, key):
            out &= masks.get(c, 0)
        return out

    in_levi = 2 * fiber((0,) * len(value_masks)).bit_count()
    total = sum(sp.dim for sp in trsys.spaces.values())
    if total + in_levi != len(rs.roots):
        failures.append(Failure(
            "partition", label,
            f"{total} space roots + {in_levi} Levi roots != {len(rs.roots)}",
        ))
    troots = trsys.key_index()
    for e, key in troots.items():
        if -e not in troots:
            failures.append(Failure(
                "negation-symmetry", label, f"key {key} has no negative in keys"))
    # a root and its negative are len(positives) apart in the numbering,
    # and a positive key's space holds positive roots only
    spaces = trsys.spaces
    n_pos = len(rs.positives)
    for key in trsys.positives:
        if spaces[tuple([-c for c in key])].mask != spaces[key].mask << n_pos:
            failures.append(Failure(
                "negation-symmetry", label, f"key {key} mirror mismatch"))
        own = fiber(key)
        if not own or spaces[key].mask != own:  # a key no root has is no t-root
            failures.append(Failure(
                "restriction", label, f"space {key} is not the fiber of its key"))


def _check_simples(des, trsys, pos_encs, failures):
    """Simple t-roots: unit keys, obtuseness, intrinsic simplicity."""
    label = _deleted_label(des)
    width = len(des.deleted)
    units = {tuple(1 if i == a else 0 for i in range(width)) for a in range(width)}
    if set(trsys.simples) != units or len(trsys.simples) != width:
        failures.append(Failure(
            "simple-troots", label, "simple t-roots differ from the unit keys"))
    for (a, s), (b, t) in combinations(enumerate(trsys.simples), 2):
        if trsys.inner_sign(s, t) > 0:
            failures.append(Failure(
                "simple-troots", label,
                f"simple t-roots {a},{b} have positive inner product"))
    # one-signed keys, and simplicity <=> not a sum of two positives
    encs = frozenset(pos_encs)
    for key in trsys.keys:
        if not (min(key) >= 0 or max(key) <= 0):
            failures.append(Failure(
                "positivity-dichotomy", label, f"key {key} is mixed-sign"))
    for key, e in zip(trsys.positives, pos_encs):
        decomposable = not encs.isdisjoint(map(e.__sub__, encs))
        if decomposable == (key in units):
            kind = "decomposes" if decomposable else "has no decomposition"
            failures.append(Failure(
                "intrinsic-simplicity", label,
                f"key {key} {kind}, contradicting the simple set"))


def _check_brackets(trsys, pos_encs, reaches, failures, label):
    """Root sums from keys mu, nu fill the space at mu+nu exactly.

    A root k at mu+nu is a sum from mu and nu exactly when it is in the
    reach of the space at -mu, and no sum escapes the target, because
    every space is the whole fiber of its key (``restriction``; see
    docs/conventions.md).  Only pairs with a positive sum key are checked;
    the pair with both keys negated is the mirror case.
    """
    troots, spaces = trsys.key_index(), trsys.spaces
    targets = {e: spaces[k].mask for e, k in zip(pos_encs, trsys.positives)}
    low, high = min(targets, default=0), max(targets, default=0)
    encs = sorted(troots)
    for i, em in enumerate(encs):
        reach = reaches.get(-em, 0)  # 0 when -mu is no key (negation-symmetry)
        # a partner outside [low - em, high - em] reaches no target
        for en in encs[bisect_left(encs, low - em, i):bisect_right(encs, high - em, i)]:
            target = targets.get(em + en)
            if target is not None and reach & target != target:
                failures.append(Failure(
                    "bracket-law", label,
                    f"keys {troots[em]} + {troots[en]}: root sums miss the target space",
                ))


# what the sign rule asks of (mu, nu), by the sign of the pairing
_SIGN_RULE = {
    -1: "< 0 but the sum is not a t-root",
    0: "= 0 but sum/difference membership differs",
    1: "> 0 but the difference is not a t-root",
}


def _check_strings(trsys, pos_encs, reaches, pairings, failures, label):
    """The string law and the sign rule, walked once per positive nu.

    The walk visits the positive t-weights x only (the orbit rule of the
    module docstring), on encodings, with (x, nu) read from nu's row of
    the positive pairing table.  x tops its maximal nu-run when x + nu is
    no t-weight (a t-root or zero), and bottoms it when x - nu is none.  A
    singleton run must be orthogonal to nu; otherwise its top must pair
    positively and its bottom negatively with nu, and the action of g_nu
    (raising, below the top) and g_-nu (lowering, above the bottom) must
    be nonzero at x: some root of the space at x adds to a root of the
    acting space within Delta u {0}.  Zero needs no visit: it is interior
    to every run, since nu and -nu are t-weights, and bracketing with the
    Levi factor is automatic.  A failed endpoint test at x before nu is
    also a sign-rule record, and the diagonal pairing (nu, nu) must be
    positive (the module docstring).
    """
    weights = dict(trsys.key_index())
    weights[0] = (0,) * len(trsys.simples)
    spaces = trsys.spaces
    p = len(pos_encs)
    for b, (nu, step) in enumerate(zip(trsys.positives, pos_encs)):
        up, down = spaces[nu].mask, spaces[tuple([-c for c in nu])].mask
        row = pairings[b * p:(b + 1) * p]
        if row[b] <= 0:
            failures.append(Failure("sign-rule", label, f"({nu},{nu}) is not positive"))
        for a, (x, s) in enumerate(zip(pos_encs, row)):
            raised, lowered = x + step in weights, x - step in weights
            if not (raised or lowered):
                end = "singleton string at {} along {} not orthogonal" if s else None
            elif not raised and s <= 0:
                end = "top of string {} along {} not positive"
            elif not lowered and s >= 0:
                end = "bottom of string {} along {} not negative"
            else:
                end = None
            if end:
                failures.append(Failure("string-law", label, end.format(weights[x], nu)))
                if a < b:
                    failures.append(Failure(
                        "sign-rule", label, f"({weights[x]},{nu}) {_SIGN_RULE[(s > 0) - (s < 0)]}"))
            if x:
                if raised and not reaches[x] & up:
                    failures.append(Failure(
                        "string-law", label, f"no raising root sum at {weights[x]} along {nu}"))
                if lowered and not reaches[x] & down:
                    failures.append(Failure(
                        "string-law", label, f"no lowering root sum at {weights[x]} along {nu}"))


def _check_delta(trsys, failures, label):
    """The nilradical trace pairs positively with every positive t-root."""
    row = trsys._pairing(trsys.delta_key)
    for nu in trsys.positives:
        if sum(map(mul, nu, row)) <= 0:
            failures.append(Failure(
                "trace-positivity", label,
                f"({nu}, delta) is not positive"))


def _check_series(trsys, failures, label):
    """Grading structure plus closed-form central series against the oracles."""
    try:
        grad = grading(trsys)
    except (LeviRootsError, AssertionError) as exc:
        failures.append(Failure("grading", label, str(exc)))
        return None
    try:
        series = closed_form_series(trsys, grad)
    except (LeviRootsError, AssertionError) as exc:
        failures.append(Failure("central-series", label, str(exc)))
        return grad.k_cent
    if series.length != grad.k_cent:
        failures.append(Failure(
            "central-series", label,
            f"series length {series.length} != k_cent {grad.k_cent}"))
    return grad.k_cent


# ---------------------------------------------------------------------------
# per-node equal-rank checks


class NodeReport:
    # classes: the diagram pipeline's DiagramClass, None if classifying failed
    __slots__ = ("node", "mark", "classes", "failures")

    def __init__(self, node, mark, classes, failures):
        self.node = node
        self.mark = mark
        self.classes = classes
        self.failures = failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "node": self.node,
            "mark": self.mark,
            "subalgebra": None if self.classes is None else self.classes.names(),
            "ok": self.ok,
            "failures": [f.as_dict() for f in self.failures],
        }


def check_node(rs: RootSystem, ext, j: int) -> NodeReport:
    """Dual-pipeline classification and residue certificates; builds no t-roots."""
    failures: list[Failure] = []
    label = f"node={j}"
    n = rs.marks[j - 1]
    classes = None
    try:
        from_diagram = classify(delete_node(ext, j))
        model = subalgebra_roots(rs, j)
        from_roots = classify(_cartan_of(rs, model.simple_roots))
        classes = from_diagram
        if from_diagram != from_roots:
            failures.append(Failure(
                "equal-rank-classify", label,
                f"diagram pipeline {from_diagram} != root pipeline {from_roots}"))
    except LeviRootsError as exc:
        failures.append(Failure("equal-rank-classify", label, str(exc)))
        return NodeReport(j, n, classes, tuple(failures))
    # the residue checks take n from the model
    if model.mark != n:
        failures.append(Failure(
            "equal-rank-classify", label, f"model mark {model.mark} != mark {n} of node {j}"))
        return NodeReport(j, n, classes, tuple(failures))

    # a cover of the roots whose part sizes add up to the root count has no overlap
    parts = (model.root_set, *model.residues.values())
    if (reduce(or_, parts) != (1 << len(rs.indexed)) - 1
            or sum(m.bit_count() for m in parts) != len(rs.indexed)):
        failures.append(Failure(
            "residue-partition", label, "residues do not complement the subalgebra"))
    for k in range(1, n):  # an empty class has no highest weight
        try:
            residue_irreducibility(model, k)
        except LeviRootsError as exc:
            failures.append(Failure("residue-irreducibility", label, str(exc)))
    # a missing class is reported above, and its brackets are not read
    present = [k for k in range(1, n) if k in model.residues]
    for p in present:
        for q in present:
            if (p + q) % n == 0:
                continue
            for msg in residue_bracket_check(model, p, q).failures:
                failures.append(Failure("residue-bracket", label, msg))
    return NodeReport(j, n, classes, tuple(failures))


# ---------------------------------------------------------------------------
# per-type and sweep drivers


class TypeReport:
    __slots__ = ("stype", "designations", "nodes", "sln_failures", "maximal")

    def __init__(self, stype, designations, nodes, sln_failures, maximal):
        self.stype = stype
        self.designations = designations
        self.nodes = nodes
        self.sln_failures = sln_failures
        self.maximal = maximal

    @property
    def ok(self) -> bool:
        return (
            all(r.ok for r in self.designations)
            and all(r.ok for r in self.nodes)
            and not self.sln_failures
        )

    def failure_count(self) -> int:
        return (
            sum(len(r.failures) for r in self.designations)
            + sum(len(r.failures) for r in self.nodes)
            + len(self.sln_failures)
        )

    def as_dict(self) -> dict:
        return {
            "type": str(self.stype) if self.stype else None,
            "ok": self.ok,
            "designations": [r.as_dict() for r in self.designations],
            "nodes": [r.as_dict() for r in self.nodes],
            "block_check_failures": [f.as_dict() for f in self.sln_failures],
            "maximal_equal_rank": [
                {"node": j, "subalgebra": cls.names()} for j, cls in self.maximal
            ],
        }


def _composition_of_designation(des: ParabolicDesignation):
    cuts = list(des.deleted)
    n = des.rs.rank + 1
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(n - prev)
    return slnx.composition(parts)


def check_type(rs: RootSystem, all_parabolics: bool = False) -> TypeReport:
    """Run the designation suite, node suite, and (type A) block crosschecks."""
    scope = (
        all_parabolic_designations(rs) if all_parabolics
        else standard_designations(rs)
    )
    reports = [check_designation(des) for des in scope]
    try:
        ext = extended_diagram(rs)
    except (LeviRootsError, AssertionError) as exc:  # no node can be classified
        nodes = [NodeReport(j, n, None, (Failure("equal-rank-classify", f"node={j}", str(exc)),))
                 for j, n in enumerate(rs.marks, 1)]
    else:
        nodes = [check_node(rs, ext, j) for j in range(1, rs.rank + 1)]
    sln_failures: list[Failure] = []
    if rs.cartan == cartan_matrix(SimpleType("A", rs.rank), max_rank=rs.rank):
        for des in scope:
            comp = _composition_of_designation(des)
            subject = f"blocks={list(comp.parts)}"
            try:  # the crosscheck builds the t-root system again
                rep = slnx.crosscheck(comp, rs)
            except LeviRootsError as exc:
                sln_failures.append(Failure("block-crosscheck", subject, str(exc)))
                continue
            for msg in rep.failures:
                sln_failures.append(Failure("block-crosscheck", subject, msg))
    # the maximal table is the prime-mark nodes; one whose classification
    # failed is already a reported failure
    maximal = [(r.node, r.classes) for r in nodes
               if _is_prime(r.mark) and r.classes is not None]
    return TypeReport(rs.stype, reports, nodes, sln_failures, maximal)


def check_document(reports: list[TypeReport], all_parabolics: bool) -> dict:
    """Aggregate JSON-ready document for one or more type reports."""
    return {
        "schema": "leviroots.check/1",
        "scope": "all-parabolics" if all_parabolics else "borel-and-maximal",
        "ok": all(r.ok for r in reports),
        "failure_count": sum(r.failure_count() for r in reports),
        "types": [r.as_dict() for r in reports],
    }


def sweep_types(max_rank: int, all_parabolics: bool = False) -> list[TypeReport]:
    """Check every simple type up to the given rank."""
    out = []
    for stype in all_simple_types(max_rank):
        out.append(check_type(root_system(stype, max_rank=max_rank), all_parabolics))
    return out
