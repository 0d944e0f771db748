"""Exhaustive verification sweeps.

Every structural claim the library relies on is re-checkable here, per
parabolic designation and per extended-diagram node, with failures
collected as machine-readable records instead of exceptions.  The
sweeps are exact (integer arithmetic throughout) and iterate
in a fixed (height, lexicographic) order so repeated runs emit
byte-identical reports.

For the quadratic sweeps the pair count is cut by symmetry, never the
content: a sign-rule or string condition for (mu, nu) coincides with
the one for (-mu, -nu), (nu, mu) and (mu, -nu) after negating roots,
and t-root spaces at opposite keys are exact mirrors, with the keys
closed under negation (which the suite itself verifies per designation),
so checking one representative per orbit checks them all.  The string
law is walked once per positive nu over the positive t-weights x: a
negative x pairs with nu as minus its mirror -x, so its conditions are
those at -x on the mirrored run, with top and bottom, raising and
lowering swapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import mul

from . import slnx
from .bds import (
    _is_prime, classify, delete_node, extended_diagram, residue_bracket_check,
    residue_irreducibility, subalgebra_roots,
)
from . import exactlin
from .errors import LeviRootsError
from .levi import (
    ParabolicDesignation, designation, sign_rule_failures, string_reaches, string_walk,
    string_weights, troot_of, troot_system,
)
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
    # key's mirror
    needed = {*trsys.keys, *trsys.positives, *(tuple(-c for c in k) for k in trsys.positives)}
    missing = sorted((k for k in needed if k not in trsys.spaces), key=lambda k: (sum(k), k))
    if missing:
        failures.append(Failure("partition", label, f"keys without a space: {missing}"))
        return DesignationReport(des.deleted, counts, tuple(failures))
    # the reach of every space, read by the bracket and the string law
    reaches = string_reaches(trsys, trsys.key_index())
    _check_partition(des, trsys, failures)
    _check_weights(des, trsys, failures)
    _check_simples(des, trsys, failures)
    _check_brackets(trsys, reaches, failures, label)
    _check_signs(trsys, failures, label)
    _check_strings(trsys, reaches, failures, label)
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
    # each positive root's key, zipped from the deleted coordinate columns
    columns = tuple(zip(*rs.positives))
    fibers: dict[tuple, int] = {}
    for i, key in enumerate(zip(*[columns[d] for d in des.deleted0])):
        fibers[key] = fibers.get(key, 0) | 1 << i
    in_levi = 2 * fibers.get((0,) * len(des.deleted0), 0).bit_count()
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
        if spaces[tuple(-c for c in key)].mask != spaces[key].mask << n_pos:
            failures.append(Failure(
                "negation-symmetry", label, f"key {key} mirror mismatch"))
        if spaces[key].mask != fibers.get(key):
            failures.append(Failure(
                "restriction", label, f"space {key} is not the fiber of its key"))
        if troot_of(des, spaces[key].highest) != key:
            failures.append(Failure(
                "restriction", label, f"highest root of {key} restricts elsewhere"))


def _check_weights(des, trsys, failures):
    """Within a space, roots carry pairwise distinct kept-node pairings."""
    rs = des.rs
    kept = des.kept0
    if not kept:
        return
    codes = rs.pairing_codes()
    fields = sum(15 << 4 * k for k in kept)  # the kept nodes' bits of a code
    for key in trsys.positives:
        numbers = trsys.spaces[key].numbers
        if len({codes[i] & fields for i in numbers}) == len(numbers):
            continue
        seen = set()
        for code in [codes[i] & fields for i in numbers]:
            if code in seen:
                w = tuple([(code >> 4 * k & 15) - 8 for k in kept])
                failures.append(Failure(
                    "weight-multiplicity", _deleted_label(des),
                    f"two roots of {key} share kept-node pairings {w}",
                ))
            seen.add(code)


def _check_simples(des, trsys, failures):
    """Simple t-roots: unit keys, independence, obtuseness, intrinsic simplicity."""
    label = _deleted_label(des)
    width = len(des.deleted)
    units = {tuple(1 if i == a else 0 for i in range(width)) for a in range(width)}
    if set(trsys.simples) != units or len(trsys.simples) != width:
        failures.append(Failure(
            "simple-troots", label, "simple t-roots differ from the unit keys"))
    for idx, j in enumerate(des.deleted):
        unit = tuple(1 if i == idx else 0 for i in range(width))
        phi = tuple(1 if t == j - 1 else 0 for t in range(des.rs.rank))
        if troot_of(des, phi) != unit:
            failures.append(Failure(
                "simple-troots", label, f"deleted node {j} does not restrict to a unit key"))
    if exactlin.rank_of(trsys.simples) != width:
        failures.append(Failure(
            "simple-troots", label, "simple t-roots are linearly dependent"))
    for a in range(width):
        for b in range(a + 1, width):
            if trsys.inner_sign(trsys.simples[a], trsys.simples[b]) > 0:
                failures.append(Failure(
                    "simple-troots", label,
                    f"simple t-roots {a},{b} have positive inner product"))
    # one-signed keys, and simplicity <=> not a sum of two positives
    pos_encs = frozenset(map(trsys.key_enc, trsys.positives))
    for key in trsys.keys:
        if not (min(key) >= 0 or max(key) <= 0):
            failures.append(Failure(
                "positivity-dichotomy", label, f"key {key} is mixed-sign"))
    for key in trsys.positives:
        e = trsys.key_enc(key)
        decomposable = not pos_encs.isdisjoint(map(e.__sub__, pos_encs))
        if decomposable == (key in units):
            kind = "decomposes" if decomposable else "has no decomposition"
            failures.append(Failure(
                "intrinsic-simplicity", label,
                f"key {key} {kind}, contradicting the simple set"))


def _check_brackets(trsys, reaches, failures, label):
    """Root sums from keys mu, nu fill the space at mu+nu exactly.

    A root k at mu+nu is a sum from mu and nu exactly when it is in the
    reach of the space at -mu, and no sum escapes the target, because
    every space is the whole fiber of its key (``restriction``; see
    docs/conventions.md).  Only pairs with a positive sum key are checked;
    the pair with both keys negated is the mirror case.
    """
    troots, spaces = trsys.key_index(), trsys.spaces
    targets = {trsys.key_enc(k): spaces[k].mask for k in trsys.positives}
    encs = sorted(troots)
    for i, em in enumerate(encs):
        reach = reaches.get(-em, 0)  # 0 when -mu is no key (negation-symmetry)
        for en in encs[i:]:
            target = targets.get(em + en)
            if target is not None and reach & target != target:
                failures.append(Failure(
                    "bracket-law", label,
                    f"keys {troots[em]} + {troots[en]}: root sums miss the target space",
                ))


def _check_signs(trsys, failures, label):
    """Sign rules once per orbit {(+-mu, +-nu), (+-nu, +-mu)}."""
    pos = trsys.positives
    troots = trsys.key_index()
    encs = [trsys.key_enc(k) for k in pos]
    pairings = trsys.positive_pairings()
    p = len(pos)
    for i, mu in enumerate(pos):
        row = pairings[i * p + i:(i + 1) * p]
        for text in sign_rule_failures(mu, encs[i], pos[i:], encs[i:], row, troots):
            failures.append(Failure("sign-rule", label, text))


def _check_strings(trsys, reaches, failures, label):
    """String laws for every (gamma, nu), walked once per positive nu.

    The walk visits the positive t-weights only (the orbit rule of the
    module docstring).  Zero needs no visit: it is interior to every run,
    since nu and -nu are t-weights, and exempt from the non-vanishing
    conditions.  Pairings read nu's row of the positive pairing table.
    """
    weights = string_weights(trsys)
    pos_encs = [trsys.key_enc(k) for k in trsys.positives]
    spaces = trsys.spaces
    pairings = trsys.positive_pairings()
    p = len(pos_encs)
    texts: list[str] = []
    for b, nu in enumerate(trsys.positives):
        up, down = spaces[nu].mask, spaces[tuple(-c for c in nu)].mask
        string_walk(pos_encs[b], nu, pos_encs, pairings[b * p:(b + 1) * p], weights,
                    reaches, up, down, texts)
    failures.extend(Failure("string-law", label, t) for t in texts)


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
        from_roots = classify(model.cartan_of_sub)
        classes = from_diagram
        if from_diagram != from_roots:
            failures.append(Failure(
                "equal-rank-classify", label,
                f"diagram pipeline {from_diagram} != root pipeline {from_roots}"))
    except LeviRootsError as exc:
        failures.append(Failure("equal-rank-classify", label, str(exc)))
        return NodeReport(j, n, classes, tuple(failures))

    if model.root_set.bit_count() != len(rs.indexed) - sum(
        v.bit_count() for v in model.residues.values()
    ):
        failures.append(Failure(
            "residue-partition", label, "residues do not complement the subalgebra"))
    for k in range(1, n):
        if not model.residues.get(k):
            failures.append(Failure(
                "residue-irreducibility", label, f"residue class {k} is empty"))
            continue
        try:
            residue_irreducibility(model, k)
        except LeviRootsError as exc:
            failures.append(Failure("residue-irreducibility", label, str(exc)))
    for p in range(1, n):
        for q in range(1, n):
            if (p + q) % n == 0:
                continue
            rep = residue_bracket_check(model, p, q)
            if not rep.ok:
                for msg in rep.failures:
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
            "type": str(self.stype),
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
            rep = slnx.crosscheck(comp, rs)
            if not rep.ok:
                for msg in rep.failures:
                    sln_failures.append(Failure(
                        "block-crosscheck", f"blocks={list(comp.parts)}", msg))
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
