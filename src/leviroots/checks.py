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
and t-root spaces at opposite keys are exact mirrors (which the suite
itself verifies per designation), so checking one representative per
orbit checks them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import mul, neg

from . import slnx
from .bds import (
    _is_prime, classify, delete_node, extended_diagram, residue_bracket_check,
    residue_irreducibility, subalgebra_roots,
)
from . import exactlin
from .errors import LeviRootsError
from .levi import (
    ParabolicDesignation, designation, sign_rule_failure, string_reaches, string_run,
    string_weights, troot_of, troot_system,
)
from .rootsys import RootSystem, all_simple_types, root_system
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
    """Run every per-designation theorem check and collect failures."""
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
    _check_partition(des, trsys, failures)
    _check_weights(des, trsys, failures)
    _check_simples(des, trsys, failures)
    _check_brackets(trsys, failures, label)
    _check_signs(trsys, failures, label)
    _check_strings(trsys, failures, label)
    _check_delta(trsys, failures, label)
    counts["k_cent"] = _check_series(trsys, failures, label)
    return DesignationReport(des.deleted, counts, tuple(failures))


def _check_partition(des, trsys, failures):
    """Spaces partition the roots off the Levi factor; mirrors are exact."""
    rs = des.rs
    label = _deleted_label(des)
    D = des.deleted0
    in_levi = sum(1 for phi in rs.roots if not any(phi[d] for d in D))
    total = sum(len(sp.roots) for sp in trsys.spaces.values())
    if total + in_levi != len(rs.roots):
        failures.append(Failure(
            "partition", label,
            f"{total} space roots + {in_levi} Levi roots != {len(rs.roots)}",
        ))
    # a root and its negative are len(positives) apart in the numbering,
    # and a positive key's space holds positive roots only
    masks = trsys.masks()
    n_pos = len(rs.positives)
    for key in trsys.positives:
        if masks[tuple(-c for c in key)] != masks[key] << n_pos:
            failures.append(Failure(
                "negation-symmetry", label, f"key {key} mirror mismatch"))
        if troot_of(des, trsys.spaces[key].highest) != key:
            failures.append(Failure(
                "restriction", label, f"highest root of {key} restricts elsewhere"))


def _check_weights(des, trsys, failures):
    """Within a space, roots carry pairwise distinct kept-node pairings."""
    rs = des.rs
    kept = des.kept0
    if not kept:
        return
    # column i of the Cartan matrix gives <phi, alpha_i^vee> as a dot product
    columns = [tuple(row[i] for row in rs.cartan) for i in kept]
    for key in trsys.positives:
        space = trsys.spaces[key]
        if len(space.roots) == 1:
            continue
        seen = set()
        for phi in space.roots:
            w = tuple([sum(map(mul, phi, col)) for col in columns])
            if w in seen:
                failures.append(Failure(
                    "weight-multiplicity", _deleted_label(des),
                    f"two roots of {key} share kept-node pairings {w}",
                ))
            seen.add(w)


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
        if not (all(c >= 0 for c in key) or all(c <= 0 for c in key)):
            failures.append(Failure(
                "positivity-dichotomy", label, f"key {key} is mixed-sign"))
    for key in trsys.positives:
        e = trsys.key_enc(key)
        decomposable = any(e - p in pos_encs for p in pos_encs)
        if decomposable == (key in units):
            kind = "decomposes" if decomposable else "has no decomposition"
            failures.append(Failure(
                "intrinsic-simplicity", label,
                f"key {key} {kind}, contradicting the simple set"))


def _check_brackets(trsys, failures, label):
    """Root sums from keys mu, nu fill the space at mu+nu exactly.

    Only pairs with a positive sum key are computed; the pair with both
    keys negated covers the mirror case exactly (space mirroring is
    verified separately per designation).  The smaller space of each
    pair is the one walked, as the sum set does not depend on the order.
    """
    troots = trsys.key_index()
    numbers, masks = trsys.root_numbers(), trsys.masks()
    targets = {trsys.key_enc(k): masks[k] for k in trsys.positives}
    sums = trsys.rs.sum_table().sums
    encs = sorted(troots)
    for i, em in enumerate(encs):
        km = troots[em]
        for en in encs[i:]:
            target = targets.get(em + en)
            if target is None:
                continue
            kn = troots[en]
            if len(numbers[km]) <= len(numbers[kn]):
                got = sums(numbers[km], masks[kn])
            else:
                got = sums(numbers[kn], masks[km])
            if got != target:
                failures.append(Failure(
                    "bracket-law", label,
                    f"keys {km} + {kn}: root sums miss the target space",
                ))


def _check_signs(trsys, failures, label):
    """Sign rules once per orbit {(+-mu, +-nu), (+-nu, +-mu)}."""
    pos = trsys.positives
    troots = trsys.key_index()
    encs = [trsys.key_enc(k) for k in pos]
    pairings = trsys.positive_pairings()
    p = len(pos)
    for i, mu in enumerate(pos):
        emu = encs[i]
        for nu, enu, s in zip(pos[i:], encs[i:], pairings[i * p + i:(i + 1) * p]):
            failure = sign_rule_failure(s, mu, nu, emu + enu, emu - enu, troots)
            if failure:
                failures.append(Failure("sign-rule", label, failure))


def _check_strings(trsys, failures, label):
    """String laws for every (gamma, nu), one check per maximal nu-run.

    For fixed nu the pairs (gamma, nu) with gamma on one maximal run
    share one interval up to shift, one pair of endpoint inequalities,
    and one family of interior non-vanishing conditions, so each run is
    verified once, from its bottom up; runs along -nu impose the
    mirrored inequalities, which are literally the same checks.
    Endpoint signs read nu's row of the positive pairing table (a
    negative key pairs as minus its mirror).
    """
    weights = string_weights(trsys)
    reaches = string_reaches(trsys, weights)
    ordered = sorted(weights)
    pos_encs = [trsys.key_enc(k) for k in trsys.positives]
    neg_encs = [-e for e in pos_encs]
    masks = trsys.masks()
    pairings = trsys.positive_pairings()
    p = len(pos_encs)
    texts: list[str] = []
    for b, nu in enumerate(trsys.positives):
        row = pairings[b * p:(b + 1) * p]
        en = pos_encs[b]
        # (x, nu) for every t-weight x, by encoding
        pairing = dict(zip(pos_encs, row))
        pairing.update(zip(neg_encs, map(neg, row)))
        pairing[0] = 0
        up, down = masks[nu], masks[tuple(-c for c in nu)]
        for bottom in ordered:
            if bottom - en not in weights:  # the bottom of its run
                string_run(bottom, en, nu, weights, pairing, reaches, up, down, texts)
    failures.extend(Failure("string-law", label, t) for t in texts)


def _check_delta(trsys, failures, label):
    """The nilradical trace pairs positively with every positive t-root."""
    row = trsys._pairing(trsys.delta_key)
    for nu in trsys.positives:
        if sum(map(mul, nu, row)) <= 0:
            failures.append(Failure(
                "trace-positivity", label,
                f"({nu}, delta) is not positive"))
    for nu in trsys.positives:
        mirror = tuple(-c for c in nu)
        if sum(map(mul, mirror, row)) >= 0:
            failures.append(Failure(
                "trace-positivity", label,
                f"({mirror}, delta) is not negative"))


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
    """Dual-pipeline classification, t-root ladder, residue certificates."""
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

    if rs.rank > 1:
        try:
            trsys = troot_system(designation(rs, deleted=(j,)))
            ladder = {(k,) for k in range(1, n + 1)}
            if set(trsys.positives) != ladder or len(trsys.keys) != 2 * n:
                failures.append(Failure(
                    "maximal-parabolic-ladder", label,
                    f"t-roots are not +-1..{n} times the unit key"))
        except LeviRootsError as exc:
            failures.append(Failure("maximal-parabolic-ladder", label, str(exc)))
    else:
        # rank 1: the sole designation is the Borel; ladder is {+-1}
        if n != 1:
            failures.append(Failure(
                "maximal-parabolic-ladder", label, "rank-1 mark must be 1"))

    if len(model.root_set) != len(rs.roots) - sum(
        len(v) for v in model.residues.values()
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
    ext = extended_diagram(rs)
    nodes = [check_node(rs, ext, j) for j in range(1, rs.rank + 1)]
    sln_failures: list[Failure] = []
    if rs.stype is not None and rs.stype.family == "A":
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
