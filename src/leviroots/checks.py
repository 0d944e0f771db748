"""Exhaustive verification sweeps.

Every structural claim the library relies on is re-checkable here, per
parabolic designation and per extended-diagram node, with failures
collected as machine-readable records instead of exceptions.  The
sweeps are exact (integer arithmetic throughout) and iterate
in a fixed (height, lexicographic) order so repeated runs emit
byte-identical reports.

For the quadratic laws the pair count is cut by symmetry, never the
content.  A t-root system stores its positive spaces alone, and the space
at -nu is the mirror of the one at nu, so the keys are closed under
negation and opposite spaces are exact mirrors by construction.  The
string law is therefore walked over the positive t-weights x only: a
negative x pairs with nu as minus its mirror -x, so its conditions are
those at -x on the mirrored run, with top and bottom, raising and
lowering swapped.  Among the positives it visits each unordered pair
{x, nu} once, with x at or after nu, since the visit at (x, nu) tests
what the one at (nu, x) would:

- the pairing (x, nu) is symmetric;
- x + nu is a t-weight exactly when nu + x is;
- x - nu is a t-weight exactly when nu - x is, the keys being closed
  under negation;
- raising asks whether some root of the space at x adds to a root of the
  space at nu within Delta u {0}; the root-sum table is symmetric, so
  this is the test at (nu, x);
- lowering asks the same of the spaces at x and -nu, which matches the
  spaces at nu and -x, since each negative space is the mirror of its
  positive one.

The same walk reports the sign rule.  Off the diagonal, the sign rule
for (x, nu) fails exactly when the walk's endpoint test at x does:
(x, nu) < 0 forces x + nu to be a t-root, (x, nu) > 0 forces x - nu, and
(x, nu) = 0 both or neither.  The rule for (mu, nu) is the one for
(-mu, -nu), (nu, mu) and (mu, -nu), so a failed endpoint test off the
diagonal is also one sign-rule record, naming nu, the earlier of the
two, first: one per orbit.  On the diagonal the walk counts x - nu = 0
as a weight, so it tests nothing at x = nu when 2 nu is a t-root; the
rule is tested there as (nu, nu) > 0.

The bracket law and intrinsic simplicity read one table of key-sum
triples (a, b, a + b), a <= b positive key encodings whose sum is plus or
minus one (``_check_brackets`` and ``_check_simples`` say how).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import reduce
from itertools import combinations
from operator import add, mul, or_

from . import slnx
from .bds import (
    _cartan_of, _is_prime, classify, delete_node, extended_diagram, residue_bracket_check,
    residue_irreducibility, subalgebra_roots,
)
from .errors import LeviRootsError
from .levi import ParabolicDesignation, TRootSystem, designation, troot_system
from .rootsys import RootSystem, SimpleType, all_simple_types, cartan_matrix, root_system
from .series import closed_form_series, grading


class Failure:
    """One violated condition: which check, where, and what went wrong."""

    __slots__ = ("check", "subject", "detail")

    def __init__(self, check: str, subject: str, detail: str):
        self.check = check
        self.subject = subject
        self.detail = detail

    def as_dict(self) -> dict:
        return {"check": self.check, "subject": self.subject, "detail": self.detail}


def _deleted_label(des: ParabolicDesignation) -> str:
    return "deleted=" + ",".join(str(j) for j in des.deleted)


# ---------------------------------------------------------------------------
# designation scopes


def standard_designations(rs: RootSystem) -> list[ParabolicDesignation]:
    """The Borel plus every maximal parabolic (deduplicated at rank 1)."""
    out = [designation(rs, kept=())]
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


def check_designation(trsys: TRootSystem) -> DesignationReport:
    """Run every per-designation check, the ladder too, on a certified t-root system."""
    des = trsys.designation
    failures: list[Failure] = []
    label = _deleted_label(des)
    spaces = trsys.spaces
    counts = {
        "troots": 2 * len(spaces),
        "positive": len(spaces),
        "simple": len(des.deleted),
    }
    # each positive key encoded once: by encoding, the positive keys and the
    # reach of every space, -nu encoded as minus nu and its reach the mirror
    # of nu's, the sum table being mirror-symmetric; the key-sum triples, b
    # up to the top encoding minus a; the t-weights and the pairing triangle
    rs = des.rs
    reach = rs.sum_table().reach
    pos_encs = list(map(rs.encode, spaces))
    named = dict(zip(pos_encs, spaces))
    reaches = {}
    for e, mask in zip(pos_encs, spaces.values()):
        reaches[e] = r = reach(mask)
        reaches[-e] = rs.mirror(r)
    encs, top = sorted(pos_encs), max(reaches, default=0)
    table = [(a, b, s) for i, a in enumerate(encs) for b in encs[i:bisect_right(encs, top - a, i)]
             if (s := a + b) in reaches]
    weights = {0, *reaches}
    pairings = _form_table(trsys, dict(zip(spaces, pos_encs)))
    _check_partition(trsys, failures, label)
    _check_simples(trsys, named, table, failures, label)
    _check_brackets(trsys, named, table, reaches, failures, label)
    _check_strings(trsys, named, weights, pos_encs, reaches, pairings, failures, label)
    _check_delta(trsys, failures, label)
    counts["k_cent"] = _check_series(trsys, failures, label)
    if len(des.deleted) == 1:  # a maximal parabolic: t-roots +-1..n, n the mark
        n = rs.marks[des.deleted0[0]]
        if list(spaces) != [(k,) for k in range(1, n + 1)]:
            failures.append(Failure(
                "maximal-parabolic-ladder", label,
                f"t-roots are not +-1..{n} times the unit key"))
    return DesignationReport(des.deleted, counts, tuple(failures))


def _form_row(trsys, key):
    """Gs . key, on the integer t-root form ``trsys.form``.

    Entry j is det times the exact pairing of key with the unit key j, so
    the dot product of mu with the row is det times (mu, key): a positive
    multiple, with the exact pairing's sign.
    """
    return [sum(map(mul, row, key)) for row in trsys.form[1]]


def _form_table(trsys, encs):
    """Scaled integer pairings of the p positive t-roots: the upper
    triangle, as one flat list.

    Row i pairs ``positives[i]`` with ``positives[i:]``, so entry 0 pairs
    positive 0 with itself; each entry is ``pos_i . Gs . pos_j``, with the
    exact pairing's sign.  Built by bilinearity (docs/conventions.md): a
    positive's form vector ``Gs . key`` is that of the key one unit step
    below it (found by the key encodings ``encs``) plus a column of Gs;
    unit key a's row is entry a of every form vector; and the row of a key
    one step above an earlier positive is that row, shifted, plus the
    unit's row.  Any other row takes p - i dot products.
    """
    pos = trsys.positives
    gs = trsys.form[1]
    columns = list(zip(*gs))
    units = {encs[t]: a for a, t in enumerate(trsys.simples) if t in encs}
    # per positive: its form vector, and the (earlier position, unit)
    # one step below it, if any
    first: dict[int, int] = {}
    forms, steps = [], []
    for i, key in enumerate(pos):  # by height, so the key below comes first
        e = encs[key]
        for u, a in units.items():
            k = first.get(e - u)
            if k is not None:
                forms.append(list(map(add, forms[k], columns[a])))
                steps.append((k, a))
                break
        else:
            forms.append(_form_row(trsys, key))
            steps.append(None)
        first.setdefault(e, i)
    unit_rows = list(map(list, zip(*forms)))
    p = len(pos)
    starts, table = [], []
    for i, key in enumerate(pos):
        starts.append(len(table))
        a = units.get(encs[key])
        if a is not None:
            table += unit_rows[a][i:]
        elif steps[i] is not None:
            k, a = steps[i]
            at = starts[k] + i - k
            table += map(add, table[at:at + p - i], unit_rows[a][i:])
        else:
            table += [sum(map(mul, key, form)) for form in forms[i:]]
    return table


def _check_partition(trsys, failures, label):
    """Positive spaces partition the positive roots off the Levi factor;
    each is the whole fiber of its key."""
    rs = trsys.rs
    # the fiber of a key: the AND, over the deleted nodes, of the positive
    # roots with that key entry as their coefficient there
    value_masks = [rs.coefficient_masks()[d] for d in trsys.designation.deleted0]
    everything = (1 << len(rs.positives)) - 1

    def fiber(key):
        out = everything
        for masks, c in zip(value_masks, key):
            out &= masks.get(c, 0)
        return out

    in_levi = fiber((0,) * len(value_masks)).bit_count()
    total = sum(mask.bit_count() for mask in trsys.spaces.values())
    if total + in_levi != len(rs.positives):
        failures.append(Failure(
            "partition", label,
            f"{total} space roots + {in_levi} Levi roots != {len(rs.positives)}",
        ))
    for key, mask in trsys.spaces.items():
        own = fiber(key)
        if not own or mask != own:  # a key no root has is no t-root
            failures.append(Failure(
                "restriction", label, f"space {key} is not the fiber of its key"))


def _check_simples(trsys, named, table, failures, label):
    """Simple t-roots, the unit keys: obtuseness, read as Gs[a][b], det times
    the pairing of units a and b, and intrinsic simplicity: a positive key
    decomposes exactly when its encoding is the sum of a key-sum triple."""
    units = set(trsys.simples)
    gs = trsys.form[1]
    for a, b in combinations(range(len(gs)), 2):
        if gs[a][b] > 0:
            failures.append(Failure(
                "simple-troots", label,
                f"simple t-roots {a},{b} have positive inner product"))
    # one-signed keys (a key is one-signed when its negative is)
    for key in trsys.spaces:
        if not (min(key) >= 0 or max(key) <= 0):
            failures.append(Failure(
                "positivity-dichotomy", label, f"key {key} is mixed-sign"))
    sums = {s for _, _, s in table}
    for e, key in named.items():
        decomposable = e in sums
        if decomposable == (key in units):
            kind = "decomposes" if decomposable else "has no decomposition"
            failures.append(Failure(
                "intrinsic-simplicity", label,
                f"key {key} {kind}, contradicting the simple set"))


def _check_brackets(trsys, named, table, reaches, failures, label):
    """Root sums from keys mu, nu fill the space at mu+nu exactly.

    A root k at mu+nu is a sum from mu and nu exactly when it is in the
    reach of the space at -mu, and no sum escapes the target, because
    every space is the whole fiber of its key (``restriction``; see
    docs/conventions.md).  Only pairs with a positive sum key are checked;
    the pair with both keys negated is the mirror case.  Such a pair (em, en)
    of +- encodings, em <= en, with sum c, is (a, b) of the key-sum triple
    (a, b, c) when both are positive keys; otherwise it has a negated key
    -a, and the other member is a + c, so it is (-a, s) of the triple of a
    and c.  A failing pair is one record, in (em, en) order, though damaged
    keys can give it twice; two negated keys with sum c (a + b = -c, the
    zero-sum case) need a damaged key.
    """
    targets = dict(zip(named, trsys.spaces.values()))
    failing = set()
    for a, b, s in table:
        target = targets.get(s)
        if target is not None and reaches[-a] & target != target:
            failing.add((a, b))
        # (-a, s) with sum b and (-b, s) with sum a, the lesser first
        em = -a if -a <= s else s
        if reaches[-em] & targets[b] != targets[b]:
            failing.add((em, b - em))
        em = -b if -b <= s else s
        if a != b and reaches[-em] & targets[a] != targets[a]:
            failing.add((em, a - em))
    for pair in sorted(failing):
        mu, nu = (named[e] if e in named else tuple([-c for c in named[-e]]) for e in pair)
        failures.append(Failure(
            "bracket-law", label, f"keys {mu} + {nu}: root sums miss the target space"))


# what the sign rule asks of (mu, nu), by the sign of the pairing
_SIGN_RULE = {
    -1: "< 0 but the sum is not a t-root",
    0: "= 0 but sum/difference membership differs",
    1: "> 0 but the difference is not a t-root",
}


def _check_strings(trsys, named, weights, pos_encs, reaches, pairings, failures, label):
    """The string law and the sign rule, walked once per unordered pair.

    For the positive nu at index b, x runs over ``positives[b:]`` (the
    symmetries of the module docstring), on encodings, with (x, nu) read
    from nu's row of the pairing triangle.  x tops its maximal nu-run when
    x + nu is no t-weight (a t-root or zero), and bottoms it when x - nu
    is none.  A singleton run must be orthogonal to nu; otherwise its top
    must pair positively and its bottom negatively with nu, and g_nu
    (raising, below the top) and its mirror g_-nu (lowering, above the
    bottom) must act nonzero at x: some root of the space at x adds to a
    root of the acting space within Delta u {0}.  Zero is interior to
    every run and carries no condition.  A failed endpoint test off the
    diagonal is also a sign-rule record, and (nu, nu) must be positive.
    """
    mirror = trsys.rs.mirror
    p = len(pos_encs)
    start = 0
    for b, ((nu, up), step) in enumerate(zip(trsys.spaces.items(), pos_encs)):
        down = mirror(up)
        row = pairings[start:start + p - b]
        start += p - b
        if row[0] <= 0:
            failures.append(Failure("sign-rule", label, f"({nu},{nu}) is not positive"))
        for x, s in zip(pos_encs[b:], row):
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
                failures.append(Failure("string-law", label, end.format(named[x], nu)))
                if x != step:  # off the diagonal
                    failures.append(Failure(
                        "sign-rule", label, f"({nu},{named[x]}) {_SIGN_RULE[(s > 0) - (s < 0)]}"))
            if raised and not reaches[x] & up:
                failures.append(Failure(
                    "string-law", label, f"no raising root sum at {named[x]} along {nu}"))
            if lowered and not reaches[x] & down:
                failures.append(Failure(
                    "string-law", label, f"no lowering root sum at {named[x]} along {nu}"))


def _check_delta(trsys, failures, label):
    """The nilradical trace pairs positively with every positive t-root."""
    row = _form_row(trsys, trsys.delta_key)
    for nu in trsys.positives:
        if sum(map(mul, nu, row)) <= 0:
            failures.append(Failure(
                "trace-positivity", label,
                f"({nu}, delta) is not positive"))


def _check_series(trsys, failures, label):
    """Grading structure plus closed-form central series against the oracles."""
    try:
        levels = grading(trsys)
    except LeviRootsError as exc:
        failures.append(Failure("grading", label, str(exc)))
        return None
    try:
        closed_form_series(trsys, levels)
    except LeviRootsError as exc:
        failures.append(Failure("central-series", label, str(exc)))
    return len(levels)


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


def check_node(ext, trsys: TRootSystem) -> NodeReport:
    """Dual-pipeline classification and residue certificates on a maximal parabolic."""
    failures: list[Failure] = []
    rs, j = trsys.rs, trsys.designation.deleted[0]
    label = f"node={j}"
    n = rs.marks[j - 1]
    classes = None
    try:
        diagram = delete_node(ext, j)
        from_diagram = classify(diagram)
        model = subalgebra_roots(trsys)
        matrix = _cartan_of(rs, model.simple_roots)
        # one matrix has one class: the root pipeline classifies only a
        # matrix that differs from the diagram's
        from_roots = from_diagram if matrix == diagram else classify(matrix)
        classes = from_diagram
        if from_diagram != from_roots:
            failures.append(Failure(
                "equal-rank-classify", label,
                f"diagram pipeline {from_diagram} != root pipeline {from_roots}"))
    except LeviRootsError as exc:
        failures.append(Failure("equal-rank-classify", label, str(exc)))
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
    # a missing class is reported above, and its brackets are not read.
    # Each unordered pair once, p <= q: sums(P, Q) is sums(Q, P), since the
    # sum table is symmetric by construction (RootSums sets bit j of
    # adjz[i] and bit i of adjz[j] together) and the sum is found by
    # adding the two encodings, which commutes
    present = [k for k in range(1, n) if k in model.residues]
    for i, p in enumerate(present):
        for q in present[i:]:
            if (p + q) % n == 0:
                continue
            for msg in residue_bracket_check(model, p, q):
                failures.append(Failure("residue-bracket", label, msg))
    return NodeReport(j, n, classes, tuple(failures))


# ---------------------------------------------------------------------------
# per-type and sweep drivers


class TypeReport:
    __slots__ = ("stype", "designations", "nodes", "sln_failures")

    def __init__(self, stype, designations, nodes, sln_failures):
        self.stype = stype
        self.designations = designations
        self.nodes = nodes
        self.sln_failures = sln_failures

    @property
    def maximal(self) -> list:
        """The maximal-subalgebra table: (node, classes) of the prime-mark
        nodes; one whose classification failed is already a reported failure."""
        return [(r.node, r.classes) for r in self.nodes
                if _is_prime(r.mark) and r.classes is not None]

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


def check_type(rs: RootSystem, all_parabolics: bool = False) -> TypeReport:
    """Build each designation's t-root system once, which certifies its
    spaces irreducible and its t-root form positive definite (a failed build
    is one certification record), and run the designation, node and block
    checks on it."""
    scope = all_parabolic_designations(rs) if all_parabolics else standard_designations(rs)
    type_a = rs.cartan == cartan_matrix(SimpleType("A", rs.rank), max_rank=rs.rank)
    try:
        ext, unsplit = extended_diagram(rs), None
    except LeviRootsError as exc:  # no node can be classified
        ext, unsplit = None, str(exc)
    # every scope holds each node's maximal parabolic, in node order
    reports, nodes, sln_failures = [], [], []
    for des in scope:
        try:
            trsys = troot_system(des)
        except LeviRootsError as exc:
            failure = Failure("certification", _deleted_label(des), str(exc))
            reports.append(DesignationReport(des.deleted, {}, (failure,)))
            trsys = None
        else:
            reports.append(check_designation(trsys))
            if type_a:
                subject = f"blocks={list(slnx.composition_of(des).parts)}"
                for msg in slnx.crosscheck(trsys):
                    sln_failures.append(Failure("block-crosscheck", subject, msg))
        if len(des.deleted) == 1:
            j = des.deleted[0]
            if unsplit is None and trsys is not None:
                nodes.append(check_node(ext, trsys))
            else:
                detail = unsplit or f"the maximal parabolic deleting node {j} failed certification"
                nodes.append(NodeReport(
                    j, rs.marks[j - 1], None, (Failure("equal-rank-classify", f"node={j}", detail),)))
    return TypeReport(rs.stype, reports, nodes, sln_failures)


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
