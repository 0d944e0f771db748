"""Equal-rank subalgebras via the extended diagram.

Adjoining the negative of the highest root to the simple roots gives
the extended (affine) diagram; deleting one node with mark n leaves the
simple system of an equal-rank subalgebra, realized here two
independent ways: once as a Cartan matrix read off the extended
diagram, and once as the honest root subset
``{phi : coefficient on the node in {0, +-n}}`` with simple system
``kept simples + (-highest)``.  The remaining roots split into residue
classes of the node coefficient mod n; each class is certified
irreducible by a unique highest-weight root, and residue classes
multiply by addition mod n.

Diagram classification works on structural fingerprints alone (rank,
bond orders with orientation, branch arms), so it also names root
systems built from explicit user matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul

from . import exactlin
from .errors import InvalidCartan, InvalidPair, IrreducibilityViolation, NotFiniteType, SimpleSystemFailure
from .exactlin import RatVec
from .rootsys import CartanMatrix, Root, RootSystem, SimpleType, _validate_cartan, mask_bits


def _require_node(rs: RootSystem, j: int) -> None:
    """Reject a node number outside the ordinary diagram's 1..rank."""
    if not 1 <= j <= rs.rank:
        raise InvalidPair(f"node {j} out of range 1..{rs.rank}")


def _cartan_of(rs: RootSystem, vectors: list[Root] | tuple[Root, ...]) -> CartanMatrix:
    """Cartan-type entries 2(x,y)/(y,y) of integer vectors, on the Gram matrix."""
    images = [[sum(map(mul, row, y)) for row in rs.gram] for y in vectors]  # G y
    form = [[sum(map(mul, x, gy)) for gy in images] for x in vectors]
    for a, b in product(range(len(vectors)), repeat=2):
        if 2 * form[a][b] % form[b][b]:
            raise InvalidCartan(
                f"2(x,y)/(y,y) is not an integer for {vectors[a]}, {vectors[b]}")
    return tuple(tuple(2 * f // form[b][b] for b, f in enumerate(row)) for row in form)


@dataclass(frozen=True)
class ExtendedDiagram:
    """The affine diagram: base system, the adjoined node, link counts."""

    rs: RootSystem
    alpha0: Root
    links: tuple[int, ...]
    affine_cartan: CartanMatrix


def extended_diagram(rs: RootSystem) -> ExtendedDiagram:
    """Adjoin the lowest root and read its links to each node.

    The link count at node i is 2(alpha_i, psi)/(alpha_i, alpha_i) with
    psi the highest root, minus row 0 of the (l+1)-node Cartan-type
    matrix including the new node; that matrix is singular, which is
    asserted.
    """
    alpha0 = tuple(-c for c in rs.highest_root)
    vectors = [alpha0] + [
        tuple(1 if j == i else 0 for j in range(rs.rank)) for i in range(rs.rank)
    ]
    affine = _cartan_of(rs, vectors)
    links = tuple(-m for m in affine[0][1:])
    if any(m < 0 for m in links):
        raise AssertionError("negative link to the highest root")
    if sum(1 for m in links if m) > 3:
        raise AssertionError("highest root linked to more than 3 nodes")
    if exactlin.det(affine) != 0:
        raise AssertionError("extended Cartan matrix is not singular")
    return ExtendedDiagram(rs, alpha0, links, affine)


def delete_node(ext: ExtendedDiagram, j: int) -> CartanMatrix:
    """Cartan matrix left after deleting node j from the extended diagram.

    Rows/columns run over the kept nodes in ascending order followed by
    the adjoined node: a slice of ``ext.affine_cartan``.
    """
    _require_node(ext.rs, j)
    order = [i for i in range(1, ext.rs.rank + 1) if i != j] + [0]
    affine = ext.affine_cartan
    return tuple(tuple(affine[x][y] for y in order) for x in order)


@dataclass(frozen=True)
class SubalgebraModel:
    """Root-level model of the equal-rank subalgebra at one node.

    root_set is the subalgebra's root set, simple_roots its certified
    simple system (kept simples then the lowest root), and residues[k]
    collects the leftover roots whose node coefficient is congruent to
    k mod the node's mark, each as a mask over ``rs.indexed``.
    """

    rs: RootSystem
    node: int
    mark: int
    root_set: int
    simple_roots: tuple[Root, ...]
    cartan_of_sub: CartanMatrix
    residues: dict[int, int]


def subalgebra_roots(rs: RootSystem, j: int) -> SubalgebraModel:
    """Split the root set at node j into subalgebra and residue classes.

    Every subalgebra root is certified to be a one-signed integer
    combination of the candidate simple system; the affine relation is
    pinned down by exact rank computations.
    """
    _require_node(rs, j)
    j0 = j - 1
    n = rs.marks[j0]
    kept = [i for i in range(rs.rank) if i != j0]
    psi = rs.highest_root
    minus_psi = tuple(-c for c in psi)

    root_set = 0
    residues = dict.fromkeys(range(1, n), 0)
    for i, phi in enumerate(rs.indexed):
        c = phi[j0]
        if c % n:
            residues[c % n] |= 1 << i
            continue
        root_set |= 1 << i
        # one-signed integer coordinates in the candidate simple system
        c0 = -c // n
        coords = [phi[t] + c0 * rs.marks[t] for t in kept] + [c0]
        if not (all(x >= 0 for x in coords) or all(x <= 0 for x in coords)):
            raise SimpleSystemFailure(
                f"root {phi} is not a one-signed combination at node {j}"
            )
    if root_set.bit_count() + sum(v.bit_count() for v in residues.values()) != len(rs.indexed):
        raise AssertionError("residue classes do not partition the root set")

    simple_roots = tuple(
        tuple(1 if t == i else 0 for t in range(rs.rank)) for i in kept
    ) + (minus_psi,)
    if exactlin.rank_of(simple_roots) != rs.rank:
        raise SimpleSystemFailure("candidate simple system does not span")
    unit_j = tuple(1 if t == j0 else 0 for t in range(rs.rank))
    if exactlin.rank_of(simple_roots + (unit_j,)) != rs.rank:
        raise SimpleSystemFailure("affine relation is not the only dependency")

    cartan = _cartan_of(rs, simple_roots)
    return SubalgebraModel(rs, j, n, root_set, simple_roots, cartan, residues)


# ---------------------------------------------------------------------------
# diagram classification


@dataclass(frozen=True)
class DiagramClass:
    """Multiset of simple types, canonically sorted (B2 for B2=C2, A3 for A3=D3)."""

    components: tuple[SimpleType, ...]

    @classmethod
    def of(cls, types) -> "DiagramClass":
        return cls(tuple(sorted(types, key=lambda t: (t.family, t.rank))))

    def __str__(self) -> str:
        return "+".join(str(t) for t in self.components) if self.components else "0"

    def names(self) -> list[str]:
        return [str(t) for t in self.components]


def _component_type(sub: list[list[int]]) -> SimpleType:
    n = len(sub)
    if n == 1:
        return SimpleType("A", 1)
    edges = []
    for i in range(n):
        for k in range(i + 1, n):
            if sub[i][k]:
                bond = sub[i][k] * sub[k][i]
                if bond not in (1, 2, 3):
                    raise NotFiniteType(f"bond order {bond} is not finite type")
                edges.append((i, k, bond))
    if len(edges) != n - 1:
        raise NotFiniteType("diagram component is not a tree")
    deg = [0] * n
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, k, _ in edges:
        deg[i] += 1
        deg[k] += 1
        adj[i].append(k)
        adj[k].append(i)
    bonds = sorted(b for _, _, b in edges)
    if bonds[-1] == 3:
        if n == 2:
            return SimpleType("G", 2)
        raise NotFiniteType("triple bond in a component of rank > 2")
    if bonds[-1] == 2:
        if bonds.count(2) > 1 or max(deg) > 2:
            raise NotFiniteType("multiple double bonds or a branched double bond")
        if n == 2:
            return SimpleType("B", 2)  # canonical name for B2 = C2
        u, k, _ = next((i, k, b) for i, k, b in edges if b == 2)
        ends = {i for i in (u, k) if deg[i] == 1}
        if not ends:
            if n == 4:
                return SimpleType("F", 4)
            raise NotFiniteType("interior double bond occurs only at rank 4")
        end = min(ends)
        other = k if end == u else u
        # short terminal root <=> the entry normalized by the end is -2
        short_end = sub[other][end] == -2
        return SimpleType("B" if short_end else "C", n)
    # simply laced
    if max(deg) >= 3:
        branches = [i for i in range(n) if deg[i] >= 3]
        if len(branches) > 1 or deg[branches[0]] > 3:
            raise NotFiniteType("more than one branch point, or degree above 3")
        center = branches[0]
        arms = []
        for start in adj[center]:
            length = 1
            prev, cur = center, start
            while deg[cur] == 2:
                nxt = next(x for x in adj[cur] if x != prev)
                prev, cur = cur, nxt
                length += 1
            arms.append(length)
        arms.sort()
        if arms[0] == 1 and arms[1] == 1:
            return SimpleType("D", n)
        if arms == [1, 2, 2]:
            return SimpleType("E", 6)
        if arms == [1, 2, 3]:
            return SimpleType("E", 7)
        if arms == [1, 2, 4]:
            return SimpleType("E", 8)
        raise NotFiniteType(f"branch arms {arms} are not finite type")
    return SimpleType("A", n)


def classify(cartan) -> DiagramClass:
    """Name the finite type of a (possibly decomposable) Cartan matrix.

    Purely structural: connected components, bond orders with their
    orientation, and branch-arm lengths.  Raises NotFiniteType when the
    fingerprint matches no finite type.
    """
    cartan = _validate_cartan(cartan)
    n = len(cartan)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for k in range(n):
                if not seen[k] and cartan[i][k]:
                    seen[k] = True
                    stack.append(k)
        comp.sort()
        comps.append(comp)
    types = []
    for comp in comps:
        sub = [[cartan[i][k] for k in comp] for i in comp]
        types.append(_component_type(sub))
    return DiagramClass.of(types)


# ---------------------------------------------------------------------------
# residue classes as modules


def residue_irreducibility(model: SubalgebraModel, k: int) -> Root:
    """The unique highest-weight root of residue class k.

    The raising set is the subalgebra's simple system; uniqueness of
    the annihilated root certifies that the class is irreducible as a
    module over the equal-rank subalgebra.
    """
    if k not in model.residues:
        raise InvalidPair(f"residue class {k} not in 1..{model.mark - 1}")
    # phi + alpha not a root for every raising alpha, on encodings (never
    # zero: -alpha lies in the subalgebra); -psi is no simple step, so the
    # step table cannot answer this
    rs = model.rs
    hits, encs = rs._enc_index, rs._encs
    raising = [rs.encode(a) for a in model.simple_roots]
    hw = [i for i in mask_bits(model.residues[k])
          if all(encs[i] + a not in hits for a in raising)]
    if len(hw) != 1:
        raise IrreducibilityViolation(
            f"residue class {k} at node {model.node} has {len(hw)} highest weights"
        )
    return rs.indexed[hw[0]]


class ResidueBracketReport:
    """Outcome of one residue multiplication check (classes add mod n)."""

    __slots__ = ("p", "q", "r", "ok", "failures")

    def __init__(self, p, q, r, ok, failures):
        self.p, self.q, self.r = p, q, r
        self.ok = ok
        self.failures = failures


def residue_bracket_check(model: SubalgebraModel, p: int, q: int) -> ResidueBracketReport:
    """Check that root sums from classes p and q fill class p+q mod n.

    Requires p + q nonzero mod n (otherwise sums land in the subalgebra
    itself rather than a residue class).
    """
    n = model.mark
    if p not in model.residues or q not in model.residues:
        raise InvalidPair(f"residue classes must lie in 1..{n - 1}")
    r = (p + q) % n
    if r == 0:
        raise InvalidPair("p + q = 0 mod n lands in the subalgebra, not a class")
    residues = model.residues
    got = model.rs.sum_table().sums(mask_bits(residues[p]), residues[q])
    expected = residues[r]
    failures = []
    if got != expected:
        missing = (expected & ~got).bit_count()
        extra = (got & ~expected).bit_count()
        failures.append(
            f"classes {p}+{q}: image misses {missing} and adds {extra} roots vs class {r}"
        )
    return ResidueBracketReport(p, q, r, not failures, tuple(failures))


def maximal_equal_rank(rs: RootSystem) -> list[tuple[int, DiagramClass]]:
    """Nodes with prime mark, each with its equal-rank subalgebra class.

    Prime marks are exactly the nodes whose subalgebra is maximal among
    proper equal-rank subalgebras.
    """
    ext = extended_diagram(rs)
    return [(j, classify(delete_node(ext, j)))
            for j in range(1, rs.rank + 1) if _is_prime(rs.marks[j - 1])]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n ** 0.5) + 1))


def alcove_vertex(rs: RootSystem, j: int) -> RatVec:
    """Fixed-point coordinates at node j: 1/mark in the coweight basis."""
    _require_node(rs, j)
    n = rs.marks[j - 1]
    return tuple(
        Fraction(1, n) if i == j - 1 else Fraction(0) for i in range(rs.rank)
    )


# ---------------------------------------------------------------------------
# serialization


def _node_entry(ext: ExtendedDiagram, j: int) -> dict:
    rs = ext.rs
    model = subalgebra_roots(rs, j)
    cls = classify(delete_node(ext, j))
    residues = [
        {
            "class": k,
            "size": model.residues[k].bit_count(),
            "highest": list(residue_irreducibility(model, k)),
        }
        for k in sorted(model.residues)
    ]
    return {
        "node": j,
        "mark": model.mark,
        "maximal": _is_prime(model.mark),
        "subalgebra": cls.names(),
        "subalgebra_root_count": model.root_set.bit_count(),
        "simple_roots": [list(r) for r in model.simple_roots],
        "cartan": [list(row) for row in model.cartan_of_sub],
        "alcove_vertex": [exactlin.rat_str(c) for c in alcove_vertex(rs, j)],
        "residues": residues,
    }


def bds_document(rs: RootSystem, node: int | None = None) -> dict:
    """JSON-ready equal-rank data: all nodes, or one chosen node."""
    ext = extended_diagram(rs)
    nodes = [node] if node is not None else list(range(1, rs.rank + 1))
    return {
        "schema": "leviroots.bds/1",
        "type": str(rs.stype) if rs.stype else None,
        "rank": rs.rank,
        "marks": list(rs.marks),
        "adjoined_root": list(ext.alpha0),
        "links": list(ext.links),
        "affine_cartan": [list(row) for row in ext.affine_cartan],
        "nodes": [_node_entry(ext, j) for j in nodes],
    }


def maximal_document(rs: RootSystem) -> dict:
    """JSON-ready list of maximal equal-rank subalgebras (prime marks)."""
    return {
        "schema": "leviroots.maximal/1",
        "type": str(rs.stype) if rs.stype else None,
        "entries": [
            {"node": j, "mark": rs.marks[j - 1], "subalgebra": cls.names()}
            for j, cls in maximal_equal_rank(rs)
        ],
    }


# ---------------------------------------------------------------------------
# DOT rendering


def extended_dot(ext: ExtendedDiagram, deleted: int | None = None) -> str:
    """Graphviz DOT text for the extended diagram.

    Node 0 is the adjoined lowest root; a deleted node (one of 1..rank)
    is drawn filled.  Edge labels carry bond orders above 1.
    """
    rs = ext.rs
    if deleted is not None:
        _require_node(rs, deleted)
    lines = ["graph extended_diagram {", "  node [shape=circle];"]
    name = str(rs.stype) if rs.stype else f"rank{rs.rank}"
    lines.append(f'  label="{name} extended";')
    for i in range(rs.rank + 1):
        mark = 1 if i == 0 else rs.marks[i - 1]
        attrs = [f'label="{i}\\n[{mark}]"']
        if deleted == i:
            attrs.append('style=filled fillcolor=lightgray')
        lines.append(f"  n{i} [{' '.join(attrs)}];")
    affine = ext.affine_cartan
    size = rs.rank + 1
    for i in range(size):
        for k in range(i + 1, size):
            if affine[i][k]:
                bond = affine[i][k] * affine[k][i]
                label = f' [label="{bond}"]' if bond > 1 else ""
                lines.append(f"  n{i} -- n{k}{label};")
    lines.append("}")
    return "\n".join(lines) + "\n"
