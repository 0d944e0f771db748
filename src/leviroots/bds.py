"""Equal-rank subalgebras via the extended diagram.

Adjoining the negative of the highest root to the simple roots gives
the extended (affine) diagram; deleting one node with mark n leaves the
simple system of an equal-rank subalgebra, realized here two
independent ways: once as a Cartan matrix read off the extended
diagram, and once as a root subset read off the t-root system of the
maximal parabolic that deletes the node (Remark 3.9): the Levi factor
plus g_n and g_-n, with simple system ``kept simples + (-highest)``.
Both Cartan matrices come from ``_cartan_of``, on vectors read by their
nonzero terms; the node check classifies the second only when it differs
from the first, since one matrix has one class.  The other roots split
into the residue classes g_k | g_(k-n); each class is certified
irreducible by a unique highest-weight root, and residue classes multiply
by addition mod n, which commutes, so each unordered pair is checked once.
The model stores the split alone: n is the node's own mark, read from the
root system wherever it is used.

Diagram classification works on structural fingerprints alone (rank,
bond orders with orientation, branch arms), so it also names root
systems built from explicit user matrices.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from math import isqrt
from operator import gt, or_

from .errors import InvalidCartan, InvalidPair, IrreducibilityViolation, NotFiniteType, SimpleSystemFailure
from .rootsys import CartanMatrix, FrozenRecord, Root, RootSystem, SimpleType, _validate_cartan
from .rootsys import mask_bits, node_set


def _cartan_of(rs: RootSystem, vectors: list[Root] | tuple[Root, ...]) -> CartanMatrix:
    """Cartan-type entries 2(x,y)/(y,y) of integer vectors, on the Gram matrix.

    Each vector is read as its nonzero (index, coefficient) terms.  G y is
    the sum of c times column t of G over the terms of y, with the columns
    read off G as it stands, symmetric or not.  Row x of the pairings
    x . G y is the same sum over the terms of x, with column t now the
    entries t of every G y.  So a unit vector's G y is one column of G, and
    its row of pairings one such column.
    """
    terms = [[(t, c) for t, c in zip(range(rs.rank), v) if c] for v in vectors]

    def combine(columns, width):  # per vector, the sum of c * columns[t] over its terms
        zero, out = (0,) * width, []
        for y in terms:
            parts = [columns[t] if c == 1 else [c * g for g in columns[t]] for t, c in y]
            out.append(parts[0] if len(parts) == 1 else tuple(map(sum, zip(zero, *parts))))
        return out

    images = combine(tuple(zip(*rs.gram)), rs.rank)  # G y
    form = combine(tuple(zip(*images)), len(vectors))  # form[a][b] = x_a . G y_b
    for a, b in product(range(len(vectors)), repeat=2):
        if not form[b][b] or 2 * form[a][b] % form[b][b]:  # a damaged form may zero (y,y)
            raise InvalidCartan(
                f"2(x,y)/(y,y) is not an integer for {vectors[a]}, {vectors[b]}")
    return tuple(tuple(2 * f // form[b][b] for b, f in enumerate(row)) for row in form)


class ExtendedDiagram:
    """The affine diagram: base system, the adjoined node, link counts."""

    __slots__ = ("rs", "alpha0", "links", "affine_cartan")

    def __init__(self, rs: RootSystem, alpha0: Root, links: tuple[int, ...],
                 affine_cartan: CartanMatrix):
        self.rs = rs
        self.alpha0 = alpha0
        self.links = links
        self.affine_cartan = affine_cartan


def extended_diagram(rs: RootSystem) -> ExtendedDiagram:
    """Adjoin the lowest root and read its links to each node.

    The link count at node i is 2(alpha_i, psi)/(alpha_i, alpha_i) with
    psi the highest root, minus row 0 of the (l+1)-node Cartan-type
    matrix including the new node.  That matrix is singular by
    construction: its l+1 vectors lie in Z^l.
    """
    alpha0 = tuple(-c for c in rs.highest_root)
    vectors = [alpha0] + [
        tuple(1 if j == i else 0 for j in range(rs.rank)) for i in range(rs.rank)
    ]
    affine = _cartan_of(rs, vectors)
    links = tuple(-m for m in affine[0][1:])
    if any(m < 0 for m in links):
        raise NotFiniteType("negative link to the highest root")
    if sum(1 for m in links if m) > 3:
        raise NotFiniteType("highest root linked to more than 3 nodes")
    return ExtendedDiagram(rs, alpha0, links, affine)


def delete_node(ext: ExtendedDiagram, j: int) -> CartanMatrix:
    """Cartan matrix left after deleting node j from the extended diagram.

    Rows/columns run over the kept nodes in ascending order followed by
    the adjoined node: a slice of ``ext.affine_cartan``.
    """
    node_set(ext.rs.rank, (j,))
    order = [i for i in range(1, ext.rs.rank + 1) if i != j] + [0]
    affine = ext.affine_cartan
    return tuple(tuple(affine[x][y] for y in order) for x in order)


class SubalgebraModel:
    """Root-level model of the equal-rank subalgebra at one node.

    root_set is the subalgebra's root set, simple_roots its certified
    simple system (kept simples then the lowest root), and residues[k]
    collects the leftover roots whose node coefficient is congruent to
    k mod the node's mark, each as a mask over ``rs.indexed``.  Its Cartan
    matrix is ``_cartan_of(rs, simple_roots)`` and its mark is the node's
    mark, each computed where it is read.
    """

    __slots__ = ("rs", "node", "root_set", "simple_roots", "residues")

    def __init__(self, rs: RootSystem, node: int, root_set: int,
                 simple_roots: tuple[Root, ...], residues: dict[int, int]):
        self.rs = rs
        self.node = node
        self.root_set = root_set
        self.simple_roots = simple_roots
        self.residues = residues

    @property
    def mark(self) -> int:
        """The mark of the node: its coefficient in the highest root."""
        return self.rs.marks[self.node - 1]


def subalgebra_roots(trsys) -> SubalgebraModel:
    """Split the roots at the node j that trsys's maximal parabolic deletes.

    With n the mark of j, the t-roots are +-1..n times the unit key (Remark
    3.9): the subalgebra is the Levi factor (the roots in no space) plus
    g_n and g_-n, and class k is g_k | g_(k-n).  Every root of g_n is
    certified to be a one-signed combination of the candidate simple system.
    """
    des, rs, spaces = trsys.designation, trsys.rs, trsys.spaces
    if len(des.deleted) != 1:
        raise InvalidPair(f"deleting nodes {list(des.deleted)} is no maximal parabolic")
    j0 = des.deleted0[0]
    j, n = j0 + 1, rs.marks[j0]
    # the kept unit vectors and -psi have determinant +-n
    if not n:
        raise SimpleSystemFailure("candidate simple system does not span")
    if n < 0:  # a mark of the highest root is positive; n is a modulus below
        raise SimpleSystemFailure(f"mark {n} of node {j} is negative")

    # phi in g_n has coordinate -1 on -psi and phi_t - psi_t on each kept
    # simple root: it is one-signed when phi <= psi entrywise
    top = spaces.get((n,), 0)
    for phi in rs.roots_of(top):
        if any(map(gt, phi, rs.marks)):
            raise SimpleSystemFailure(f"root {phi} is not a one-signed combination at node {j}")
    levi = ((1 << len(rs.indexed)) - 1) & ~reduce(or_, spaces.values(), 0)
    root_set = levi | top | spaces.get((-n,), 0)
    residues = {k: spaces.get((k,), 0) | spaces.get((k - n,), 0) for k in range(1, n)}

    simple_roots = tuple(
        tuple(1 if t == i else 0 for t in range(rs.rank)) for i in range(rs.rank) if i != j0
    ) + (tuple(-c for c in rs.highest_root),)
    return SubalgebraModel(rs, j, root_set, simple_roots, residues)


# ---------------------------------------------------------------------------
# diagram classification


class DiagramClass(FrozenRecord):
    """Multiset of simple types, canonically sorted (B2 for B2=C2, A3 for A3=D3)."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[SimpleType, ...]):
        object.__setattr__(self, "components", components)

    def _key(self) -> tuple[SimpleType, ...]:
        return self.components

    @classmethod
    def of(cls, types) -> "DiagramClass":
        return cls(tuple(sorted(types)))

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

    The raising set is the subalgebra's simple system, the kept simple
    roots and -psi alike: its raising mask is the reach of their mask in
    the root-sum table, and ``rs.weight_certificate`` reads the class's
    highest weights off it; a unique one certifies that the class is
    irreducible as a module over the equal-rank subalgebra.  Class k is
    minus class n - k, whose own test certifies the lowest weights.
    """
    if k not in model.residues:
        raise InvalidPair(f"node {model.node} has no residue class {k}")
    rs = model.rs
    simples = 0
    for r in model.simple_roots:
        if r not in rs.index:
            raise IrreducibilityViolation(f"simple root {r} at node {model.node} is not a root")
        simples |= 1 << rs.index[r]
    top = rs.weight_certificate(model.residues[k], rs.sum_table().reach(simples))[0]
    if top.bit_count() != 1:
        raise IrreducibilityViolation(
            f"residue class {k} at node {model.node} has {top.bit_count()} highest weights")
    return rs.indexed[top.bit_length() - 1]


def residue_bracket_check(model: SubalgebraModel, p: int, q: int) -> tuple[str, ...]:
    """Check that root sums from classes p and q fill class p+q mod n, and
    return the failure texts (none when they do).

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
    expected = residues.get(r, 0)  # a damaged model may lack class r
    if got == expected:
        return ()
    missing, extra = (expected & ~got).bit_count(), (got & ~expected).bit_count()
    return (f"classes {p}+{q}: image misses {missing} and adds {extra} roots vs class {r}",)


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
    return all(n % d for d in range(2, isqrt(n) + 1))


# ---------------------------------------------------------------------------
# serialization


def _node_entry(ext: ExtendedDiagram, j: int) -> dict:
    from fractions import Fraction  # bds --dot and maximal load no fractions
    from .levi import designation, troot_system  # and read no t-roots

    rs = ext.rs
    cls = classify(delete_node(ext, j))
    model = subalgebra_roots(troot_system(designation(rs, deleted=(j,))))
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
        "cartan": [list(row) for row in _cartan_of(rs, model.simple_roots)],
        # the fixed-point vertex: 1/mark at node j in the coweight basis
        "alcove_vertex": [str(Fraction(1, model.mark)) if i == j else "0"
                          for i in range(1, rs.rank + 1)],
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
        node_set(rs.rank, (deleted,))
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
