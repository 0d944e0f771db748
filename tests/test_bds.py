import re
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from leviroots import (
    InvalidCartan,
    InvalidDesignation,
    InvalidPair,
    NotFiniteType,
    SimpleSystemFailure,
    classify,
    designation,
    extended_diagram,
    maximal_equal_rank,
    root_system,
    subalgebra_roots,
    troot_system,
)
from leviroots.bds import (
    DiagramClass,
    SubalgebraModel,
    _cartan_of,
    _is_prime,
    bds_document,
    delete_node,
    extended_dot,
    maximal_document,
    residue_bracket_check,
    residue_irreducibility,
)
from leviroots.levi import ParabolicDesignation
from leviroots.rootsys import SimpleType, all_simple_types, cartan_matrix
from fractions import Fraction as Q

from conftest import classical_root_count, fraction_det
from reference import cartan_of, form


def _split(rs, j):
    """The node split at j, on the maximal parabolic that deletes node j."""
    return subalgebra_roots(troot_system(designation(rs, deleted=[j])))


def test_extended_diagram_g2(g2):
    ext = extended_diagram(g2)
    assert ext.alpha0 == (-3, -2)
    assert ext.links == (0, 1)  # psi is orthogonal to the short simple root
    assert fraction_det(ext.affine_cartan) == 0


def test_affine_cartan_singular_all_types():
    for stype in all_simple_types(8):
        ext = extended_diagram(root_system(stype))
        assert fraction_det(ext.affine_cartan) == 0
        assert sum(1 for m in ext.links if m) <= 3
        assert all(m >= 0 for m in ext.links)


def test_links_match_form():
    # links duplicate 2(psi, alpha_i)/(alpha_i, alpha_i) computed directly
    for name in ("A3", "B3", "C3", "D4", "F4", "G2", "E6"):
        rs = root_system(name)
        ext = extended_diagram(rs)
        psi = rs.highest_root
        for i in range(rs.rank):
            unit = tuple(1 if j == i else 0 for j in range(rs.rank))
            assert ext.links[i] * form(rs, unit, unit) == 2 * form(rs, psi, unit)


# classification round-trips: the named Cartan matrix classifies to itself
@pytest.mark.parametrize("stype", all_simple_types(8), ids=str)
def test_classify_roundtrip(stype):
    got = classify(cartan_matrix(stype))
    want = SimpleType("B", 2) if (stype.family, stype.rank) == ("C", 2) else stype
    assert got.components == (want,)


def test_classify_disjoint_sum():
    a1 = ((2,),)
    two = ((2, 0), (0, 2))
    assert classify(two) == DiagramClass.of([SimpleType("A", 1), SimpleType("A", 1)])
    a2_plus_g2 = (
        (2, -1, 0, 0),
        (-1, 2, 0, 0),
        (0, 0, 2, -1),
        (0, 0, -3, 2),
    )
    cls = classify(a2_plus_g2)
    assert cls.names() == ["A2", "G2"]
    assert str(cls) == "A2+G2"
    assert classify(a1).names() == ["A1"]


def test_simple_types_have_one_order():
    # (family, rank): all_simple_types lists the types in the order that
    # sorted gives them, and DiagramClass.of sorts its components by it
    types = all_simple_types(12)
    shuffled = list(types)
    Random(0).shuffle(shuffled)
    assert shuffled != types and sorted(shuffled) == types
    parts = [SimpleType("B", 2), SimpleType("A", 3), SimpleType("A", 1)]
    assert DiagramClass.of(parts).names() == ["A1", "A3", "B2"]


def test_classify_b_vs_c_orientation():
    b3 = cartan_matrix(SimpleType("B", 3))
    c3 = cartan_matrix(SimpleType("C", 3))
    assert classify(b3).names() == ["B3"]
    assert classify(c3).names() == ["C3"]
    # rank 2: one canonical name
    assert classify(((2, -2), (-1, 2))).names() == ["B2"]
    assert classify(((2, -1), (-2, 2))).names() == ["B2"]


def test_classify_rejects_non_finite():
    with pytest.raises(NotFiniteType):
        classify(((2, -2), (-2, 2)))  # affine A1
    with pytest.raises(NotFiniteType):
        classify(((2, -1, -1), (-1, 2, -1), (-1, -1, 2)))  # cycle
    # two double bonds on a path (affine C)
    with pytest.raises(NotFiniteType):
        classify((
            (2, -2, 0),
            (-1, 2, -1),
            (0, -2, 2),
        ))
    # branch arms (2,2,2) is affine E6
    e6_aff = [[2] * 7 for _ in range(7)]
    for i in range(7):
        for j in range(7):
            if i != j:
                e6_aff[i][j] = 0
    for a, b in [(0, 1), (1, 2), (3, 4), (4, 2), (5, 6), (6, 2)]:
        e6_aff[a][b] = e6_aff[b][a] = -1
    with pytest.raises(NotFiniteType):
        classify(tuple(tuple(r) for r in e6_aff))


def test_delete_node_g2(g2):
    ext = extended_diagram(g2)
    assert classify(delete_node(ext, 1)).names() == ["A2"]
    assert classify(delete_node(ext, 2)).names() == ["A1", "A1"]
    with pytest.raises(InvalidDesignation):
        delete_node(ext, 3)


@pytest.mark.parametrize("nodes, message", [
    ((True,), "node index True is not an integer"),
    ((2.0,), "node index 2.0 is not an integer"),
    (("2",), "node index '2' is not an integer"),
    ((0,), "node indices out of range: [0]"),
    ((3,), "node indices out of range: [3]"),
    ((1, 1), "node indices named twice: [1]"),
], ids=["True", "2.0", "2", "0", "3", "1,1"])
def test_node_numbers_must_be_ints(g2, nodes, message):
    # one check of node numbers, never coerced (True is not node 1, nor 2.0
    # node 2): every entry point that takes them gives one class and text
    ext = extended_diagram(g2)
    calls = [lambda: designation(g2, kept=nodes), lambda: designation(g2, deleted=nodes),
             lambda: ParabolicDesignation(g2, nodes)]
    if len(nodes) == 1:
        [j] = nodes
        calls += [lambda: delete_node(ext, j), lambda: extended_dot(ext, deleted=j),
                  lambda: bds_document(g2, node=j)]
    for call in calls:
        with pytest.raises(InvalidDesignation) as err:
            call()
        assert str(err.value) == message


_GRAMS = {str(t): root_system(t).gram for t in all_simple_types(12)}


@st.composite
def gram_and_vectors(draw):
    """A Gram matrix of rank <= 12, perhaps with one entry moved off the
    symmetric, and integer vectors: unit vectors, the all-zero vector, and
    small entries of either sign."""
    gram = [list(row) for row in _GRAMS[draw(st.sampled_from(sorted(_GRAMS)))]]
    rank = len(gram)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1))
        gram[i][j] += draw(st.integers(-2, 2))
    unit = st.integers(0, rank - 1).map(lambda t: tuple(int(i == t) for i in range(rank)))
    vector = st.one_of(
        unit, st.just((0,) * rank), st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
    vectors = draw(st.lists(vector.map(tuple), min_size=1, max_size=rank + 1))
    return SimpleNamespace(gram=tuple(map(tuple, gram)), rank=rank), vectors


@settings(max_examples=300, deadline=None)
@given(gram_and_vectors())
def test_sparse_cartan_of_matches_the_dense_formula(case):
    # the same matrix, or InvalidCartan with the same text
    rs, vectors = case
    try:
        want = cartan_of(rs, vectors)
    except InvalidCartan as exc:
        with pytest.raises(InvalidCartan, match=f"^{re.escape(str(exc))}$"):
            _cartan_of(rs, vectors)
    else:
        assert _cartan_of(rs, vectors) == want


def test_split_needs_a_maximal_parabolic(g2):
    message = "deleting nodes [1, 2] is no maximal parabolic"
    with pytest.raises(InvalidPair, match=re.escape(message)):
        subalgebra_roots(troot_system(designation(g2, deleted=[1, 2])))


def test_subalgebra_roots_g2(g2):
    model = _split(g2, 2)
    assert model.mark == 2
    assert model.root_set.bit_count() == 4
    assert set(g2.roots_of(model.root_set)) == {(1, 0), (-1, 0), (3, 2), (-3, -2)}
    assert model.simple_roots == ((1, 0), (-3, -2))
    assert model.residues[1].bit_count() == 8
    assert classify(_cartan_of(g2, model.simple_roots)).names() == ["A1", "A1"]


def test_split_matches_the_residue_definition():
    # class k at node j holds the roots whose j-coefficient is k mod the
    # node's mark n; the subalgebra holds those where it is 0
    for stype in all_simple_types(12):
        rs = root_system(stype)
        for j in range(1, rs.rank + 1):
            n = rs.marks[j - 1]
            want = [0] * n
            for i, phi in enumerate(rs.indexed):
                want[phi[j - 1] % n] |= 1 << i
            model = _split(rs, j)
            assert model.mark == n and model.root_set == want[0], (stype, j)
            assert list(model.residues.items()) == list(enumerate(want))[1:], (stype, j)


def test_split_names_a_root_that_is_not_one_signed(monkeypatch, g2):
    # a mark of 2 at node 1, not the highest root's 3, gives (3, 2) the
    # mixed-sign coordinates (1, -1) in the split at node 2
    monkeypatch.setattr(g2, "marks", (2, 2))
    with pytest.raises(SimpleSystemFailure,
                       match=re.escape("root (3, 2) is not a one-signed combination at node 2")):
        _split(g2, 2)


def test_is_prime_matches_trial_division():
    primes = [n for n in range(101) if n > 1 and all(n % d for d in range(2, n))]
    assert [n for n in range(101) if _is_prime(n)] == primes


def test_residue_irreducibility_g2(g2):
    model = _split(g2, 2)
    hw = residue_irreducibility(model, 1)
    assert hw in g2.roots_of(model.residues[1])
    with pytest.raises(InvalidPair):
        residue_irreducibility(model, 2)


def test_residue_brackets_g2(g2):
    model = _split(g2, 1)  # mark 3: classes 1 and 2
    assert residue_bracket_check(model, 1, 1) == ()
    assert residue_bracket_check(model, 2, 2) == ()
    # with the target class emptied, the failure names it: 1+1 = 2, 2+2 = 1
    for p, r in ((1, 2), (2, 1)):
        sizes = model.residues[r].bit_count()
        residues = {**model.residues, r: 0}
        damaged = SubalgebraModel(g2, 1, model.root_set, model.simple_roots, residues)
        assert residue_bracket_check(damaged, p, p) == (
            f"classes {p}+{p}: image misses 0 and adds {sizes} roots vs class {r}",)
    with pytest.raises(InvalidPair):
        residue_bracket_check(model, 1, 2)  # sums land in the subalgebra


def test_dual_pipelines_agree_rank8():
    for stype in all_simple_types(8):
        rs = root_system(stype)
        ext = extended_diagram(rs)
        for j in range(1, rs.rank + 1):
            model = _split(rs, j)
            assert classify(delete_node(ext, j)) == classify(_cartan_of(rs, model.simple_roots)), (
                stype, j)


MAXIMAL = {
    "G2": [(1, "A2"), (2, "A1+A1")],
    "F4": [(1, "A1+C3"), (2, "A2+A2"), (4, "B4")],
    "E6": [(2, "A1+A5"), (3, "A1+A5"), (4, "A2+A2+A2"), (5, "A1+A5")],
    "E7": [(1, "A1+D6"), (2, "A7"), (3, "A2+A5"), (5, "A2+A5"), (6, "A1+D6")],
    "E8": [(1, "D8"), (2, "A8"), (5, "A4+A4"), (7, "A2+E6"), (8, "A1+E7")],
}


@pytest.mark.parametrize("name", sorted(MAXIMAL), ids=sorted(MAXIMAL))
def test_maximal_lists_frozen(name):
    got = [(j, str(c)) for j, c in maximal_equal_rank(root_system(name))]
    assert got == MAXIMAL[name]


@pytest.mark.parametrize("rank", range(1, 9))
def test_maximal_empty_for_a(rank):
    assert maximal_equal_rank(root_system(SimpleType("A", rank))) == []


def test_alcove_vertex(g2, f4):
    def vertex(rs, j):
        [node] = bds_document(rs, node=j)["nodes"]
        return tuple(map(Q, node["alcove_vertex"]))

    assert vertex(g2, 1) == (Q(1, 3), 0)
    assert vertex(g2, 2) == (0, Q(1, 2))
    assert vertex(f4, 3) == (0, 0, Q(1, 4), 0)
    with pytest.raises(InvalidDesignation):
        vertex(g2, 0)


def test_residue_sizes_partition(f4):
    for j in range(1, 5):
        model = _split(f4, j)
        total = model.root_set.bit_count() + sum(v.bit_count() for v in model.residues.values())
        assert total == 48
        for k, v in model.residues.items():
            assert v, (j, k)


def test_extended_dot_structure(g2):
    ext = extended_diagram(g2)
    dot = extended_dot(ext, deleted=2)
    assert dot.startswith("graph extended_diagram {")
    assert "n0" in dot and "n2 [label=" in dot
    assert "fillcolor=lightgray" in dot
    assert 'label="3"' in dot  # the triple bond
    assert dot.endswith("}\n")


def test_bds_document(g2):
    doc = bds_document(g2)
    assert doc["schema"] == "leviroots.bds/1"
    assert doc["marks"] == [3, 2]
    assert len(doc["nodes"]) == 2
    node2 = doc["nodes"][1]
    assert node2["mark"] == 2 and node2["maximal"] is True
    assert node2["subalgebra"] == ["A1", "A1"]
    assert node2["alcove_vertex"] == ["0", "1/2"]
    assert node2["residues"][0]["size"] == 8
    one_node = bds_document(g2, node=2)
    assert len(one_node["nodes"]) == 1


def test_maximal_document(g2):
    doc = maximal_document(g2)
    assert doc["schema"] == "leviroots.maximal/1"
    assert [e["node"] for e in doc["entries"]] == [1, 2]
    assert doc["entries"][0]["subalgebra"] == ["A2"]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(all_simple_types(6)), st.data())
def test_subalgebra_rank_and_size(stype, data):
    rs = root_system(stype)
    j = data.draw(st.integers(1, rs.rank))
    model = _split(rs, j)
    # equal rank: the simple system spans the whole space, with the
    # determinant +-n that the split's span test relies on
    assert abs(fraction_det(model.simple_roots)) == model.mark
    # root count consistent with the classified components
    cls = classify(_cartan_of(rs, model.simple_roots))
    assert model.root_set.bit_count() == sum(classical_root_count(t) for t in cls.components)
