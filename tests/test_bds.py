import pytest
from hypothesis import given, settings, strategies as st

from leviroots import (
    InvalidPair,
    NotFiniteType,
    classify,
    extended_diagram,
    maximal_equal_rank,
    root_system,
    subalgebra_roots,
)
from leviroots.bds import (
    DiagramClass,
    alcove_vertex,
    bds_document,
    delete_node,
    extended_dot,
    maximal_document,
    residue_bracket_check,
    residue_irreducibility,
)
from leviroots.rootsys import SimpleType, all_simple_types, cartan_matrix
from leviroots import exactlin
from fractions import Fraction as Q


def test_extended_diagram_g2(g2):
    ext = extended_diagram(g2)
    assert ext.alpha0 == (-3, -2)
    assert ext.links == (0, 1)  # psi is orthogonal to the short simple root
    assert exactlin.det(ext.affine_cartan) == 0


def test_affine_cartan_singular_all_types():
    for stype in all_simple_types(8):
        ext = extended_diagram(root_system(stype))
        assert exactlin.det(ext.affine_cartan) == 0
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
            assert ext.links[i] * rs.form(unit, unit) == 2 * rs.form(psi, unit)


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
    with pytest.raises(InvalidPair):
        delete_node(ext, 3)


def test_subalgebra_roots_g2(g2):
    model = subalgebra_roots(g2, 2)
    assert model.mark == 2
    assert model.root_set.bit_count() == 4
    assert set(g2.roots_of(model.root_set)) == {(1, 0), (-1, 0), (3, 2), (-3, -2)}
    assert model.simple_roots == ((1, 0), (-3, -2))
    assert model.residues[1].bit_count() == 8
    assert classify(model.cartan_of_sub).names() == ["A1", "A1"]


def test_residue_irreducibility_g2(g2):
    model = subalgebra_roots(g2, 2)
    hw = residue_irreducibility(model, 1)
    assert hw in g2.roots_of(model.residues[1])
    with pytest.raises(InvalidPair):
        residue_irreducibility(model, 2)


def test_residue_brackets_g2(g2):
    model = subalgebra_roots(g2, 1)  # mark 3: classes 1 and 2
    rep = residue_bracket_check(model, 1, 1)
    assert rep.ok and rep.r == 2
    rep = residue_bracket_check(model, 2, 2)
    assert rep.ok and rep.r == 1
    with pytest.raises(InvalidPair):
        residue_bracket_check(model, 1, 2)  # sums land in the subalgebra


def test_dual_pipelines_agree_rank8():
    for stype in all_simple_types(8):
        rs = root_system(stype)
        ext = extended_diagram(rs)
        for j in range(1, rs.rank + 1):
            model = subalgebra_roots(rs, j)
            assert classify(delete_node(ext, j)) == classify(model.cartan_of_sub), (
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
    assert alcove_vertex(g2, 1) == (Q(1, 3), 0)
    assert alcove_vertex(g2, 2) == (0, Q(1, 2))
    assert alcove_vertex(f4, 3) == (0, 0, Q(1, 4), 0)
    with pytest.raises(InvalidPair):
        alcove_vertex(g2, 0)


def test_residue_sizes_partition(f4):
    for j in range(1, 5):
        model = subalgebra_roots(f4, j)
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
    model = subalgebra_roots(rs, j)
    # equal rank: the simple system spans the whole space
    assert exactlin.rank_of(model.simple_roots) == rs.rank
    # root count consistent with the classified components
    cls = classify(model.cartan_of_sub)
    from conftest import classical_root_count
    assert model.root_set.bit_count() == sum(classical_root_count(t) for t in cls.components)
