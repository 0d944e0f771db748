import re
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from leviroots import (
    InvalidCartan,
    InvalidRank,
    LeviRootsError,
    NotFiniteType,
    classify,
    designation,
    generate,
    root_system,
    troot_system,
)
from leviroots.bds import bds_document, maximal_document
from leviroots.rootsys import (
    SimpleType,
    all_simple_types,
    cartan_matrix,
    mask_bits,
    symmetrizers,
)

from conftest import classical_root_count


def test_parse_and_str():
    assert SimpleType.parse("E8") == SimpleType("E", 8)
    assert str(SimpleType("A", 1)) == "A1"
    assert SimpleType.parse("b3") == SimpleType("B", 3)


@pytest.mark.parametrize("bad", ["Z9", "A0", "E9", "D3", "B1", "F5", "G3", "A", "4"])
def test_parse_rejects(bad):
    with pytest.raises((InvalidRank, ValueError)):
        SimpleType.parse(bad)


def test_all_simple_types_rank8_count():
    types = all_simple_types(8)
    assert len(types) == 32
    names = [str(t) for t in types]
    assert "D4" in names and "D3" not in names and "E5" not in names


# every classical/exceptional root count, rank <= 8
@pytest.mark.parametrize("stype", all_simple_types(8), ids=str)
def test_root_counts(stype):
    rs = root_system(stype)
    assert len(rs.roots) == classical_root_count(stype)
    assert len(rs.positives) * 2 == len(rs.roots)


def test_cartan_matrix_shapes():
    g2 = cartan_matrix(SimpleType("G", 2))
    assert g2 == ((2, -1), (-3, 2))
    b3 = cartan_matrix(SimpleType("B", 3))
    assert b3[1][2] == -2 and b3[2][1] == -1
    c3 = cartan_matrix(SimpleType("C", 3))
    assert c3[2][1] == -2 and c3[1][2] == -1
    f4 = cartan_matrix(SimpleType("F", 4))
    assert f4[1][2] == -2 and f4[2][1] == -1


def test_symmetrizers_values():
    assert symmetrizers(cartan_matrix(SimpleType("G", 2))) == (1, 3)
    assert symmetrizers(cartan_matrix(SimpleType("B", 3))) == (2, 2, 1)
    assert symmetrizers(cartan_matrix(SimpleType("C", 3))) == (1, 1, 2)
    assert symmetrizers(cartan_matrix(SimpleType("F", 4))) == (2, 2, 1, 1)
    assert symmetrizers(cartan_matrix(SimpleType("A", 5))) == (1, 1, 1, 1, 1)


def test_symmetrizers_reject_decomposable():
    with pytest.raises(InvalidCartan):
        symmetrizers(((2, 0), (0, 2)))


def test_gram_is_symmetric():
    for name in ("A3", "B4", "C4", "D5", "F4", "G2", "E6"):
        rs = root_system(name)
        for i in range(rs.rank):
            for j in range(rs.rank):
                assert rs.gram[i][j] == rs.gram[j][i]
            assert rs.gram[i][i] == 2 * rs.d[i]


MARKS = {
    "G2": (3, 2),
    "F4": (2, 3, 4, 2),
    "E6": (1, 2, 2, 3, 2, 1),
    "E7": (2, 2, 3, 4, 3, 2, 1),
    "E8": (2, 3, 4, 6, 5, 4, 3, 2),
    "A4": (1, 1, 1, 1),
    "B4": (1, 2, 2, 2),
    "C4": (2, 2, 2, 1),
    "D5": (1, 2, 2, 1, 1),
}


@pytest.mark.parametrize("name,marks", sorted(MARKS.items()), ids=sorted(MARKS))
def test_highest_root_marks(name, marks):
    assert root_system(name).marks == marks


def test_highest_root_dominates():
    # every positive root is coefficient-wise at most the highest root
    for name in ("A5", "B5", "C5", "D6", "E6", "F4", "G2"):
        rs = root_system(name)
        psi = rs.highest_root
        for r in rs.positives:
            assert all(c <= m for c, m in zip(r, psi))


def test_highest_root_is_long():
    for name in ("B3", "C3", "F4", "G2"):
        rs = root_system(name)
        psi = rs.highest_root
        length = rs.form(psi, psi)
        assert length == max(rs.form(r, r) for r in rs.roots)


def test_form_values_a2(a2):
    assert a2.form((1, 0), (1, 0)) == 2
    assert a2.form((1, 0), (0, 1)) == -1
    assert a2.form((Q(1), Q(1, 2)), (Q(1), Q(1, 2))) == Q(3, 2)


def test_form_values_g2(g2):
    assert g2.form((1, 0), (1, 0)) == 2
    assert g2.form((0, 1), (0, 1)) == 6
    assert g2.form((1, 0), (0, 1)) == -3
    assert g2.form(g2.highest_root, g2.highest_root) == 6


def test_root_strings_have_no_gaps(g2):
    # walking from any root toward any simple root never skips: the set
    # {k : phi + k*alpha_i in roots or vanishes} is an interval
    zero = lambda v: not any(v)
    for rs in (g2, root_system("B3")):
        for phi in rs.roots:
            for i in range(rs.rank):
                unit = tuple(1 if j == i else 0 for j in range(rs.rank))
                ks = [k for k in range(-6, 7)
                      for v in [tuple(p + k * u for p, u in zip(phi, unit))]
                      if v in rs.roots or zero(v)]
                assert ks == list(range(min(ks), max(ks) + 1))


def test_generate_rejects_nonsense():
    with pytest.raises(InvalidCartan):
        generate(((2, -1), (0, 2)))  # asymmetric zero pattern
    with pytest.raises(InvalidCartan):
        generate(((1, 0), (0, 1)))  # diagonal not 2
    with pytest.raises(NotFiniteType):
        generate(((2, -2), (-2, 2)))  # affine A1
    with pytest.raises(NotFiniteType):
        generate(((2, -1, -1), (-1, 2, -1), (-1, -1, 2)))  # affine A2 cycle


@pytest.mark.parametrize("matrix, message", [
    (((2.0, -1), (-1, 2)), "entry a[0][0] = 2.0 is not an integer"),
    (((2, -1.0), (-1, 2)), "entry a[0][1] = -1.0 is not an integer"),
    (((2, True), (-1, 2)), "entry a[0][1] = True is not an integer"),
    (((2, -1, False), (-1, 2, -1), (0, -1, 2)), "entry a[0][2] = False is not an integer"),
    (((2, "x"), (-1, 2)), "entry a[0][1] = 'x' is not an integer"),
    (((2, -1), (None, 2)), "entry a[1][0] = None is not an integer"),
    ((2, -1), "the matrix must be a sequence of rows"),
    (None, "the matrix must be a sequence of rows"),
])
def test_generate_and_classify_reject_non_integer_entries(matrix, message):
    # one validator for both: the entry is named, never coerced, and
    # never reaches a comparison that raises TypeError
    for build in (generate, classify):
        with pytest.raises(InvalidCartan, match=re.escape(message)):
            build(matrix)


def test_generate_explicit_matrix_matches_named():
    rs = generate(((2, -1), (-3, 2)))
    named = root_system("G2")
    assert rs.roots == named.roots
    assert rs.stype is None


def test_encode_roundtrip(f4):
    # encodings of distinct roots never collide
    assert len({f4.encode(r) for r in f4.roots}) == len(f4.roots)


def test_negation_closure():
    for stype in all_simple_types(5):
        rs = root_system(stype)
        for r in rs.roots:
            assert tuple(-c for c in r) in rs.roots


def test_document_shape(a2):
    doc = a2.document()
    assert doc["schema"] == "leviroots.rootsystem/1"
    assert doc["count"] == 6
    assert doc["positives"][-1] == [1, 1]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(all_simple_types(6)))
def test_sum_of_two_roots_is_root_or_not_by_form(stype):
    # (phi, psi) < 0 for distinct non-opposite roots forces phi+psi to be a root
    rs = root_system(stype)
    roots = sorted(rs.roots)[:40]
    for phi in roots:
        for psi in roots:
            if phi == psi or all(a + b == 0 for a, b in zip(phi, psi)):
                continue
            if rs.form(phi, psi) < 0:
                assert tuple(a + b for a, b in zip(phi, psi)) in rs.roots


def test_root_numbering(f4):
    n_pos = len(f4.positives)
    assert f4.indexed[:n_pos] == f4.positives
    for i, r in enumerate(f4.positives):
        assert f4.indexed[i + n_pos] == tuple(-c for c in r)
    assert all(f4.index[r] == i for i, r in enumerate(f4.indexed))
    assert frozenset(f4.indexed) == f4.roots


def test_mask_roundtrip(f4):
    some = f4.indexed[3::7]
    mask = sum(1 << f4.index[r] for r in some)
    assert mask_bits(mask) == sorted(f4.index[r] for r in some)
    assert f4.roots_of(mask) == tuple(sorted(some, key=f4.index.get))
    assert f4.roots_of(0) == () and mask_bits(0) == []


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "F4", "D4"])
def test_sum_table_matches_brute_force(name):
    rs = root_system(name)
    table = rs.sum_table()
    roots = rs.indexed
    zero = (0,) * rs.rank

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    for i, a in enumerate(roots):
        expected = {j for j, b in enumerate(roots) if add(a, b) in rs.roots or add(a, b) == zero}
        assert set(mask_bits(table.adjz[i])) == expected
    # sums and reach against set arithmetic, on a few index/mask pairs
    for left in (roots[:3], roots[5:9], roots):
        for right in (roots[2:11], roots[-6:], roots):
            got = table.sums([rs.index[a] for a in left], sum(1 << rs.index[b] for b in right))
            want = {add(a, b) for a in left for b in right} & rs.roots
            assert set(rs.roots_of(got)) == want
        reach = table.reach(rs.index[a] for a in left)
        want = {j for j, b in enumerate(roots)
                if any(add(a, b) in rs.roots or add(a, b) == zero for a in left)}
        assert set(mask_bits(reach)) == want


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "F4", "D4"])
def test_step_table_matches_brute_force(name):
    rs = root_system(name)
    zero = (0,) * rs.rank
    for i, phi in enumerate(rs.indexed):
        ups = set()
        for k in range(rs.rank):
            up = tuple(c + (t == k) for t, c in enumerate(phi))
            if up in rs.roots or up == zero:
                ups.add(k)
        assert set(mask_bits(rs.step_table()[i])) == ups


def test_sum_table_built_lazily_and_once():
    rs = root_system("E6")
    assert rs._sums is None
    # the verbs that need no root sums never build the table
    rs.document()
    troot_system(designation(rs, deleted=[2])).document()
    bds_document(rs)
    maximal_document(rs)
    assert rs._sums is None
    table = rs.sum_table()
    assert rs.sum_table() is table


def test_step_table_built_on_first_use_and_once():
    rs = root_system("E6")
    assert rs._steps is None
    rs.document()
    bds_document(rs)
    assert rs._steps is None
    troot_system(designation(rs, deleted=[2]))
    steps = rs._steps
    assert steps is not None and rs.step_table() is steps


# -- generate and classify on arbitrary integer matrices --------------------


@st.composite
def integer_matrix(draw):
    """An integer matrix of rank <= 4: any entries, or a generalized Cartan
    matrix (2 on the diagonal, nonpositive off it, symmetric zero pattern),
    which covers finite, affine, indefinite and non-symmetrizable types."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                             min_size=n, max_size=n))
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                a[i][j], a[j][i] = -draw(st.integers(1, 4)), -draw(st.integers(1, 4))
    return a


AFFINE_AND_INDEFINITE = [
    [[2, -2], [-2, 2]],                        # affine A1
    [[2, -1], [-4, 2]],                        # affine A2 twisted
    [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],   # affine A2
    [[2, -3], [-3, 2]],                        # hyperbolic
    [[2, -1, 0], [-2, 2, -2], [0, -1, 2]],     # affine C2
    [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]],   # not symmetrizable
]


@settings(max_examples=400, deadline=2000)
@given(integer_matrix() | st.sampled_from(AFFINE_AND_INDEFINITE))
def test_generate_and_classify_fuzz(matrix):
    # each either succeeds or raises a LeviRootsError, in well under the
    # deadline; a generated system is one finite type of the same rank
    try:
        rs = generate(matrix)
    except LeviRootsError:
        rs = None
    try:
        cls = classify(matrix)
    except LeviRootsError:
        cls = None
    if rs is not None:
        [stype] = cls.components
        assert stype.rank == len(matrix)
        assert len(rs.roots) == classical_root_count(stype)


# -- an independent source: sympy's tables ----------------------------------


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "F4", "G2", "E6"])
def test_cartan_matrix_matches_sympy(name):
    sympy_cartan = pytest.importorskip("sympy.liealgebras.cartan_matrix")
    # sympy uses the same Bourbaki numbering and column convention
    want = sympy_cartan.CartanMatrix(name).tolist()
    assert [list(row) for row in cartan_matrix(SimpleType.parse(name))] == want


@pytest.mark.parametrize("name", ["A1", "A4", "B2", "B4", "C3", "C5", "D4", "D5"])
def test_root_count_matches_sympy(name):
    sympy_roots = pytest.importorskip("sympy.liealgebras.root_system")
    want = len(sympy_roots.RootSystem(name).all_roots())
    assert len(root_system(name).roots) == want
