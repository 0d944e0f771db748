import re
from fractions import Fraction as Q
from itertools import combinations
from operator import add

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
from leviroots.checks import all_parabolic_designations, standard_designations
from leviroots.series import series_document
from leviroots.rootsys import (
    SimpleType,
    all_simple_types,
    cartan_matrix,
    decimal,
    mask_bits,
    symmetrizers,
)

import reference
from conftest import classical_root_count


def test_parse_and_str():
    assert SimpleType.parse("E8") == SimpleType("E", 8)
    assert str(SimpleType("A", 1)) == "A1"
    assert SimpleType.parse("b3") == SimpleType("B", 3)


@pytest.mark.parametrize("bad", ["Z9", "A0", "E9", "D3", "B1", "F5", "G3", "A", "4"])
def test_parse_rejects(bad):
    with pytest.raises(InvalidRank):
        SimpleType.parse(bad)


@pytest.mark.parametrize("name", ["A²", "A٣", "E８", "A1_0"])
def test_parse_rejects_what_int_reads_but_ascii_digits_do_not_spell(name):
    # int() reads other scripts' digits and underscores, and str.isdigit()
    # passes superscripts; a rank is ASCII decimal digits only
    with pytest.raises(InvalidRank, match=re.escape(f"cannot parse simple type from {name!r}")):
        root_system(name)
    assert decimal(name[1:]) is None


@pytest.mark.parametrize("rank", [True, 8.0, "8", None])
def test_simple_type_rank_must_be_an_int(rank):
    # never coerced: True is not rank 1 (type "ATrue"), nor 8.0 rank 8
    for family in ("A", "E"):
        with pytest.raises(InvalidRank) as err:
            root_system(SimpleType(family, rank))
        assert str(err.value) == f"rank {rank!r} is not an integer"


def test_decimal_reads_ascii_digits_only():
    assert decimal("0") == 0 and decimal("012") == 12
    for text in ("", "-1", "+1", " 2", "2 ", "1_0", "٢", "８", "²", "1.0"):
        assert decimal(text) is None, text


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
        length = reference.form(rs, psi, psi)
        assert length == max(reference.form(rs, r, r) for r in rs.roots)


def test_form_values_a2(a2):
    assert reference.form(a2, (1, 0), (1, 0)) == 2
    assert reference.form(a2, (1, 0), (0, 1)) == -1
    assert reference.form(a2, (Q(1), Q(1, 2)), (Q(1), Q(1, 2))) == Q(3, 2)


def test_form_values_g2(g2):
    assert reference.form(g2, (1, 0), (1, 0)) == 2
    assert reference.form(g2, (0, 1), (0, 1)) == 6
    assert reference.form(g2, (1, 0), (0, 1)) == -3
    assert reference.form(g2, g2.highest_root, g2.highest_root) == 6


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


def _encodes_injectively(rs, vectors):
    """Whether rs.encode is injective on zero, the vectors and every sum of
    two of them; vectors closed under negation make the sums cover the
    differences."""
    assert {tuple([-c for c in v]) for v in vectors} == set(vectors)
    vecs = {(0,) * len(vectors[0]), *vectors}
    vecs.update(tuple(map(add, a, b)) for i, a in enumerate(vectors) for b in vectors[i:])
    return len({rs.encode(v) for v in vecs}) == len(vecs)


def test_encode_roundtrip():
    # the one encoding, generate's key, on every type of rank <= 12: each
    # root's encoding is its entry in _encs, and the sums and differences
    # of two roots, and of two t-root keys, encode injectively, which the
    # sum table and the key index of check_designation rely on.  The Borel's keys are the roots
    for stype in all_simple_types(12):
        rs = root_system(stype)
        assert [rs.encode(phi) for phi in rs.indexed] == list(rs._encs), stype
        assert _encodes_injectively(rs, rs.indexed), stype
        scope = all_parabolic_designations(rs) if rs.rank <= 4 else standard_designations(rs)
        for des in scope:
            if len(des.deleted) < rs.rank:
                keys = reference.troot_keys(troot_system(des))
                assert _encodes_injectively(rs, keys), (stype, des.deleted)


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
            if reference.form(rs, phi, psi) < 0:
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


def test_sum_table_is_symmetric():
    # bit j of adjz[i] exactly when bit i of adjz[j], on every type of rank
    # <= 12: check_node reads each unordered pair of residue classes once
    for stype in all_simple_types(12):
        adjz = root_system(stype).sum_table().adjz
        transposed = [0] * len(adjz)
        for i, row in enumerate(adjz):
            for j in mask_bits(row):
                transposed[j] |= 1 << i
        assert transposed == adjz, stype


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
        reach = table.reach(sum(1 << rs.index[a] for a in left))
        want = {j for j, b in enumerate(roots)
                if any(add(a, b) in rs.roots or add(a, b) == zero for a in left)}
        assert set(mask_bits(reach)) == want


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "F4", "D4"])
def test_positive_sums_match_brute_force(name):
    rs = root_system(name)
    rows = rs.sum_table().positive_sums()
    assert len(rows) == len(rs.positives)
    for i, a in enumerate(rs.positives):
        want = {tuple(x + y for x, y in zip(a, b)) for b in rs.positives} & rs.roots
        assert set(rs.roots_of(rows[i])) == want


def test_positive_sums_built_on_first_use_and_once():
    rs = root_system("E6")
    # the troots and bds verbs build the sum table but not its positive
    # sums; only the central-series oracles of the series verb do
    trsys = troot_system(designation(rs, deleted=[2]))
    trsys.document()
    bds_document(rs)
    table = rs.sum_table()
    assert table._pos_sums is None
    series_document(trsys)
    rows = table._pos_sums
    assert rows is not None and table.positive_sums() is rows


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "F4"])
def test_coefficient_masks_hold_each_coefficient_value(name):
    rs = root_system(name)
    assert rs.columns() == tuple(
        tuple(phi[k] for phi in rs.positives) for k in range(rs.rank))
    for k, masks in enumerate(rs.coefficient_masks()):
        assert sorted(masks) == sorted({phi[k] for phi in rs.positives})
        for c, mask in masks.items():
            assert rs.roots_of(mask) == tuple(phi for phi in rs.positives if phi[k] == c)


def test_coefficient_masks_built_on_first_use_and_once():
    rs = root_system("E6")
    rs.document()
    maximal_document(rs)
    assert rs._columns is None and rs._coef_masks is None
    # the bds verb's t-root systems read the columns, and its split no masks
    bds_document(rs)
    assert rs._columns is not None and rs._coef_masks is None
    masks = rs.coefficient_masks()
    assert rs.coefficient_masks() is masks and rs.columns() is rs.columns()


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "F4", "D4"])
def test_simple_mask_raises_like_brute_force(name):
    # the simple roots of each node set, and the roots that they raise
    # within Delta u {0}: the reach of their mask in the sum table
    rs = root_system(name)
    zero = (0,) * rs.rank
    for size in range(rs.rank + 1):
        for nodes in combinations(range(rs.rank), size):
            mask = rs.simple_mask(nodes)
            assert set(rs.roots_of(mask)) == {
                tuple(int(t == k) for t in range(rs.rank)) for k in nodes}
            ups = set()
            for i, phi in enumerate(rs.indexed):
                for k in nodes:
                    up = tuple(c + (t == k) for t, c in enumerate(phi))
                    if up in rs.roots or up == zero:
                        ups.add(i)
            assert set(mask_bits(rs.sum_table().reach(mask))) == ups


@pytest.mark.parametrize("name", ["A3", "G2", "F4"])
def test_mirror_is_negation(name):
    rs = root_system(name)
    for i, phi in enumerate(rs.indexed):
        assert rs.mirror(1 << i) == 1 << rs.index[tuple(-c for c in phi)]
    assert rs.mirror((1 << len(rs.indexed)) - 1) == (1 << len(rs.indexed)) - 1


def test_weight_certificate_reads_both_extremes():
    # B2 with node 2 kept: the space at (1,) is alpha_1, alpha_1 + alpha_2
    # and alpha_1 + 2 alpha_2, raised by alpha_2 from the bottom up
    rs = root_system("B2")
    space = sum(1 << rs.index[r] for r in [(1, 0), (1, 1), (1, 2)])
    raised = rs.sum_table().reach(1 << rs.index[(0, 1)])
    top, bottom = rs.weight_certificate(space, raised, rs.mirror(raised))
    assert rs.roots_of(top) == ((1, 2),) and rs.roots_of(bottom) == ((1, 0),)
    # with nothing raising, every root is both a highest and a lowest weight
    assert rs.weight_certificate(space, 0, 0) == (space, space)


def test_sum_table_built_lazily_and_once():
    # the roots verb and the maximal table never build the table; the
    # weight certificates of the troots and bds verbs read their raising
    # masks from it
    rs = root_system("E6")
    rs.document()
    maximal_document(rs)
    assert rs._sums is None
    troot_system(designation(rs, deleted=[2])).document()
    table = rs._sums
    assert table is not None and rs.sum_table() is table
    bds_document(rs)
    assert rs._sums is table
    fresh = root_system("E6")
    bds_document(fresh)
    assert fresh._sums is not None


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


def _outcome(build, matrix):
    """The positives and symmetrizers that build makes of matrix, or the
    type and text of the error it raises."""
    try:
        rs = build(matrix)
    except LeviRootsError as exc:
        return type(exc), str(exc)
    return rs.positives, rs.d


# the incremental closure and the integer symmetrizers against the string
# walk and the Fraction ratios they replaced: the same positives in the
# same order, or the same error with the same text


@pytest.mark.parametrize("stype", all_simple_types(12), ids=str)
def test_generate_matches_string_walk_on_every_type(stype):
    matrix = cartan_matrix(stype)
    assert _outcome(generate, matrix) == _outcome(reference.generate, matrix)


@pytest.mark.parametrize("matrix", AFFINE_AND_INDEFINITE)
def test_generate_matches_string_walk_on_affine_and_indefinite(matrix):
    assert _outcome(generate, matrix) == _outcome(reference.generate, matrix)


@settings(max_examples=400, deadline=None)
@given(integer_matrix())
def test_generate_matches_string_walk_on_integer_matrices(matrix):
    assert _outcome(generate, matrix) == _outcome(reference.generate, matrix)


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
