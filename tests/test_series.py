import pytest
from hypothesis import given, settings, strategies as st

from leviroots import (
    closed_form_series,
    designation,
    grading,
    root_system,
    troot_system,
)

from leviroots.checks import all_parabolic_designations, standard_designations
from leviroots.rootsys import all_simple_types, mask_bits
from leviroots.series import (
    lower_series_oracle,
    nilradical_sums,
    series_document,
    upper_series_oracle,
)



def test_order_of():
    # the order of a key is the sum of its entries: (0, 1, 2) has order 3
    # and (1,) order 1
    levels = grading(troot_system(designation(root_system("B3"), kept=())))
    assert (0, 1, 2) in levels[3]
    assert all(sum(key) == k for k, keys in levels.items() for key in keys)
    assert grading(troot_system(designation(root_system("A2"), deleted=[1])))[1] == ((1,),)


def test_borel_a2_grading(a2):
    trsys = troot_system(designation(a2, kept=()))
    levels = grading(trsys)
    # k_cent 2, and the top level holds the center key (1, 1) alone
    assert levels == {1: ((0, 1), (1, 0)), 2: ((1, 1),)}


def test_borel_a2_series(a2):
    trsys = troot_system(designation(a2, kept=()))
    upper = closed_form_series(trsys, grading(trsys))
    assert len(upper) == 2
    assert set(a2.roots_of(upper[0])) == {(1, 1)}
    assert set(a2.roots_of(upper[1])) == {(1, 0), (0, 1), (1, 1)}
    assert lower_series_oracle(trsys, nilradical_sums(trsys)) == upper[::-1]


def test_oracles_match_closed_form(g2, f4):
    for rs, deleted in [(g2, (1,)), (g2, (1, 2)), (f4, (2,)), (f4, (1, 3))]:
        trsys = troot_system(designation(rs, deleted=deleted))
        upper = closed_form_series(trsys, grading(trsys))
        nil = nilradical_sums(trsys)
        assert upper == upper_series_oracle(trsys, nil)
        assert upper[::-1] == lower_series_oracle(trsys, nil)


def test_maximal_parabolic_level_dims(g2):
    # at a single deleted node the grading levels are exactly k*unit
    trsys = troot_system(designation(g2, deleted=(2,)))
    assert grading(trsys) == {1: ((1,),), 2: ((2,),)}


def test_abelian_nilradical():
    # deleting a mark-1 node makes the nilradical abelian: k_cent = 1
    rs = root_system("A4")
    trsys = troot_system(designation(rs, deleted=(2,)))
    levels = grading(trsys)
    assert len(levels) == 1
    [term] = closed_form_series(trsys, levels)
    # the single term is everything
    total = {r for k in trsys.positives for r in rs.roots_of(trsys.spaces[k])}
    assert set(rs.roots_of(term)) == total


def test_reversal_identity():
    # Theorem 0.2 on the two independent oracles: the lower central series
    # is the upper one reversed
    rs = root_system("B4")
    for deleted in [(1,), (4,), (1, 3), (2, 4)]:
        trsys = troot_system(designation(rs, deleted=deleted))
        nil = nilradical_sums(trsys)
        upper = upper_series_oracle(trsys, nil)
        assert len(upper) == len(grading(trsys))
        assert lower_series_oracle(trsys, nil) == upper[::-1]


def test_series_terms_are_unions_of_spaces():
    rs = root_system("C4")
    trsys = troot_system(designation(rs, deleted=(2, 3)))
    upper = closed_form_series(trsys, grading(trsys))
    spaces = [set(rs.roots_of(trsys.spaces[k])) for k in trsys.positives]
    for term in upper:
        for sp in spaces:
            got = sp & set(rs.roots_of(term))
            assert not got or got == sp


def test_document_shape(g2):
    trsys = troot_system(designation(g2, deleted=(1, 2)))
    doc = series_document(trsys)
    assert doc["schema"] == "leviroots.series/1"
    assert doc["k_cent"] == 5
    assert [lvl["order"] for lvl in doc["levels"]] == [1, 2, 3, 4, 5]
    assert len(doc["upper"]) == 5 and len(doc["lower"]) == 5
    assert doc["center_key"] == [3, 2]
    # upper chain ascends, lower chain descends
    sizes_up = [len(t) for t in doc["upper"]]
    sizes_down = [len(t) for t in doc["lower"]]
    assert sizes_up == sorted(sizes_up)
    assert sizes_down == sorted(sizes_down, reverse=True)


@st.composite
def small_designation(draw):
    stype = draw(st.sampled_from(all_simple_types(4)))
    rs = root_system(stype)
    nodes = list(range(1, rs.rank + 1))
    deleted = draw(st.sets(st.sampled_from(nodes), min_size=1).map(sorted))
    return designation(rs, deleted=deleted)


@settings(max_examples=50, deadline=None)
@given(small_designation())
def test_series_matches_oracles_randomized(des):
    trsys = troot_system(des)
    closed_form_series(trsys, grading(trsys))  # raises SeriesMismatch on any gap


@settings(max_examples=50, deadline=None)
@given(small_designation())
def test_k_cent_is_deleted_mark_sum(des):
    trsys = troot_system(des)
    levels = grading(trsys)
    rs = des.rs
    assert len(levels) == max(levels) == sum(rs.marks[j - 1] for j in des.deleted)


def _assert_direct_sums(trsys):
    # each nilradical root's sums with n, against the direct walk of n
    total, nil = nilradical_sums(trsys)
    sums = trsys.rs.sum_table().sums
    assert sorted(nil) == list(mask_bits(total))
    for phi in nil:
        assert nil[phi] == sums((phi,), total), phi


@pytest.mark.parametrize("stype", all_simple_types(12), ids=str)
def test_nilradical_sums_equal_the_direct_sums(stype):
    # every designation to rank 4; to rank 12 the Borel and the maximal
    # parabolics, whose large Levi factors leave most of each row of
    # positive_sums inside the coefficient fiber
    rs = root_system(stype)
    scope = all_parabolic_designations if rs.rank <= 4 else standard_designations
    for des in scope(rs):
        _assert_direct_sums(troot_system(des))


@pytest.mark.parametrize("damage", ["drop", "levi", "negative", "drop-and-levi"])
def test_nilradical_sums_on_damaged_spaces(damage):
    # n read from damaged public spaces: a root dropped, a positive Levi root
    # added, a negative root added, or in one designation a root dropped
    # from one space and a Levi root added to another; each takes the
    # direct sums
    rs = root_system("B3")
    trsys = troot_system(designation(rs, deleted=[2]))
    mask = trsys.spaces[(1,)]
    n_pos = len(rs.positives)
    if damage.startswith("drop"):  # the space's first root by number: its lowest bit
        mask = mask & (mask - 1)
    else:
        mask = mask | 1 << rs.index[(1, 0, 0) if damage == "levi" else (0, -1, 0)]
    trsys.spaces[(1,)] = mask
    if damage == "drop-and-levi":
        trsys.spaces[(2,)] |= 1 << rs.index[(1, 0, 0)]
    _assert_direct_sums(trsys)
    total = nilradical_sums(trsys)[0]
    assert (total >> n_pos != 0) == (damage == "negative")
