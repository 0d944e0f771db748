import pytest
from hypothesis import given, settings, strategies as st

from leviroots import (
    closed_form_series,
    designation,
    grading,
    root_system,
    troot_system,
)
from leviroots.rootsys import all_simple_types
from leviroots.series import (
    lower_series_oracle,
    order_of,
    series_document,
    upper_series_oracle,
)


def test_order_of():
    assert order_of((1, 0, 2)) == 3
    assert order_of((1,)) == 1


def test_borel_a2_grading(a2):
    trsys = troot_system(designation(a2, kept=()))
    grad = grading(trsys)
    assert grad.k_cent == 2
    assert grad.levels[1] == ((0, 1), (1, 0))
    assert grad.levels[2] == ((1, 1),)
    assert grad.center_key == (1, 1)


def test_borel_a2_series(a2):
    trsys = troot_system(designation(a2, kept=()))
    series = closed_form_series(trsys)
    assert series.length == 2
    assert set(a2.roots_of(series.upper[0])) == {(1, 1)}
    assert set(a2.roots_of(series.upper[1])) == {(1, 0), (0, 1), (1, 1)}
    assert series.lower[0] == series.upper[1]
    assert series.lower[1] == series.upper[0]


def test_oracles_match_closed_form(g2, f4):
    for rs, deleted in [(g2, (1,)), (g2, (1, 2)), (f4, (2,)), (f4, (1, 3))]:
        trsys = troot_system(designation(rs, deleted=deleted))
        series = closed_form_series(trsys)
        assert list(series.upper) == list(upper_series_oracle(trsys))
        assert list(series.lower) == list(lower_series_oracle(trsys))


def test_maximal_parabolic_level_dims(g2):
    # at a single deleted node the grading levels are exactly k*unit
    trsys = troot_system(designation(g2, deleted=(2,)))
    grad = grading(trsys)
    assert grad.k_cent == 2
    assert grad.levels == {1: ((1,),), 2: ((2,),)}


def test_abelian_nilradical():
    # deleting a mark-1 node makes the nilradical abelian: k_cent = 1
    rs = root_system("A4")
    trsys = troot_system(designation(rs, deleted=(2,)))
    grad = grading(trsys)
    assert grad.k_cent == 1
    series = closed_form_series(trsys, grad)
    assert series.length == 1
    assert series.upper[0] == series.lower[0]
    # the single term is everything
    total = {r for k in trsys.positives for r in trsys.spaces[k].roots}
    assert set(rs.roots_of(series.upper[0])) == total


def test_reversal_identity():
    rs = root_system("B4")
    for deleted in [(1,), (4,), (1, 3), (2, 4)]:
        trsys = troot_system(designation(rs, deleted=deleted))
        series = closed_form_series(trsys)
        k = series.length
        for i in range(k):
            assert series.lower[i] == series.upper[k - i - 1]


def test_series_terms_are_unions_of_spaces():
    rs = root_system("C4")
    trsys = troot_system(designation(rs, deleted=(2, 3)))
    series = closed_form_series(trsys)
    spaces = [set(trsys.spaces[k].roots) for k in trsys.positives]
    for term in list(series.upper) + list(series.lower):
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
    closed_form_series(trsys)  # raises SeriesMismatch on any gap


@settings(max_examples=50, deadline=None)
@given(small_designation())
def test_k_cent_is_deleted_mark_sum(des):
    trsys = troot_system(des)
    grad = grading(trsys)
    rs = des.rs
    assert grad.k_cent == sum(rs.marks[j - 1] for j in des.deleted)
    assert max(grad.levels) == grad.k_cent
