from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from leviroots import (
    InvalidDesignation,
    designation,
    root_system,
    troot_system,
)
from leviroots.levi import ParabolicDesignation, TRootSystem, nilradical_trace
from conftest import fraction_solve
from reference import bracket_image, inner, schur_form, sign_rule, string_report
from leviroots.checks import _form_row, all_parabolic_designations
from leviroots.rootsys import all_simple_types


def des_a2_keep2(a2):
    return designation(a2, kept=(2,))


def test_designation_validation(a2):
    with pytest.raises(InvalidDesignation):
        designation(a2, kept=(1, 2))  # must be proper
    with pytest.raises(InvalidDesignation):
        designation(a2, deleted=())
    with pytest.raises(InvalidDesignation):
        designation(a2, kept=(3,))
    with pytest.raises(InvalidDesignation):
        designation(a2, kept=(1,), deleted=(2,))
    d = designation(a2, deleted=(1,))
    assert sorted(d.kept) == [2] and d.deleted == (1,)


@pytest.mark.parametrize("kwargs, message", [
    ({"kept": (3,)}, "node indices out of range: [3]"),
    ({"kept": (0, 1)}, "node indices out of range: [0]"),
    ({"deleted": (3,)}, "node indices out of range: [3]"),
    ({"deleted": (0, 1, 4)}, "node indices out of range: [0, 4]"),
    ({"kept": (1, 2)}, "kept every node; the parabolic must be proper"),
    ({"deleted": ()}, "deleted no node; the parabolic must be proper"),
    ({"deleted": (1, 1)}, "node indices named twice: [1]"),
    ({"kept": (2, 1, 2, 1)}, "node indices named twice: [1, 2]"),
    # node numbers are ints: True is not node 1, nor 2.0 node 2
    ({"kept": [True]}, "node index True is not an integer"),
    ({"deleted": [2.0]}, "node index 2.0 is not an integer"),
    ({"kept": [1.0]}, "node index 1.0 is not an integer"),
    ({"deleted": [1, True]}, "node index True is not an integer"),
])
def test_designation_rejects_bad_nodes(a2, kwargs, message):
    # kept= and deleted= share the constructor's range check
    with pytest.raises(InvalidDesignation) as err:
        designation(a2, **kwargs)
    assert str(err.value) == message


def test_designation_constructor_rejects_non_int_nodes(a2):
    for bad in ([True], [1.0], ["1"]):
        with pytest.raises(InvalidDesignation, match="is not an integer"):
            ParabolicDesignation(a2, bad)


def test_a2_keep2_worked_example(a2):
    trsys = troot_system(des_a2_keep2(a2))
    assert trsys.keys == ((-1,), (1,))
    assert set(a2.roots_of(trsys.spaces[(1,)])) == {(1, 0), (1, 1)}
    # alpha1+alpha2+alpha2 is not a root
    assert trsys.extremes((1,)) == ((1, 1), (1, 0))
    # projection of alpha1: alpha1 + alpha2/2
    beta = trsys.simples[0]
    assert trsys.troot_vec(beta) == (Q(1), Q(1, 2))
    assert inner(trsys, beta, beta) == Q(3, 2)
    det, gs = trsys.form
    assert Q(gs[0][0], det) == Q(3, 2)
    # nilradical trace: delta = 2*beta, (delta, beta) = 3
    assert trsys.delta_key == (2,)
    assert nilradical_trace(trsys) == (Q(2), Q(1))
    assert inner(trsys, trsys.delta_key, beta) == 3
    assert Q(_form_row(trsys, trsys.delta_key)[0], det) == 3


def test_derived_keys_are_not_stored(a2):
    # the simple t-roots and delta are read off the designation and the
    # spaces on each read: neither is a field to assign
    trsys = troot_system(designation(a2, kept=()))
    assert trsys.simples == ((1, 0), (0, 1)) and trsys.delta_key == (2, 2)
    for name in ("simples", "delta_key"):
        assert name not in TRootSystem.__slots__
        with pytest.raises(AttributeError):
            setattr(trsys, name, ())


def test_borel_all_dims_one():
    for name in ("A3", "B3", "G2"):
        rs = root_system(name)
        trsys = troot_system(designation(rs, kept=()))
        assert len(trsys.keys) == len(rs.roots)
        assert all(mask.bit_count() == 1 for mask in trsys.spaces.values())


def test_space_partition_counts():
    rs = root_system("B4")
    for deleted in [(1,), (2,), (1, 3), (2, 4), (1, 2, 3, 4)]:
        des = designation(rs, deleted=deleted)
        trsys = troot_system(des)
        in_levi = sum(
            1 for phi in rs.roots if not any(phi[j - 1] for j in deleted)
        )
        assert sum(m.bit_count() for m in trsys.spaces.values()) + in_levi == len(rs.roots)


def test_highest_and_lowest_certificates():
    # brute force over rs.roots: the highest weight is the one root of the
    # space that no kept simple root raises into Delta u {0}, the lowest the
    # one that none lowers there
    for rs in (root_system("G2"), root_system("B3")):
        zero = (0,) * rs.rank
        for des in all_parabolic_designations(rs):
            units = [tuple(int(t == k) for t in range(rs.rank)) for k in des.kept0]

            def stuck(phi, sign):
                return all(
                    step not in rs.roots and step != zero
                    for u in units
                    for step in [tuple(p + sign * c for p, c in zip(phi, u))]
                )

            trsys = troot_system(des)
            for key, mask in trsys.spaces.items():
                highest, lowest = trsys.extremes(key)
                assert [phi for phi in rs.roots_of(mask) if stuck(phi, 1)] == [highest]
                assert [phi for phi in rs.roots_of(mask) if stuck(phi, -1)] == [lowest]


def test_g2_mark2_parabolic_spaces(g2):
    trsys = troot_system(designation(g2, deleted=(2,)))
    assert trsys.keys == ((-2,), (-1,), (1,), (2,))
    assert trsys.spaces[(1,)].bit_count() == 4
    assert trsys.spaces[(2,)].bit_count() == 1
    assert g2.roots_of(trsys.spaces[(2,)]) == ((3, 2),)


def test_bracket_image_borel(a2):
    trsys = troot_system(designation(a2, kept=()))
    assert bracket_image(trsys, (1, 0), (0, 1)) == ((1, 1),)
    # no root sums at all
    assert bracket_image(trsys, (1, 0), (1, 1)) == ()
    with pytest.raises(ValueError):
        bracket_image(trsys, (1, 0), (-1, 0))  # lands in the Levi factor


def test_bracket_image_g2_beta_beta(g2):
    trsys = troot_system(designation(g2, deleted=(2,)))
    img = bracket_image(trsys, (1,), (1,))
    assert img == g2.roots_of(trsys.spaces[(2,)])


def test_bracket_fills_target_space(f4):
    trsys = troot_system(designation(f4, deleted=(1, 4)))
    for mu in trsys.keys:
        for nu in trsys.keys:
            s = tuple(a + b for a, b in zip(mu, nu))
            if s not in trsys.spaces:
                continue
            assert set(bracket_image(trsys, mu, nu)) == set(f4.roots_of(trsys.spaces[s]))


def test_sign_rule_spot(a2):
    trsys = troot_system(designation(a2, kept=()))
    assert inner(trsys, (1, 0), (0, 1)) < 0 and sign_rule(trsys, (1, 0), (0, 1)) == []
    assert inner(trsys, (1, 0), (1, 1)) > 0 and sign_rule(trsys, (1, 0), (1, 1)) == []
    # equal arguments: the difference vanishes, and the rule is (nu, nu) > 0
    assert sign_rule(trsys, (1, 0), (1, 0)) == []


def test_troot_string_examples(a2, g2):
    borel = troot_system(designation(a2, kept=()))
    assert string_report(borel, (1, 0), (0, 1)) == (0, 1, [])
    trsys = troot_system(designation(g2, deleted=(2,)))
    beta = (1,)
    assert string_report(trsys, beta, beta) == (-3, 1, [])
    assert string_report(trsys, None, beta) == (-2, 2, [])  # through zero
    assert string_report(trsys, (2,), beta) == (-4, 0, [])


def test_troot_string_reports_pass(g2):
    trsys = troot_system(designation(g2, deleted=(2,)))
    weights = [None] + list(trsys.keys)
    for gamma in weights:
        for nu in trsys.keys:
            p, q, failures = string_report(trsys, gamma, nu)
            assert not failures, (gamma, nu, failures)
            assert p <= 0 <= q


def test_troot_string_rejects_non_troot(g2):
    trsys = troot_system(designation(g2, deleted=(2,)))
    with pytest.raises(ValueError):
        string_report(trsys, (5,), (1,))
    with pytest.raises(ValueError):
        string_report(trsys, (1,), (3,))


def test_document_fields(a2):
    doc = troot_system(des_a2_keep2(a2)).document()
    assert doc["schema"] == "leviroots.trootsystem/1"
    assert doc["kept"] == [2] and doc["deleted"] == [1]
    assert [s["dim"] for s in doc["spaces"]] == [2, 2]
    assert doc["trace_vector"] == ["2", "1"]


# -- property sweeps over small designations --------------------------------

SMALL = [t for t in all_simple_types(4)]


@st.composite
def small_designation(draw):
    stype = draw(st.sampled_from(SMALL))
    rs = root_system(stype)
    nodes = list(range(1, rs.rank + 1))
    deleted = draw(st.sets(st.sampled_from(nodes), min_size=1).map(sorted))
    return designation(rs, deleted=deleted)


@settings(max_examples=60, deadline=None)
@given(small_designation())
def test_mirror_spaces(des):
    trsys = troot_system(des)
    for key in trsys.positives:
        neg = tuple(-c for c in key)
        roots_of = trsys.rs.roots_of
        assert {tuple(-c for c in r) for r in roots_of(trsys.spaces[key])} == set(
            roots_of(trsys.spaces[neg])
        )


@settings(max_examples=60, deadline=None)
@given(small_designation())
def test_delta_positive_on_positives(des):
    trsys = troot_system(des)
    for nu in trsys.positives:
        assert inner(trsys, trsys.delta_key, nu) > 0


@settings(max_examples=40, deadline=None)
@given(small_designation())
def test_simples_span_positives(des):
    trsys = troot_system(des)
    # every positive key is a nonnegative integer combination of unit keys
    for key in trsys.positives:
        assert all(c >= 0 for c in key)
    for s in trsys.simples:
        assert sum(s) == 1 and set(s) <= {0, 1}


@settings(max_examples=40, deadline=None)
@given(small_designation(), st.data())
def test_string_report_random_pairs(des, data):
    trsys = troot_system(des)
    keys = list(trsys.keys)
    gamma = data.draw(st.sampled_from([None] + keys))
    nu = data.draw(st.sampled_from(keys))
    _, _, failures = string_report(trsys, gamma, nu)
    assert not failures, failures


@pytest.mark.parametrize("stype", SMALL, ids=str)
def test_troot_vec_matches_fraction_projection(stype):
    # the vector of a unit key is its deleted simple root minus the
    # projection onto the kept span, here by Fraction algebra
    rs = root_system(stype)
    gram = rs.gram
    for des in all_parabolic_designations(rs):
        trsys = troot_system(des)
        K = des.kept0
        span = [[gram[a][b] for b in K] for a in K]
        for unit, d in zip(trsys.simples, des.deleted0):
            want = [Q(int(i == d)) for i in range(rs.rank)]
            if K:
                for c, a in zip(fraction_solve(span, [gram[a][d] for a in K]), K):
                    want[a] -= c
            assert trsys.troot_vec(unit) == tuple(want)


@pytest.mark.parametrize("stype", SMALL, ids=str)
def test_inner_matches_fraction_schur_complement(stype):
    # every designation of every type of rank <= 4, every pair of t-roots
    for des in all_parabolic_designations(root_system(stype)):
        trsys = troot_system(des)
        form = schur_form(des)
        det, scaled = trsys.form
        assert det > 0
        assert tuple(tuple(Q(v, det) for v in row) for row in scaled) == form
        for mu in trsys.keys:
            row = [sum(Q(a) * form[x][y] for x, a in enumerate(mu)) for y in range(len(mu))]
            scaled_row = _form_row(trsys, mu)
            for nu in trsys.keys:
                want = sum(r * b for r, b in zip(row, nu))
                assert inner(trsys, mu, nu) == want
                # the integer row the sweep pairs with is det times the exact one
                assert Q(sum(b * r for b, r in zip(nu, scaled_row)), det) == want
