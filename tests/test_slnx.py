import pytest
from hypothesis import given, settings, strategies as st

from leviroots import (
    InvalidComposition,
    block_table,
    composition,
    crosscheck,
    root_system,
    troot_system,
)
from leviroots.rootsys import SimpleType, cartan_matrix, generate
from leviroots.slnx import Composition, designation_of, sln_document


def test_composition_validation():
    with pytest.raises(InvalidComposition):
        composition([3])  # a single block has no proper parabolic
    with pytest.raises(InvalidComposition):
        composition([2, 0, 1])
    with pytest.raises(InvalidComposition):
        composition([2, -1])
    # parts are checked as given, never coerced to int
    for parts in ([2.5, 1], [True, 1], ["2", 1]):
        with pytest.raises(InvalidComposition):
            composition(parts)
    c = composition((2, 1))
    assert c.n == 3 and c.k == 2
    assert c.cuts() == (2,)


def test_designation_of_round_trip():
    comp = composition([1, 2, 1])
    des = designation_of(comp)
    assert des.rs.stype.family == "A" and des.rs.rank == 3
    assert des.deleted == (1, 3)
    assert des.kept == frozenset({2})


def test_block_table_2_1():
    table = block_table(composition([2, 1]))
    assert table.count == 2
    by_key = {e.key: e for e in table.entries}
    assert set(by_key) == {(1,), (-1,)}
    up = by_key[(1,)]
    assert (up.row, up.col) == (1, 2)
    assert up.dim == 2
    assert up.order == 1
    assert up.acting_blocks == (1,)  # the dim-1 block cannot move anything


def test_block_table_orders_and_dims():
    table = block_table(composition([1, 3, 2]))
    assert table.count == 6
    for e in table.entries:
        assert e.order == abs(e.row - e.col)
        dims = {1: 1, 2: 3, 3: 2}
        assert e.dim == dims[e.row] * dims[e.col]
    # corner entry spans both cuts
    corner = [e for e in table.entries if (e.row, e.col) == (1, 3)]
    assert corner[0].key == (1, 1)


def test_block_keys_match_troots():
    comp = composition([2, 2, 1])
    table = block_table(comp)
    trs = troot_system(designation_of(comp))
    assert {e.key for e in table.entries} == set(trs.keys)
    for e in table.entries:
        assert len(trs.space(e.key).roots) == e.dim


def test_crosscheck_examples():
    for parts in ([2, 1], [1, 1, 1], [3, 3, 3], [4, 5], [1, 2, 3, 2, 1]):
        rep = crosscheck(composition(parts))
        assert rep.ok, rep.failures
        k = len(parts)
        assert rep.count == k * (k - 1)


def test_sln_document():
    doc = sln_document(composition([2, 1]))
    assert doc["schema"] == "leviroots.sln/1"
    assert doc["n"] == 3
    assert doc["blocks"] == [2, 1]
    assert doc["troot_count"] == 2
    entry = doc["spaces"][0]
    assert set(entry) >= {"row", "col", "dim", "key", "order", "acting_blocks"}


def _compositions(n):
    # all compositions of n with at least two parts
    if n == 1:
        return
    for first in range(1, n):
        rest = n - first
        yield (first, rest)
        for tail in _compositions(rest) or ():
            yield (first,) + tail


def test_crosscheck_all_n_le_6():
    total = 0
    for n in range(2, 7):
        for parts in _compositions(n):
            rep = crosscheck(composition(parts))
            assert rep.ok, (parts, rep.failures)
            total += 1
    assert total == sum(2 ** (n - 1) - 1 for n in range(2, 7))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=2, max_size=5).filter(lambda p: sum(p) <= 9))
def test_crosscheck_random(parts):
    rep = crosscheck(composition(parts))
    assert rep.ok, rep.failures


def test_designation_of_reads_the_cartan_matrix():
    # an explicit matrix has no type name; the A3 chain is accepted, B3 is not
    comp = composition([2, 2])
    assert designation_of(comp, generate(cartan_matrix(SimpleType("A", 3)))).deleted == (2,)
    with pytest.raises(InvalidComposition):
        designation_of(comp, generate(cartan_matrix(SimpleType("B", 3))))


def test_crosscheck_reuses_root_system():
    comp = composition([2, 2])
    rs = root_system("A3")
    rep = crosscheck(comp, rs=rs)
    assert rep.ok


def test_frozen_composition_class():
    c = composition([2, 1])
    assert c == Composition((2, 1))
    with pytest.raises(AttributeError):
        c.parts = (3,)
