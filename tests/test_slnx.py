import pytest
from hypothesis import given, settings, strategies as st

from leviroots import (
    InvalidComposition,
    block_table,
    composition,
    crosscheck,
    designation,
    root_system,
    troot_system,
)
from leviroots.rootsys import SimpleType, cartan_matrix, generate
from leviroots.checks import all_parabolic_designations
from leviroots.slnx import Composition, composition_of, designation_of, sln_document



def test_composition_validation():
    with pytest.raises(InvalidComposition):
        composition([3])  # a single block has no proper parabolic
    with pytest.raises(InvalidComposition):
        composition([2, 0, 1])
    with pytest.raises(InvalidComposition):
        composition([2, -1])
    # parts are checked as given, never coerced to int
    for parts in ([2.5, 1], [2.0, 1], [True, 1], ["2", 1]):
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


def test_composition_of_inverts_designation_of():
    # every designation of A1..A8 is the parabolic of exactly one composition
    for rank in range(1, 9):
        rs = root_system(SimpleType("A", rank))
        designations = all_parabolic_designations(rs)
        assert len(designations) == 2 ** rank - 1
        for des in designations:
            comp = composition_of(des)
            assert comp.n == rank + 1 and comp.cuts() == des.deleted
            assert composition_of(designation_of(comp, rs)) == comp


def test_block_table_2_1():
    table = block_table(composition([2, 1]))
    assert len(table) == 2
    by_key = {e.key: e for e in table}
    assert set(by_key) == {(1,), (-1,)}
    up = by_key[(1,)]
    assert (up.row, up.col) == (1, 2)
    assert up.dim == 2
    assert up.order == 1
    assert up.acting_blocks == (1,)  # the dim-1 block cannot move anything


def test_block_table_orders_and_dims():
    table = block_table(composition([1, 3, 2]))
    assert len(table) == 6
    for e in table:
        assert e.order == abs(e.row - e.col)
        dims = {1: 1, 2: 3, 3: 2}
        assert e.dim == dims[e.row] * dims[e.col]
    # corner entry spans both cuts
    corner = [e for e in table if (e.row, e.col) == (1, 3)]
    assert corner[0].key == (1, 1)


def test_block_keys_match_troots():
    comp = composition([2, 2, 1])
    table = block_table(comp)
    trs = troot_system(designation_of(comp))
    assert {e.key for e in table} == set(trs.keys)
    for e in table:
        assert trs.spaces[e.key].bit_count() == e.dim


def _blocks(parts, rs=None):
    """The t-root system of the parabolic whose blocks are parts."""
    return troot_system(designation_of(composition(parts), rs))


def test_crosscheck_examples():
    for parts in ([2, 1], [1, 1, 1], [3, 3, 3], [4, 5], [1, 2, 3, 2, 1]):
        assert crosscheck(_blocks(parts)) == ()
        k = len(parts)
        assert len(block_table(composition(parts))) == k * (k - 1)


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
            failures = crosscheck(_blocks(parts))
            assert failures == (), (parts, failures)
            total += 1
    assert total == sum(2 ** (n - 1) - 1 for n in range(2, 7))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=2, max_size=5).filter(lambda p: sum(p) <= 9))
def test_crosscheck_random(parts):
    assert crosscheck(_blocks(parts)) == ()


def test_designation_of_reads_the_cartan_matrix():
    # an explicit matrix has no type name; the A3 chain is accepted, B3 is not
    comp = composition([2, 2])
    assert designation_of(comp, generate(cartan_matrix(SimpleType("A", 3)))).deleted == (2,)
    with pytest.raises(InvalidComposition):
        designation_of(comp, generate(cartan_matrix(SimpleType("B", 3))))


def test_designation_of_names_the_rejected_system():
    comp = composition([2, 2])
    with pytest.raises(InvalidComposition) as exc:
        designation_of(comp, generate(cartan_matrix(SimpleType("B", 3))))
    assert str(exc.value) == "composition of 4 needs type A3, got an explicit rank-3 matrix"
    with pytest.raises(InvalidComposition) as exc:
        designation_of(comp, root_system("B3"))
    assert str(exc.value) == "composition of 4 needs type A3, got B3"


def test_crosscheck_refuses_a_system_that_is_not_type_a():
    # the same validation as designation_of: no mismatch texts for B3
    t = troot_system(designation(root_system("B3"), deleted=[2]))
    with pytest.raises(InvalidComposition) as exc:
        crosscheck(t)
    assert str(exc.value) == "composition of 4 needs type A3, got B3"
    t = troot_system(designation(generate(cartan_matrix(SimpleType("B", 3))), deleted=[2]))
    with pytest.raises(InvalidComposition, match="got an explicit rank-3 matrix"):
        crosscheck(t)


def test_dropped_troot_breaks_the_key_sets():
    t = _blocks([1, 1, 1])
    del t.spaces[(1, 1)], t.spaces[(-1, -1)]
    assert crosscheck(t) == ("key sets differ: 6 blocks vs 4 spaces",)
    assert len(block_table(composition([1, 1, 1]))) == 6


def test_moved_root_breaks_the_acting_blocks():
    # block (1, 2) is (1, 0, 0), which block 3 leaves alone; (0, 1, 1) in
    # its place keeps the dimension, but alpha_3 moves it
    rs = root_system("A3")
    t = _blocks([1, 1, 2], rs)
    t.spaces[(1, 0)] = 1 << rs.index[(0, 1, 1)]
    assert crosscheck(t) == (
        "block 1,2: diagonal block 3 acts contrary to the table",)


def test_inert_block_breaks_the_acting_blocks():
    # block (1, 3) is (1, 1), which block 3 moves; alpha_1 and -alpha_1 in
    # its place keep the dimension, but no root of block 3 moves them
    rs = root_system("A3")
    t = _blocks([1, 1, 2], rs)
    t.spaces[(1, 1)] = 1 << rs.index[(1, 0, 0)] | 1 << rs.index[(-1, 0, 0)]
    assert crosscheck(t) == (
        "block 1,3: diagonal block 3 is inert contrary to the table",)


def test_crosscheck_reuses_root_system():
    rs = root_system("A3")
    t = _blocks([2, 2], rs)
    assert t.rs is rs and crosscheck(t) == ()


def test_frozen_composition_class():
    c = composition([2, 1])
    assert c == Composition((2, 1))
    with pytest.raises(AttributeError):
        c.parts = (3,)
