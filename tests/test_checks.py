"""The invariant sweep must pass on real data and fail on corrupted data."""

import re
from ast import literal_eval
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leviroots import (
    check_type,
    designation,
    extended_diagram,
    root_system,
    sweep_types,
)
from leviroots.checks import (
    all_parabolic_designations,
    check_designation,
    check_document,
    check_node,
    standard_designations,
)
from leviroots import bds, checks, slnx
from leviroots.rootsys import (
    RootSystem, SimpleType, all_simple_types, cartan_matrix, generate, mask_bits,
)
from leviroots.errors import NotFiniteType, SeriesMismatch
from leviroots.levi import TRootSystem, troot_system as real_troot_system
from leviroots.series import closed_form_series, grading, nilradical_sums, upper_series_oracle
from conftest import replace
from reference import bracket_image, inner, sign_rule, string_report


def test_all_parabolic_designations_count():
    for name, rank in (("A2", 2), ("B3", 3), ("D4", 4)):
        rs = root_system(name)
        des = all_parabolic_designations(rs)
        assert len(des) == 2 ** rank - 1
        # deterministic order: by deleted-set size, then nodes
        sizes = [len(d.deleted) for d in des]
        assert sizes == sorted(sizes)


def test_standard_designations_dedupe_rank1():
    rs = root_system("A1")
    des = standard_designations(rs)
    assert len(des) == 1  # Borel == the only maximal parabolic


def test_standard_designations_g2(g2):
    des = standard_designations(g2)
    deleted = [d.deleted for d in des]
    assert deleted == [(1, 2), (1,), (2,)]


def test_check_designation_green(g2, f4):
    for rs, deleted in ((g2, [2]), (f4, [1, 4]), (f4, [1, 2, 3, 4])):
        rep = check_designation(_built(rs, deleted))
        assert rep.failures == ()
        assert rep.counts["troots"] > 0


def test_counts_recorded(g2):
    rep = check_designation(_built(g2, [1, 2]))
    assert rep.counts["troots"] == 12
    assert rep.counts["positive"] == 6
    assert rep.counts["k_cent"] == 5


def _built(rs, deleted):
    """The t-root system of the designation of rs deleting these nodes."""
    return real_troot_system(designation(rs, deleted=deleted))


def _corrupt(rs, deleted, damage):
    """The t-root system of rs deleting these nodes, damaged after construction."""
    t = _built(rs, deleted)
    damage(t)
    return t


def _corrupting(monkeypatch, damage):
    """Make check_type see t-root systems damaged after construction."""
    def corrupt(des):
        t = real_troot_system(des)
        damage(t)
        return t

    monkeypatch.setattr(checks, "troot_system", corrupt)


def _negate_form(t):
    """Negate the integer t-root form Gs, keeping its scale."""
    det, gs = t.form
    t.form = det, tuple(tuple(-v for v in row) for row in gs)


def test_corrupted_delta_detected():
    # with Gs negated, delta pairs negatively with every positive t-root
    for name, deleted in (("G2", [2]), ("B3", [1, 2]), ("A2", [1, 2])):
        rep = check_designation(_corrupt(root_system(name), deleted, _negate_form))
        positives = _built(root_system(name), deleted).positives
        assert [f.detail for f in rep.failures if f.check == "trace-positivity"] == [
            f"({nu}, delta) is not positive" for nu in positives], name


def test_delta_follows_the_spaces():
    # delta is the dimension-weighted key sum of the spaces as they stand:
    # a root moved from the space at (1, 0) to the one at (1, 1) of the B3
    # Borel is one more unit of weight at each (1, 1) entry
    t = _built(root_system("B3"), [1, 2])
    before = t.delta_key
    _move_root(t, (1, 0), (1, 1))
    assert t.delta_key == (before[0], before[1] + 1) == tuple(
        sum(t.spaces[k].bit_count() * k[i] for k in t.positives) for i in range(2))


def _drop_root(t, key):
    """Clear the lowest bit, the first root by number, of the public space at key."""
    t.spaces[key] = t.spaces[key] & (t.spaces[key] - 1)


def _move_root(t, src, dst, keep=False):
    """Move the first root by number of the space at src to the space at dst,
    or with ``keep`` add it to dst and leave it in src too."""
    bit = t.spaces[src] & -t.spaces[src]
    if not keep:
        t.spaces[src] = t.spaces[src] ^ bit
    t.spaces[dst] = t.spaces[dst] | bit


def _drop_troot(t, key):
    """Remove the t-root key and its negative from the public spaces and
    key lists."""
    gone = {key, tuple(-c for c in key)}
    for k in gone:
        del t.spaces[k]
    t.keys = tuple(k for k in t.keys if k not in gone)
    t.positives = tuple(k for k in t.positives if k not in gone)


def test_corrupted_space_detected():
    # one root dropped from a public space must break the bracket law: the
    # damaged space at (1,) is the target of (-1,) + (2,), and the reach of
    # its own damaged copy, the mirror of (-1,), no longer covers it
    rep = check_designation(
        _corrupt(root_system("B3"), [2], lambda t: _drop_root(t, t.positives[0])))
    names = {f.check for f in rep.failures}
    assert "bracket-law" in names


def test_corrupted_top_space_breaks_central_series():
    # [n, n] still reaches the root dropped from the top space, so the
    # lower-series oracle and the closed form part ways
    rep = check_designation(
        _corrupt(root_system("B3"), [2], lambda t: _drop_root(t, t.positives[-1])))
    details = [f.detail for f in rep.failures if f.check == "central-series"]
    assert details == ["closed-form lower series disagrees with its oracle"]


def test_corrupted_bottom_space_splits_upper_series_term(g2):
    # the lower series still agrees, but the upper-series oracle finds a
    # center term that holds only part of the damaged space at (1,)
    rep = check_designation(_corrupt(g2, [2], lambda t: _drop_root(t, (1,))))
    details = [f.detail for f in rep.failures if f.check == "central-series"]
    assert details == ["center term splits the t-root space (1,)"]


def test_swapped_marks_break_grading_alone(monkeypatch, g2):
    # with the marks read as (2, 3), every order 1..5 is there, but the top
    # level (3, 2) is not the restricted highest root (2, 3); no other law
    # of the Borel reads the marks
    monkeypatch.setattr(g2, "marks", (2, 3))
    rep = check_designation(_built(g2, [1, 2]))
    assert [(f.check, f.detail) for f in rep.failures] == [
        ("grading", "top level is not the restricted highest root alone")]


@pytest.mark.parametrize("name, deleted, field, at, key", [
    ("G2", [1, 2], "positives", -1, (3, 2)),
    ("B3", [1, 2], "keys", -1, (1, 2)),
    ("B3", [1, 2], "positives", 0, (0, 1)),
    ("F4", [2, 3], "keys", -1, (3, 4)),
], ids=["G2-top-positive", "B3-last-key", "B3-first-positive", "F4-last-key"])
def test_repeated_key_is_one_partition_record(name, deleted, field, at, key):
    # a key listed twice in keys or positives: the laws read each key once,
    # so none of them sees the repeat, which the counts would count twice
    def damage(t):
        seq = getattr(t, field)
        setattr(t, field, seq + (seq[at],))

    rep = check_designation(_corrupt(root_system(name), deleted, damage))
    assert [(f.check, f.detail) for f in rep.failures] == [
        ("partition", f"repeated keys: [{key}]")]


def _add_negative_simple(t):
    """Add -alpha_1 to the space at (1,) of the A2 parabolic deleting node 1."""
    t.spaces[(1,)] = t.spaces[(1,)] | t.rs.mirror(1 << t.rs.index[(1, 0)])


_NEGATIVE_SIMPLE_RECORDS = [
    ("partition", "5 space roots + 2 Levi roots != 6"),
    ("negation-symmetry", "key (1,) mirror mismatch"),
    ("restriction", "space (1,) is not the fiber of its key"),
    ("central-series", "lower central series did not terminate")]


def test_negative_root_in_the_nilradical_stops_the_lower_series():
    # (alpha_1 + alpha_2) - alpha_1 = alpha_2 and alpha_2 + alpha_1 lead
    # back to alpha_1 + alpha_2, so bracketing with n never reaches zero
    rep = check_designation(_corrupt(root_system("A2"), [1], _add_negative_simple))
    assert [(f.check, f.detail) for f in rep.failures] == _NEGATIVE_SIMPLE_RECORDS


def test_series_oracles_read_the_spaces_as_they_stand():
    # nothing of a series run is kept on the system: damage made after one
    # run is what the next run reads, as on a freshly damaged system
    t = real_troot_system(designation(root_system("A2"), deleted=[1]))
    closed_form_series(t, grading(t))
    _add_negative_simple(t)
    rep = check_designation(t)
    assert [(f.check, f.detail) for f in rep.failures] == _NEGATIVE_SIMPLE_RECORDS


def test_levi_root_in_every_nilradical_sum_stalls_the_upper_oracle():
    # with alpha_2, a Levi root, among the sums of both nilradical roots of
    # A2 deleting node 1, no root of n brackets it into the zero term.  The
    # sweep runs the lower oracle first and reports the damage there: once
    # the lower series matches the closed form the upper cannot stall
    # (docs/conventions.md), so only a direct call reaches this raise
    rs = root_system("A2")
    t = real_troot_system(designation(rs, deleted=[1]))
    rows = rs.sum_table().positive_sums()
    for phi in mask_bits(t.spaces[(1,)]):
        rows[phi] |= 1 << rs.index[(0, 1)]
    with pytest.raises(SeriesMismatch, match="upper central series stalled"):
        upper_series_oracle(t, nilradical_sums(t))


def test_corrupted_raising_space_breaks_string_law():
    # an emptied space at nu leaves no root sum to raise along nu
    def damage(t):
        t.spaces[t.positives[0]] = 0

    rep = check_designation(_corrupt(root_system("B3"), [2], damage))
    details = [f.detail for f in rep.failures if f.check == "string-law"]
    assert any("no raising root sum" in d for d in details)


def test_missing_troot_breaks_sign_rule(g2):
    # without (1, 1), the negatively paired simple t-roots of the G2 Borel
    # have a sum that is no longer a t-root
    rep = check_designation(_corrupt(g2, [1, 2], lambda t: _drop_troot(t, (1, 1))))
    details = [f.detail for f in rep.failures if f.check == "sign-rule"]
    assert any("< 0 but the sum is not a t-root" in d for d in details)
    assert "string-law" in {f.check for f in rep.failures}


def test_per_pair_api_and_sweep_read_the_same_troots(g2):
    # a t-root dropped from the public data is gone for the reference
    # oracles and for the sweep alike, with the same failure texts
    damaged = []

    def damage(t):
        _drop_troot(t, (1, 1))
        damaged.append(t)

    rep = check_designation(_corrupt(g2, [1, 2], damage))
    [trsys] = damaged
    assert sign_rule(trsys, (1, 0), (0, 1)) == [
        "((1, 0),(0, 1)) < 0 but the sum is not a t-root"]
    p, q, strings = string_report(trsys, (1, 0), (0, 1))
    assert (p, q) == (0, 0)
    assert strings == ["singleton string at (1, 0) along (0, 1) not orthogonal"]
    by_check = {}
    for f in rep.failures:
        by_check.setdefault(f.check, []).append(f.detail)
    assert {"sign-rule", "string-law"} <= set(by_check)
    # the sweep checks the orbit of the pair at its representative
    [mirror] = sign_rule(trsys, (0, 1), (1, 0))
    assert mirror in by_check["sign-rule"]
    assert strings[0] in by_check["string-law"]


def _laws_by_pair(trsys, strings=True):
    """Per-pair verdicts: (bracket agreements, sign texts, string texts).

    The bracket law's reach form is compared with the reference
    ``bracket_image``, a root-sum walk, on every pair with a positive sum
    key; the reference sign rule and (unless ``strings`` is false) string
    report run on every pair.
    """
    spaces, index = trsys.spaces, trsys.rs.index
    reach = trsys.rs.sum_table().reach
    agree = []
    for mu in trsys.keys:
        for nu in trsys.keys:
            total = tuple(a + b for a, b in zip(mu, nu))
            if total in trsys.positives:
                image = sum(1 << index[r] for r in bracket_image(trsys, mu, nu))
                mirror = reach(spaces[tuple(-c for c in mu)])
                agree.append(mirror & spaces[total] == image)
    signs = {t for mu in trsys.keys for nu in trsys.keys for t in sign_rule(trsys, mu, nu)}
    if strings:
        strings = {t for gamma in (None,) + trsys.keys for nu in trsys.keys
                   for t in string_report(trsys, gamma, nu)[2]}
    return agree, signs, strings


def test_mask_laws_agree_with_per_pair_api():
    # every designation of every type of rank <= 4: the reach form of the
    # bracket law finds exactly the root sums of the reference
    # bracket_image, and the sweep passes the sign and string laws exactly
    # when the reference oracles pass every pair
    designations = pairs = 0
    for stype in all_simple_types(4):
        for des in all_parabolic_designations(root_system(stype)):
            trsys = real_troot_system(des)
            rep = check_designation(trsys)
            agree, signs, strings = _laws_by_pair(trsys)
            assert all(agree), des
            found = {f.check for f in rep.failures}
            assert ("sign-rule" in found) == bool(signs), des
            assert ("string-law" in found) == bool(strings), des
            designations += 1
            pairs += len(agree)
    assert designations == 109 and pairs > 1000


def test_sweep_and_per_pair_api_agree_on_a_missing_troot(g2):
    # without (1, 1) the sweep reports exactly the reference sign texts of
    # its representatives mu <= nu, and both fail the string law (the
    # reference walks the whole line, gaps included)
    damaged = []

    def damage(t):
        _drop_troot(t, (1, 1))
        damaged.append(t)

    rep = check_designation(_corrupt(g2, [1, 2], damage))
    [trsys] = damaged
    _, signs, _ = _laws_by_pair(trsys, strings=False)
    strings = set()
    for gamma in (None,) + trsys.keys:
        for nu in trsys.keys:
            strings.update(string_report(trsys, gamma, nu)[2])
    pos = trsys.positives
    representatives = {t for i, mu in enumerate(pos) for nu in pos[i:]
                       for t in sign_rule(trsys, mu, nu)}
    by_check = {}
    for f in rep.failures:
        by_check.setdefault(f.check, set()).add(f.detail)
    assert by_check["sign-rule"] == representatives and representatives <= signs
    # the sweep walks the positive weights along the positive t-roots, one
    # part of the lines the reference walks
    assert by_check["string-law"] and by_check["string-law"] <= strings


def _empty_space(t, key):
    t.spaces[key] = 0


@pytest.mark.parametrize("name, deleted, damage, text", [
    # an emptied space at nu leaves no root sum to raise along nu
    ("B3", [2], lambda t: _empty_space(t, (1,)), "no raising root sum at (1,) along (1,)"),
    # without (2, 1), (1, 1) tops its (1, 0)-run and pairs negatively with it
    ("G2", [1, 2], lambda t: _drop_troot(t, (2, 1)), "top of string (1, 1) along (1, 0) not positive"),
])
def test_sweep_and_reference_agree_on_damaged_spaces(name, deleted, damage, text):
    # each string-law text of the sweep is one the reference reports on the
    # whole lines, and the sign-rule texts are the reference's for mu <= nu
    damaged = []
    rep = check_designation(
        _corrupt(root_system(name), deleted, lambda t: (damage(t), damaged.append(t))))
    [trsys] = damaged
    sweep = {f.detail for f in rep.failures if f.check == "string-law"}
    strings = {t for gamma in (None,) + trsys.keys for nu in trsys.keys
               for t in string_report(trsys, gamma, nu)[2]}
    assert text in sweep and sweep <= strings
    pos = trsys.positives
    assert {f.detail for f in rep.failures if f.check == "sign-rule"} == {
        t for i, mu in enumerate(pos) for nu in pos[i:] for t in sign_rule(trsys, mu, nu)}


_KEY = r"(\([-\d, ]*\))"
_ENDPOINT = re.compile(rf"^(?:singleton string at|top of string|bottom of string) {_KEY} along {_KEY} not ")
_ALONG = re.compile(rf" {_KEY} along {_KEY}$")
_SIGN_PAIR = re.compile(rf"^\({_KEY},{_KEY}\) ")


@pytest.mark.parametrize("name", ["G2", "B3", "F4"])
def test_walk_names_each_unordered_pair_once(name):
    # each designation with one positive t-root dropped: the walk visits
    # {x, nu} once, so no two endpoint records and no two sign-rule records
    # name the same pair, and each record is one the reference gives
    rs = root_system(name)
    for des in all_parabolic_designations(rs):
        for gone in _built(rs, des.deleted).positives:
            trsys = _corrupt(rs, des.deleted, lambda t: _drop_troot(t, gone))
            endpoints, signs = [], []
            for f in check_designation(trsys).failures:
                if f.check == "string-law":
                    end = _ENDPOINT.match(f.detail)
                    x, nu = map(literal_eval, (end or _ALONG.search(f.detail)).groups())
                    assert f.detail in string_report(trsys, x, nu)[2]
                    if end:
                        endpoints.append(frozenset((x, nu)))
                elif f.check == "sign-rule":
                    mu, nu = map(literal_eval, _SIGN_PAIR.match(f.detail).groups())
                    assert f.detail in sign_rule(trsys, mu, nu)
                    signs.append(frozenset((mu, nu)))
            assert len(endpoints) == len(set(endpoints)), (des.deleted, gone)
            assert len(signs) == len(set(signs)), (des.deleted, gone)


def test_flipped_pairings_break_endpoint_signs(monkeypatch, g2):
    # both laws read their signs from the positive pairing table
    real_pairings = checks._form_table
    monkeypatch.setattr(checks, "_form_table",
                        lambda t, encs: [-v for v in real_pairings(t, encs)])
    rep = check_designation(_built(g2, [1, 2]))
    details = {f.check: f.detail for f in rep.failures}
    assert "sign-rule" in details
    assert any(f.check == "string-law" and "not positive" in f.detail for f in rep.failures)
    assert "bracket-law" not in details and "central-series" not in details


@pytest.mark.parametrize("deleted", [[1], [2]])
@pytest.mark.parametrize("entry", [-1, 0])
def test_nonpositive_diagonal_pairing_breaks_sign_rule(monkeypatch, g2, deleted, entry):
    # (1,) pairs with itself first in the table; 2 * (1,) is a t-root, so
    # the walk along (1,) sees (1,) as interior and tests nothing there
    real_pairings = checks._form_table
    monkeypatch.setattr(checks, "_form_table",
                        lambda t, encs: [entry] + real_pairings(t, encs)[1:])
    rep = check_designation(_built(g2, deleted))
    assert [(f.check, f.detail) for f in rep.failures] == [
        ("sign-rule", "((1,),(1,)) is not positive")]


def test_positive_pairings_match_exact_form():
    # the scaled integer table is a positive multiple of the reference's
    # exact pairing, on every designation of every type of rank <= 4; it
    # holds the upper triangle, row i pairing pos[i] with pos[i:]
    for stype in all_simple_types(4):
        for des in all_parabolic_designations(root_system(stype)):
            trsys = real_troot_system(des)
            table = checks._form_table(trsys, {k: des.rs.encode(k) for k in trsys.keys})
            pos = trsys.positives
            p = len(pos)
            assert len(table) == p * (p + 1) // 2
            scale = inner(trsys, pos[0], pos[0]) / table[0]
            entries = iter(table)
            for i, mu in enumerate(pos):
                for nu in pos[i:]:
                    entry = next(entries)
                    assert inner(trsys, mu, nu) == scale * entry
                    assert inner(trsys, nu, mu) == scale * entry
            assert scale > 0


def test_check_designation_encodes_each_key_once(monkeypatch, f4):
    # one pass encodes the keys: the key index, the positive encodings and
    # the pairing table's unit rows all read it
    trsys = _built(f4, [1, 3])
    keys = trsys.keys
    encoded = []
    real_encode = RootSystem.encode

    def encode(rs, coeffs):
        encoded.append(tuple(coeffs))
        return real_encode(rs, coeffs)

    monkeypatch.setattr(RootSystem, "encode", encode)
    assert check_designation(trsys).ok
    assert sorted(encoded) == sorted(keys)


def test_two_highest_weight_roots_fail_certification():
    # a root of the space at (1,) that no kept simple root's sum-table row
    # raises is a second highest weight; check_type builds the t-root system
    # and reports the failed build as the designation's one record
    rs = root_system("B3")
    des = designation(rs, deleted=[2])
    lowest = real_troot_system(des).extremes((1,))[1]
    adjz = rs.sum_table().adjz
    for k in mask_bits(rs.simple_mask(des.kept0)):
        adjz[k] &= ~(1 << rs.index[lowest])
    rep = {r.deleted: r for r in check_type(rs).designations}[(2,)]
    assert [(f.check, f.detail) for f in rep.failures] == [
        ("certification", "space (1,) has 2 highest / 1 lowest weight roots")]


def test_dropped_negative_root_breaks_negation_symmetry():
    rep = check_designation(_corrupt(
        root_system("B3"), [2], lambda t: _drop_root(t, tuple(-c for c in t.positives[0]))))
    details = [f.detail for f in rep.failures if f.check == "negation-symmetry"]
    assert details == ["key (1,) mirror mismatch"]


def test_repeated_root_number_breaks_partition():
    # a root of the space at (-2,) added to the space at (-1,) too: the
    # spaces overcount the roots, and (-1,) is no longer the mirror of (1,)
    rep = check_designation(
        _corrupt(root_system("B3"), [2], lambda t: _move_root(t, (-2,), (-1,), keep=True)))
    assert [(f.check, f.detail) for f in rep.failures] == [
        ("partition", "15 space roots + 4 Levi roots != 18"),
        ("negation-symmetry", "key (1,) mirror mismatch")]


def test_moved_root_breaks_restriction():
    # a root of (1,) moved to (2,), and its negative from (-1,) to (-2,):
    # the root counts and the mirrors still hold, but two spaces are no
    # longer the fibers of their keys
    def damage(t):
        _move_root(t, (1,), (2,))
        _move_root(t, (-1,), (-2,))

    rep = check_designation(_corrupt(root_system("B3"), [2], damage))
    details = [f.detail for f in rep.failures if f.check == "restriction"]
    assert details == ["space (1,) is not the fiber of its key",
                       "space (2,) is not the fiber of its key"]
    assert "negation-symmetry" not in {f.check for f in rep.failures}


def test_empty_space_at_a_key_without_a_fiber_breaks_restriction():
    # no root of B3 has coefficient 3 at node 2, so the key (3,) has an
    # empty fiber; an empty space there is not a fiber of its key either
    def damage(t):
        for key in ((3,), (-3,)):
            t.spaces[key] = 0
        t.keys = ((-3,),) + t.keys + ((3,),)
        t.positives += ((3,),)

    rep = check_designation(_corrupt(root_system("B3"), [2], damage))
    details = [f.detail for f in rep.failures if f.check == "restriction"]
    assert "space (3,) is not the fiber of its key" in details


def test_bracket_records_at_both_ends_of_the_target_range(g2):
    # the pair loop skips partners whose sum lies below the least or above
    # the greatest target encoding; two damaged G2 Borel spaces put failures
    # at both ends: a positive key (1, -1), mixed-sign with a negative
    # encoding, holding the top root, and an emptied space at (0, -1), whose
    # mirror (0, 1) then no longer reaches the top key (3, 2) with (3, 1)
    def damage(t):
        t.spaces[(1, -1)] = t.spaces[(3, 2)]
        t.spaces[(-1, 1)] = t.spaces[(-3, -2)]
        t.keys += ((1, -1), (-1, 1))
        t.positives += ((1, -1),)
        t.spaces[(0, -1)] = 0

    seen = []
    rep = check_designation(_corrupt(g2, [1, 2], lambda t: (damage(t), seen.append(t))))
    [trsys] = seen
    # every pair of keys, in encoding order, with a positive sum key
    encode = trsys.rs.encode
    troots = {encode(k): k for k in trsys.keys}
    reach = trsys.rs.sum_table().reach
    reaches = {e: reach(trsys.spaces[k]) for e, k in troots.items()}
    targets = {encode(k): trsys.spaces[k] for k in trsys.positives}
    assert min(targets) == encode((1, -1)) < 0
    assert max(targets) == encode((3, 2))
    encs = sorted(troots)
    want = [
        f"keys {troots[em]} + {troots[en]}: root sums miss the target space"
        for i, em in enumerate(encs) for en in encs[i:]
        if em + en in targets and reaches.get(-em, 0) & targets[em + en] != targets[em + en]
    ]
    for pair in ("(0, -1) + (1, 0)", "(0, 1) + (3, 1)"):
        assert f"keys {pair}: root sums miss the target space" in want
    assert [f.detail for f in rep.failures if f.check == "bracket-law"] == want


def test_missing_negative_keys_break_negation_symmetry():
    # the spaces at negative keys are intact, but keys lists none of them
    def damage(t):
        t.keys = t.positives

    rep = check_designation(_corrupt(root_system("B3"), [2], damage))
    details = [f.detail for f in rep.failures if f.check == "negation-symmetry"]
    assert details == ["key (1,) has no negative in keys", "key (2,) has no negative in keys"]


def test_mixed_sign_key_breaks_positivity_dichotomy(g2):
    # a mixed-sign key and its negative, each with an empty space
    def damage(t):
        for key in ((1, -1), (-1, 1)):
            t.spaces[key] = 0
            t.keys += (key,)

    rep = check_designation(_corrupt(g2, [1, 2], damage))
    details = [f.detail for f in rep.failures if f.check == "positivity-dichotomy"]
    assert details == ["key (1, -1) is mixed-sign", "key (-1, 1) is mixed-sign"]


def test_dropped_top_key_breaks_grading():
    # without the top key (2,), no positive t-root has order 2 = k_cent
    def damage(t):
        t.positives = t.positives[:-1]

    rep = check_designation(_corrupt(root_system("B3"), [2], damage))
    details = [f.detail for f in rep.failures if f.check == "grading"]
    assert details == ["grading levels are not 1..k_cent"]


def test_repeated_positive_root_number_breaks_partition():
    # a root of the space at (2,) added to the space at (1,) too: the spaces
    # overcount the roots, and every law that reads the damaged mask fires
    rep = check_designation(
        _corrupt(root_system("B3"), [2], lambda t: _move_root(t, (2,), (1,), keep=True)))
    assert [(f.check, f.detail) for f in rep.failures] == [
        ("partition", "15 space roots + 4 Levi roots != 18"),
        ("negation-symmetry", "key (1,) mirror mismatch"),
        ("restriction", "space (1,) is not the fiber of its key"),
        ("bracket-law", "keys (-1,) + (2,): root sums miss the target space"),
        ("central-series", "center term splits the t-root space (1,)")]


def test_positively_paired_simples_fail_simple_troots():
    # a Gram matrix with a positive off-diagonal entry: the simple t-roots
    # of the Borel pair positively
    rs = root_system("A2")
    rs.gram = ((2, 1), (1, 2))
    rep = check_designation(_built(rs, [1, 2]))
    details = [f.detail for f in rep.failures if f.check == "simple-troots"]
    assert details == ["simple t-roots 0,1 have positive inner product"]


def test_missing_simple_troot_breaks_intrinsic_simplicity(g2):
    # without the unit key (1, 0), (1, 1) is no longer a sum of two
    # positive t-roots
    rep = check_designation(_corrupt(g2, [1, 2], lambda t: _drop_troot(t, (1, 0))))
    details = [f.detail for f in rep.failures if f.check == "intrinsic-simplicity"]
    assert "key (1, 1) has no decomposition, contradicting the simple set" in details


def test_corrupted_affine_cartan_breaks_equal_rank_classify(g2):
    # unlinking the adjoined node from node 2 splits the diagram left by
    # deleting node 1, while the root pipeline still finds A2
    ext = extended_diagram(g2)
    affine = [list(row) for row in ext.affine_cartan]
    affine[0][2] = affine[2][0] = 0
    bad = replace(ext, affine_cartan=tuple(map(tuple, affine)))
    rep = check_node(bad, _built(g2, [1]))
    assert [(f.check, f.detail) for f in rep.failures] == [
        ("equal-rank-classify", "diagram pipeline A1+A1 != root pipeline A2")]
    assert check_node(ext, _built(g2, [1])).ok


def test_second_annihilated_root_breaks_residue_irreducibility(monkeypatch, g2):
    # without -psi in the raising set, each residue class at the mark-3
    # node has a second root that nothing raises, and the root pipeline
    # classifies the one simple root that is left
    real = bds.subalgebra_roots

    def damaged(trsys):
        model = real(trsys)
        return replace(model, simple_roots=model.simple_roots[:-1])

    monkeypatch.setattr(checks, "subalgebra_roots", damaged)
    rep = check_node(extended_diagram(g2), _built(g2, [1]))
    assert [(f.check, f.detail) for f in rep.failures] == [
        ("equal-rank-classify", "diagram pipeline A2 != root pipeline A1"),
        ("residue-irreducibility", "residue class 1 at node 1 has 2 highest weights"),
        ("residue-irreducibility", "residue class 2 at node 1 has 2 highest weights"),
    ]


def test_simple_root_that_is_no_root_is_a_residue_record(monkeypatch, g2):
    # 4 alpha_1 + 2 alpha_2 in place of -psi: orthogonal to alpha_2, so
    # the root pipeline still classifies, and it has no sum-table row
    real = bds.subalgebra_roots

    def damaged(trsys):
        model = real(trsys)
        return replace(model, simple_roots=model.simple_roots[:-1] + ((4, 2),))

    monkeypatch.setattr(checks, "subalgebra_roots", damaged)
    rep = check_node(extended_diagram(g2), _built(g2, [1]))
    assert [(f.check, f.detail) for f in rep.failures] == [
        ("equal-rank-classify", "diagram pipeline A2 != root pipeline A1+A1"),
        ("residue-irreducibility", "simple root (4, 2) at node 1 is not a root"),
        ("residue-irreducibility", "simple root (4, 2) at node 1 is not a root"),
    ]


@pytest.mark.parametrize("cut, classes", [(0, "A1+A1"), (1, "A2"), (2, "B2")])
def test_cut_simple_root_at_a_mark_one_node_breaks_equal_rank_classify(monkeypatch, cut, classes):
    # B3 node 1 has mark 1, so no residue class reads the simple roots; the
    # root pipeline classifies the two that are left
    real = bds.subalgebra_roots

    def damaged(trsys):
        model = real(trsys)
        return replace(model, simple_roots=model.simple_roots[:cut] + model.simple_roots[cut + 1:])

    monkeypatch.setattr(checks, "subalgebra_roots", damaged)
    b3 = root_system("B3")
    rep = check_node(extended_diagram(b3), _built(b3, [1]))
    assert [(f.check, f.detail) for f in rep.failures] == [
        ("equal-rank-classify", f"diagram pipeline B3 != root pipeline {classes}")]


def test_moved_root_breaks_residue_bracket(monkeypatch, g2):
    # a root of class 2 moved into the subalgebra keeps the partition count
    # and the class's highest weight, but classes no longer add mod 3
    real = bds.subalgebra_roots

    def damaged(trsys):
        model = real(trsys)
        moved = 1 << g2.index[(-1, -1)]
        assert model.residues[2] & moved
        residues = {**model.residues, 2: model.residues[2] & ~moved}
        return replace(model, residues=residues, root_set=model.root_set | moved)

    monkeypatch.setattr(checks, "subalgebra_roots", damaged)
    rep = check_node(extended_diagram(g2), _built(g2, [1]))
    assert [(f.check, f.detail) for f in rep.failures] == [
        ("residue-bracket", "classes 1+1: image misses 0 and adds 1 roots vs class 2"),
        ("residue-bracket", "classes 2+2: image misses 2 and adds 0 roots vs class 1"),
    ]


def test_dropped_residue_root_breaks_residue_partition(monkeypatch, g2):
    # (0, 1) is not the highest weight of class 1 at the mark-2 node, and
    # classes 1 + 1 land in the subalgebra, so only the count shows it
    real = bds.subalgebra_roots

    def damaged(trsys):
        model = real(trsys)
        gone = 1 << g2.index[(0, 1)]
        assert model.residues[1] & gone
        return replace(model, residues={1: model.residues[1] & ~gone})

    monkeypatch.setattr(checks, "subalgebra_roots", damaged)
    rep = check_node(extended_diagram(g2), _built(g2, [2]))
    assert [(f.check, f.detail) for f in rep.failures] == [
        ("residue-partition", "residues do not complement the subalgebra")]


def test_root_in_two_parts_breaks_residue_partition(monkeypatch, g2):
    # the lowest root left out of every part and a class-1 root put in the
    # subalgebra too: the part sizes still add up to the root count
    real = bds.subalgebra_roots

    def damaged(trsys):
        model = real(trsys)
        lowest, doubled = 1 << g2.index[(-3, -2)], 1 << g2.index[(0, 1)]
        assert model.root_set & lowest and model.residues[1] & doubled
        return replace(model, root_set=model.root_set & ~lowest | doubled)

    monkeypatch.setattr(checks, "subalgebra_roots", damaged)
    rep = check_node(extended_diagram(g2), _built(g2, [2]))
    assert [(f.check, f.detail) for f in rep.failures] == [
        ("residue-partition", "residues do not complement the subalgebra")]


def test_emptied_class_breaks_residue_irreducibility(monkeypatch, g2):
    # check_node has no separate emptiness test: an empty class has no
    # highest weight
    real = bds.subalgebra_roots
    monkeypatch.setattr(checks, "subalgebra_roots",
                        lambda trsys: replace(real(trsys), residues={1: 0}))
    rep = check_node(extended_diagram(g2), _built(g2, [2]))
    assert [(f.check, f.detail) for f in rep.failures] == [
        ("residue-partition", "residues do not complement the subalgebra"),
        ("residue-irreducibility", "residue class 1 at node 2 has 0 highest weights"),
    ]


def test_zero_mark_is_a_reported_failure(monkeypatch, g2):
    # the kept simple root and -psi do not span when the mark is 0, and the
    # mark is never used as a modulus
    ext = extended_diagram(g2)
    monkeypatch.setattr(g2, "marks", (3, 0))
    rep = check_node(ext, _built(g2, [2]))
    assert [(f.check, f.detail) for f in rep.failures] == [
        ("equal-rank-classify", "candidate simple system does not span")]


def test_negative_mark_is_a_reported_failure(monkeypatch, g2):
    # a negative mark is never used as a modulus either
    ext = extended_diagram(g2)
    monkeypatch.setattr(g2, "marks", (3, -2))
    rep = check_node(ext, _built(g2, [2]))
    assert [(f.check, f.detail) for f in rep.failures] == [
        ("equal-rank-classify", "mark -2 of node 2 is negative")]


def test_missing_residue_class_is_a_reported_failure(monkeypatch, g2):
    # without class 2 at the mark-3 node, classes 1 + 1 fill nothing, and
    # the bracket loop reads no missing class
    real = bds.subalgebra_roots

    def damaged(trsys):
        model = real(trsys)
        return replace(model, residues={1: model.residues[1]})

    monkeypatch.setattr(checks, "subalgebra_roots", damaged)
    rep = check_node(extended_diagram(g2), _built(g2, [1]))
    assert [(f.check, f.detail) for f in rep.failures] == [
        ("residue-partition", "residues do not complement the subalgebra"),
        ("residue-irreducibility", "node 1 has no residue class 2"),
        ("residue-bracket", "classes 1+1: image misses 0 and adds 3 roots vs class 2"),
    ]


def test_bad_extended_diagram_is_a_reported_failure():
    # a Gram matrix whose affine entries are not integers: every node
    # reports the failure instead of check_type raising InvalidCartan
    rs = root_system("G2")
    rs.gram = ((2, -1), (-1, 6))
    rep = check_type(rs)
    detail = "2(x,y)/(y,y) is not an integer for (1, 0), (-3, -2)"
    assert [[(f.check, f.detail) for f in node.failures] for node in rep.nodes] == [
        [("equal-rank-classify", detail)]] * 2
    assert rep.maximal == [] and not rep.ok


def test_indefinite_kept_gram_block_is_a_certification_record():
    # deleting node 3 keeps the Gram block ((2, -3), (-3, 2)) of determinant
    # -5: the t-root form has no positive scale
    rs = root_system("A3")
    rs.gram = ((2, -3, 0), (-3, 2, -1), (0, -1, 2))
    record = [("certification", "the kept Gram block is not positive definite")]
    with pytest.raises(NotFiniteType, match=record[0][1]):
        _built(rs, [3])
    reports = {r.deleted: r for r in check_type(rs).designations}
    assert [(f.check, f.detail) for f in reports[(3,)].failures] == record


def test_indefinite_kept_gram_block_of_positive_determinant_is_certified():
    # deleting node 4 keeps a block of eigenvalues 8, -1, -1: its
    # determinant 8 is positive, but its second leading minor 2*2 - 3*3 is not
    rs = root_system("A4")
    rs.gram = ((2, 3, 3, 0), (3, 2, 3, -1), (3, 3, 2, 0), (0, -1, 0, 2))
    reports = {r.deleted: r for r in check_type(rs).designations}
    assert [(f.check, f.detail) for f in reports[(4,)].failures] == [
        ("certification", "the kept Gram block is not positive definite")]


def _node_records(rs):
    rep = check_type(rs)
    assert rep.maximal == [] and not rep.ok
    return [[(f.check, f.detail) for f in node.failures] for node in rep.nodes]


def test_negative_link_is_a_reported_failure():
    # alpha_1 in place of the highest root pairs negatively with alpha_2
    rs = root_system("A2")
    rs.highest_root = (1, 0)
    assert _node_records(rs) == [
        [("equal-rank-classify", "negative link to the highest root")]] * 2


def test_four_links_are_a_reported_failure():
    # a damaged Gram matrix under which the highest root of A4 pairs with
    # every simple root, and the affine entries stay integers
    rs = root_system("A4")
    rs.gram = ((2, -1, 0, 0), (-1, 2, -1, 2), (0, -1, -2, -1), (0, 2, -1, 2))
    assert _node_records(rs) == [
        [("equal-rank-classify", "highest root linked to more than 3 nodes")]] * 4


def test_zero_length_highest_root_is_a_reported_failure():
    # (psi, psi) = 0 under this Gram matrix: the affine entries in the
    # column of -psi are no integers, not a division by zero
    rs = root_system("A4")
    rs.gram = ((0, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
    detail = "2(x,y)/(y,y) is not an integer for (-1, -1, -1, -1), (-1, -1, -1, -1)"
    assert _node_records(rs) == [[("equal-rank-classify", detail)]] * 4


def test_wrong_block_dimension_breaks_block_crosscheck(monkeypatch):
    # only the block crosscheck reads the block table, so only it fails
    real = slnx.block_table

    def damaged(comp):
        entries = real(comp)
        if comp.parts != (1, 2):
            return entries
        return tuple(replace(e, dim=1) if e.key == (1,) else e for e in entries)

    monkeypatch.setattr(slnx, "block_table", damaged)
    rep = check_type(root_system("A2"))
    assert all(r.ok for r in rep.designations) and all(r.ok for r in rep.nodes)
    assert [(f.check, f.subject, f.detail) for f in rep.sln_failures] == [
        ("block-crosscheck", "blocks=[1, 2]", "key (1,): dim 2 != block 1,2 dim 1")]


def test_failed_maximal_parabolic_is_one_record_per_consumer():
    # when every simple root's sum-table row raises minus the lowest weight
    # of (1,), every node lowers that weight: the space has no lowest weight,
    # and the designation fails certification.  No crosscheck reads the
    # failed build, and node 2, whose split reads it, reports the failure
    rs = root_system("A3")
    t = real_troot_system(designation(rs, deleted=[2]))
    below = 1 << rs.index[tuple(-c for c in t.extremes((1,))[1])]
    adjz = rs.sum_table().adjz
    for k in mask_bits(rs.simple_mask(range(rs.rank))):
        adjz[k] |= below
    rep = check_type(rs)
    assert [(r.deleted, [(f.check, f.detail) for f in r.failures])
            for r in rep.designations if r.failures] == [
        ((2,), [("certification", "space (1,) has 1 highest / 0 lowest weight roots")])]
    assert rep.sln_failures == []
    assert [(r.node, [(f.check, f.detail) for f in r.failures]) for r in rep.nodes] == [
        (1, []),
        (2, [("equal-rank-classify",
              "the maximal parabolic deleting node 2 failed certification")]),
        (3, [])]


def test_missing_top_troot_breaks_maximal_parabolic_ladder(g2):
    # deleting the mark-3 node must give t-roots +-1..3 times the unit key
    rep = check_designation(_corrupt(g2, [1], lambda t: _drop_troot(t, (3,))))
    assert [(f.check, f.detail) for f in rep.failures] == [
        ("partition", "6 space roots + 2 Levi roots != 12"),
        ("grading", "grading levels are not 1..k_cent"),
        ("maximal-parabolic-ladder", "t-roots are not +-1..3 times the unit key")]


def test_missing_unit_troot_breaks_the_a1_ladder(monkeypatch):
    # the A1 Borel is its only maximal parabolic, so it carries the ladder
    _corrupting(monkeypatch, lambda t: _drop_troot(t, (1,)))
    rep = check_type(root_system("A1"))
    [des] = rep.designations
    assert ("maximal-parabolic-ladder", "t-roots are not +-1..1 times the unit key") in [
        (f.check, f.detail) for f in des.failures]
    assert all(node.ok for node in rep.nodes)


def test_key_without_a_space_is_one_partition_record():
    # the laws read the space at every key and at every positive key's
    # mirror; a missing one is reported, not raised as KeyError
    def damage(t):
        del t.spaces[(-1,)]

    rep = check_designation(_corrupt(root_system("B3"), [2], damage))
    assert [(f.check, f.detail) for f in rep.failures] == [
        ("partition", "keys without a space: [(-1,)]")]


def test_positive_key_missing_from_keys_is_one_partition_record(g2):
    # the key index is read from keys; a positive key that keeps its space
    # but is not listed is reported before any law reads the index
    def damage(t):
        t.keys = tuple(k for k in t.keys if k != (1, 1))

    rep = check_designation(_corrupt(g2, [1, 2], damage))
    assert [(f.check, f.detail) for f in rep.failures] == [
        ("partition", "t-roots missing from keys: [(1, 1)]")]


def test_unclassifiable_prime_node_is_a_reported_failure(monkeypatch, g2):
    # a quadruple bond between the adjoined node and node 2 leaves no finite
    # type at the prime-mark node 1: check_type reports it and leaves the
    # node out of the maximal table instead of raising
    ext = extended_diagram(g2)
    affine = [list(row) for row in ext.affine_cartan]
    affine[0][2] = affine[2][0] = -2
    bad = replace(ext, affine_cartan=tuple(map(tuple, affine)))
    monkeypatch.setattr(checks, "extended_diagram", lambda rs: bad)
    rep = check_type(g2)
    [node1, node2] = rep.nodes
    assert [(f.check, f.detail) for f in node1.failures] == [
        ("equal-rank-classify", "bond order 4 is not finite type")]
    assert node1.classes is None and node2.ok
    assert rep.maximal == [(2, node2.classes)]
    assert rep.as_dict()["maximal_equal_rank"] == [{"node": 2, "subalgebra": ["A1", "A1"]}]


def _counting_classify(monkeypatch):
    calls = []
    real = bds.classify

    def counting(cartan):
        calls.append(cartan)
        return real(cartan)

    monkeypatch.setattr(bds, "classify", counting)
    monkeypatch.setattr(checks, "classify", counting)
    return calls


def test_check_type_classifies_each_node_once(monkeypatch):
    # the root pipeline's matrix equals the diagram's at every node, so each
    # node is classified once, and the maximal table classifies nothing more
    calls = _counting_classify(monkeypatch)
    rep = check_type(root_system("E6"))
    assert rep.ok and len(calls) == 6
    assert rep.maximal == bds.maximal_equal_rank(root_system("E6"))


def test_permuted_simple_roots_are_classified_twice(monkeypatch):
    # F4 node 1 leaves A1+C3; its simple roots in reverse order give another
    # matrix of the same class, so both pipelines classify, and they agree
    f4 = root_system("F4")
    ext = extended_diagram(f4)
    real = bds.subalgebra_roots

    def permuted(trsys):
        model = real(trsys)
        return replace(model, simple_roots=model.simple_roots[::-1])

    trsys = _built(f4, [1])
    reversed_roots = permuted(trsys).simple_roots
    assert bds._cartan_of(f4, reversed_roots) != bds.delete_node(ext, 1)
    monkeypatch.setattr(checks, "subalgebra_roots", permuted)
    calls = _counting_classify(monkeypatch)
    rep = check_node(ext, trsys)
    assert rep.ok and str(rep.classes) == "A1+C3" and len(calls) == 2


def test_residue_brackets_walk_unordered_class_pairs(monkeypatch):
    # E8 node 4 has mark 6: of the 20 ordered pairs of classes 1..5 with
    # p + q != 0 mod 6, the 12 with p <= q
    calls = []
    real = bds.residue_bracket_check

    def counting(model, p, q):
        calls.append((p, q))
        return real(model, p, q)

    monkeypatch.setattr(checks, "residue_bracket_check", counting)
    e8 = root_system("E8")
    rep = check_node(extended_diagram(e8), _built(e8, [4]))
    assert rep.ok and rep.mark == 6
    assert calls == [(p, q) for p in range(1, 6) for q in range(p, 6) if (p + q) % 6]
    assert len(calls) == 12


def test_damaged_off_diagonal_class_pair_is_one_residue_bracket_record():
    # F4 node 3 has mark 4.  The sum table loses every pair of classes 1
    # and 2 that adds to the highest weight of class 3, both ways, so
    # classes 1 + 2 miss that root; the pair is reported once, as 1+2
    f4 = root_system("F4")
    trsys = _built(f4, [3])
    model = bds.subalgebra_roots(trsys)
    assert model.mark == 4
    table = f4.sum_table()
    target = f4.index[bds.residue_irreducibility(model, 3)]
    cut = 0
    for i in mask_bits(model.residues[1]):
        for j in mask_bits(model.residues[2] & table.adjz[i]):
            if table.sums((i,), 1 << j) == 1 << target:
                table.adjz[i] &= ~(1 << j)
                table.adjz[j] &= ~(1 << i)
                cut += 1
    assert cut
    rep = check_node(extended_diagram(f4), trsys)
    assert [(f.check, f.detail) for f in rep.failures] == [
        ("residue-bracket", "classes 1+2: image misses 1 and adds 0 roots vs class 3")]


def test_check_type_builds_the_extended_diagram_once(monkeypatch):
    calls = []
    real = bds.extended_diagram

    def counting(rs):
        calls.append(rs)
        return real(rs)

    monkeypatch.setattr(bds, "extended_diagram", counting)
    monkeypatch.setattr(checks, "extended_diagram", counting)
    rs = root_system("E6")
    rep = check_type(rs)
    assert rep.ok and len(calls) == 1
    assert rep.maximal == bds.maximal_equal_rank(rs)


def test_check_type_builds_each_troot_system_once(monkeypatch):
    # one t-root system per designation in scope; the node checks and the
    # block crosschecks build none.  A bds document builds one per node
    built = []
    real_init = TRootSystem.__init__

    def counting(self, des):
        built.append(des.deleted)
        real_init(self, des)

    monkeypatch.setattr(TRootSystem, "__init__", counting)
    for name, standard, every in (("E6", 7, 63), ("A4", 5, 15)):
        rs = root_system(name)
        built.clear()
        assert check_type(rs).ok and len(built) == standard
        built.clear()
        assert check_type(rs, all_parabolics=True).ok and len(built) == every
        assert sorted(built) == sorted(set(built))
        built.clear()
        bds.bds_document(rs)
        assert built == [(j,) for j in range(1, rs.rank + 1)]


def test_explicit_type_a_matrix_gets_the_block_crosscheck(monkeypatch):
    # the crosscheck is chosen by the Cartan matrix, not by the type name
    calls = []
    real = slnx.crosscheck

    def counting(trsys):
        calls.append(slnx.composition_of(trsys.designation).parts)
        return real(trsys)

    monkeypatch.setattr(slnx, "crosscheck", counting)
    rs = generate(cartan_matrix(SimpleType("A", 3)))
    assert rs.stype is None
    rep = check_type(rs)
    assert rep.ok and calls == [(1, 1, 1, 1), (1, 3), (2, 2), (3, 1)]


def test_check_type_builds_no_fraction(monkeypatch):
    # every law of the sweep and the node checks runs on integers
    systems = [(root_system(n), True) for n in ("G2", "F4", "E6")]
    systems += [(root_system(n), False) for n in ("E8", "D12")]
    built = []
    real_new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    reports = [check_type(rs, all_parabolics) for rs, all_parabolics in systems]
    monkeypatch.undo()
    assert all(rep.ok for rep in reports)
    assert built == []


# -- fault injection: one damaged field is a report, never an exception ------

FAULT_TYPES = ["A2", "B2", "G2", "A3", "B3", "C3"]


def _damaged(data, seq, extra):
    """seq as a list with one entry dropped, or one drawn from extra inserted."""
    seq = list(seq)
    if seq and data.draw(st.booleans()):
        del seq[data.draw(st.integers(0, len(seq) - 1))]
    else:
        seq.insert(data.draw(st.integers(0, len(seq))), data.draw(extra))
    return seq


def _damage_troots(data, t):
    bits = st.integers(0, len(t.rs.indexed) - 1).map(lambda i: 1 << i)
    keys = st.tuples(*[st.integers(-3, 3)] * len(t.designation.deleted))
    field = data.draw(st.sampled_from(["spaces", "keys", "positives", "form"]))
    if field == "spaces":
        key = data.draw(st.sampled_from(t.keys))
        if data.draw(st.booleans()):
            del t.spaces[key]
        else:  # one mask bit flipped
            t.spaces[key] = t.spaces[key] ^ data.draw(bits)
    elif field == "form":  # one entry of Gs moved
        det, gs = t.form
        rows = [list(row) for row in gs]
        cell = st.integers(0, len(rows) - 1)
        rows[data.draw(cell)][data.draw(cell)] += data.draw(st.integers(-3, 3).filter(bool))
        t.form = det, tuple(map(tuple, rows))
    else:
        setattr(t, field, tuple(_damaged(data, getattr(t, field), keys)))


def _damage_model(data, model):
    bits = st.integers(0, len(model.rs.indexed) - 1).map(lambda i: 1 << i)
    field = data.draw(st.sampled_from(["root_set", "residues", "simple_roots"]))
    if field == "root_set":
        return replace(model, root_set=model.root_set ^ data.draw(bits))
    if field == "residues":
        residues = dict(model.residues)
        k = data.draw(st.integers(-1, model.mark + 1))
        if k in residues and data.draw(st.booleans()):
            del residues[k]
        else:
            residues[k] = residues.get(k, 0) ^ data.draw(bits)
        return replace(model, residues=residues)
    roots = st.sampled_from(model.rs.indexed)
    return replace(model, simple_roots=tuple(_damaged(data, model.simple_roots, roots)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FAULT_TYPES), st.data())
def test_damaged_troot_system_is_reported_not_raised(name, data):
    rs = root_system(name)
    des = data.draw(st.sampled_from(all_parabolic_designations(rs)))

    t = real_troot_system(des)
    _damage_troots(data, t)
    rep = check_designation(t)
    assert isinstance(rep.failures, tuple)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FAULT_TYPES), st.data())
def test_damaged_subalgebra_model_is_reported_not_raised(name, data):
    rs = root_system(name)
    j = data.draw(st.integers(1, rs.rank))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "subalgebra_roots",
                   lambda *args: _damage_model(data, bds.subalgebra_roots(*args)))
        rep = check_node(extended_diagram(rs), _built(rs, [j]))
    assert isinstance(rep.failures, tuple)


def test_check_node_green(g2, f4):
    for rs in (g2, f4):
        ext = extended_diagram(rs)
        for j in range(1, rs.rank + 1):
            rep = check_node(ext, _built(rs, [j]))
            assert rep.failures == (), (rs.stype, j, rep.failures)


def test_check_type_report_shape():
    rep = check_type(root_system("B2"), all_parabolics=True)
    assert rep.ok
    assert rep.failure_count() == 0
    d = rep.as_dict()
    assert d["type"] == "B2"
    assert len(d["designations"]) == 3
    assert len(d["nodes"]) == 2


def test_check_type_a_family_runs_block_crosscheck():
    rep = check_type(root_system("A3"), all_parabolics=True)
    assert rep.ok
    assert rep.sln_failures == []


def test_check_document_shape():
    reports = sweep_types(2)
    doc = check_document(reports, all_parabolics=False)
    assert doc["schema"] == "leviroots.check/1"
    assert doc["ok"] is True
    assert doc["failure_count"] == 0
    assert doc["scope"] == "borel-and-maximal"
    assert [t["type"] for t in doc["types"]] == ["A1", "A2", "B2", "C2", "G2"]


def test_failure_serialization():
    f = checks.Failure("bracket-law", "G2 deleted=(2,)", "missing sum")
    assert f.as_dict() == {
        "check": "bracket-law",
        "subject": "G2 deleted=(2,)",
        "detail": "missing sum",
    }
