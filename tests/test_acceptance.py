"""Acceptance gate: one test per published guarantee, one summary line each.

The deep sweep (every parabolic designation of every simple type of rank
at most 8) is computed once per session and sliced per criterion; wall-clock
budgets are measured on fresh runs, never on cached state.
"""

import hashlib
import json
import time

import pytest

from leviroots import (
    cli,
    composition,
    crosscheck,
    designation,
    maximal_equal_rank,
    root_system,
    subalgebra_roots,
    sweep_types,
    troot_system,
)
from leviroots.bds import residue_irreducibility
from leviroots.checks import all_parabolic_designations, check_document
from leviroots.rootsys import all_simple_types
from leviroots.slnx import designation_of

MAX_RANK = 8
DESIGNATION_TOTAL = 2458  # sum of 2^rank - 1 over the 32 simple types of rank <= 8
# sha256 of the stdout of `check --max-rank 8 --all-parabolics`
SWEEP_R8_SHA256 = "6c52755026c0fc8bf10699ae919fb4190b2c912bdc68884a473cc5f78d190136"


def _report(log, num, ok, detail):
    log.append(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def full_sweep():
    return sweep_types(MAX_RANK, all_parabolics=True)


def _designation_failures(sweep, names):
    out = []
    for rep in sweep:
        for des in rep.designations:
            out.extend(f for f in des.failures if f.check in names)
    return out


def _node_failures(sweep, names):
    out = []
    for rep in sweep:
        for node in rep.nodes:
            out.extend(f for f in node.failures if f.check in names)
    return out


def test_criterion_1_certification(acceptance_log):
    start = time.perf_counter()
    designations = 0
    spaces = 0
    for stype in all_simple_types(MAX_RANK):
        rs = root_system(stype)
        for des in all_parabolic_designations(rs):
            trsys = troot_system(des)  # raises unless every space certifies
            designations += 1
            spaces += len(trsys.keys)
    elapsed = time.perf_counter() - start
    ok = designations == DESIGNATION_TOTAL and elapsed < 60.0
    _report(acceptance_log, 1, ok,
            f"{designations} designations / {spaces} spaces certified "
            f"in {elapsed:.1f}s (budget 60s)")


def test_criterion_2_simple_troots(acceptance_log, full_sweep):
    bad = _designation_failures(
        full_sweep,
        {"simple-troots", "positivity-dichotomy", "intrinsic-simplicity"})
    _report(acceptance_log, 2, not bad,
            f"simple t-root laws clean over {DESIGNATION_TOTAL} designations"
            if not bad else f"{len(bad)} failures, first: {bad[0].as_dict()}")


def test_criterion_3_bracket_law(acceptance_log, full_sweep):
    bad = _designation_failures(full_sweep, {"bracket-law"})
    _report(acceptance_log, 3, not bad,
            f"bracket image equals full t-root space over {DESIGNATION_TOTAL} designations"
            if not bad else f"{len(bad)} failures, first: {bad[0].as_dict()}")


def test_criterion_4_signs_and_strings(acceptance_log, full_sweep):
    bad = _designation_failures(full_sweep, {"sign-rule", "string-law"})
    _report(acceptance_log, 4, not bad,
            f"sign rules and string laws clean over {DESIGNATION_TOTAL} designations"
            if not bad else f"{len(bad)} failures, first: {bad[0].as_dict()}")


def test_criterion_5_trace_positivity(acceptance_log, full_sweep):
    bad = _designation_failures(full_sweep, {"trace-positivity"})
    _report(acceptance_log, 5, not bad,
            f"nilradical trace positive on every positive t-root, all designations"
            if not bad else f"{len(bad)} failures, first: {bad[0].as_dict()}")


def test_criterion_6_central_series(acceptance_log, full_sweep):
    bad = _designation_failures(full_sweep, {"grading", "central-series"})
    _report(acceptance_log, 6, not bad,
            f"closed-form central series matches bracket oracles, all designations"
            if not bad else f"{len(bad)} failures, first: {bad[0].as_dict()}")


def test_criterion_7_equal_rank(acceptance_log, full_sweep):
    # the ladder is checked with each maximal parabolic's designation
    bad = (_node_failures(full_sweep, {"equal-rank-classify"})
           + _designation_failures(full_sweep, {"maximal-parabolic-ladder"}))
    nodes = sum(len(rep.nodes) for rep in full_sweep)
    _report(acceptance_log, 7, not bad,
            f"deleted-node pipelines agree on all {nodes} nodes"
            if not bad else f"{len(bad)} failures, first: {bad[0].as_dict()}")


def test_criterion_8_residues(acceptance_log, full_sweep, g2):
    bad = _node_failures(
        full_sweep,
        {"residue-partition", "residue-irreducibility", "residue-bracket"})
    model = subalgebra_roots(troot_system(designation(g2, deleted=[2])))
    spots = (model.root_set.bit_count() == 4
             and model.residues[1].bit_count() == 8
             and residue_irreducibility(model, 1) in g2.roots_of(model.residues[1]))
    _report(acceptance_log, 8, not bad and spots,
            "residue classes irreducible with closing brackets, all marked nodes"
            if not bad and spots
            else f"{len(bad)} failures, spot ok={spots}")


def test_criterion_9_maximal_lists(acceptance_log):
    frozen = {
        "G2": [(1, "A2"), (2, "A1+A1")],
        "F4": [(1, "A1+C3"), (2, "A2+A2"), (4, "B4")],
        "E7": [(1, "A1+D6"), (2, "A7"), (3, "A2+A5"), (5, "A2+A5"), (6, "A1+D6")],
        "E8": [(1, "D8"), (2, "A8"), (5, "A4+A4"), (7, "A2+E6"), (8, "A1+E7")],
    }
    mismatches = []
    for name, want in frozen.items():
        got = [(j, str(c)) for j, c in maximal_equal_rank(root_system(name))]
        if got != want:
            mismatches.append((name, got))
    for rank in range(1, MAX_RANK + 1):
        got = maximal_equal_rank(root_system(f"A{rank}"))
        if got:
            mismatches.append((f"A{rank}", got))
    _report(acceptance_log, 9, not mismatches,
            "maximal equal-rank tables match the frozen snapshots"
            if not mismatches else f"mismatch: {mismatches[0]}")


def test_criterion_10_block_tables(acceptance_log):
    start = time.perf_counter()
    count = 0
    bad = []
    for n in range(2, 10):
        for mask in range(1, 2 ** (n - 1)):
            parts, width = [], 1
            for bit in range(n - 1):
                if mask & (1 << bit):
                    parts.append(width)
                    width = 1
                else:
                    width += 1
            parts.append(width)
            failures = crosscheck(troot_system(designation_of(composition(parts))))
            count += 1
            if failures:
                bad.append((tuple(parts), failures))
    elapsed = time.perf_counter() - start
    ok = not bad and count == 502 and elapsed < 10.0
    _report(acceptance_log, 10, ok,
            f"{count} block tables cross-checked in {elapsed:.1f}s (budget 10s)"
            if ok else f"count={count} bad={bad[:1]} elapsed={elapsed:.1f}s")


def test_criterion_11_deterministic_cli(acceptance_log, capsys):
    first_code = cli.run(["check", "E8", "--all-parabolics"])
    first = capsys.readouterr().out
    second_code = cli.run(["check", "E8", "--all-parabolics"])
    second = capsys.readouterr().out
    ok = first_code == 0 and second_code == 0 and first and first == second
    _report(acceptance_log, 11, ok,
            f"two E8 full-check runs byte-identical ({len(first.encode())} bytes)"
            if ok else
            f"codes=({first_code},{second_code}) identical={first == second}")


def test_sweep_has_no_failures_at_all(full_sweep):
    # belt and braces: nothing may slip between the named criterion slices
    total = sum(rep.failure_count() for rep in full_sweep)
    assert total == 0
    assert len(full_sweep) == 32
    assert sum(len(rep.designations) for rep in full_sweep) == DESIGNATION_TOTAL
    doc = json.loads(json.dumps(
        {"ok": all(rep.ok for rep in full_sweep)}))
    assert doc["ok"] is True


def test_sweep_stdout_pinned(full_sweep):
    # the text cli._emit prints for `check --max-rank 8 --all-parabolics`
    text = json.dumps(check_document(full_sweep, True), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_R8_SHA256
