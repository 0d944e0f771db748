import hashlib
import json

import pytest

from leviroots import cli, root_system
from leviroots.bds import bds_document
from leviroots.checks import all_parabolic_designations, standard_designations
from leviroots.levi import designation, troot_system
from leviroots.rootsys import all_simple_types
from leviroots.series import series_document


def _json_out(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_roots_json(capsys):
    doc = _json_out(capsys, ["roots", "A2"])
    assert doc["schema"] == "leviroots.rootsystem/1"
    assert doc["type"] == "A2"
    assert doc["count"] == 6


def test_troots_keep(capsys):
    doc = _json_out(capsys, ["troots", "A2", "--keep", "2"])
    assert doc["schema"] == "leviroots.trootsystem/1"
    spaces = doc["spaces"]
    assert len(spaces) == 2
    assert all(s["dim"] == 2 for s in spaces)


def test_troots_delete_borel(capsys):
    doc = _json_out(capsys, ["troots", "G2", "--delete", "1,2"])
    assert doc["kept"] == []
    assert all(s["dim"] == 1 for s in doc["spaces"])


def test_series_json(capsys):
    doc = _json_out(capsys, ["series", "G2", "--delete", "2"])
    assert doc["schema"] == "leviroots.series/1"
    assert doc["k_cent"] == 2
    assert len(doc["upper"]) == 2


def test_bds_json(capsys):
    doc = _json_out(capsys, ["bds", "G2"])
    assert doc["schema"] == "leviroots.bds/1"
    assert len(doc["nodes"]) == 2


def test_bds_node_filter(capsys):
    doc = _json_out(capsys, ["bds", "G2", "--node", "2"])
    assert [n["node"] for n in doc["nodes"]] == [2]


def test_bds_dot(capsys):
    code = cli.run(["bds", "G2", "--dot"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("graph extended_diagram {")
    assert "n0" in out


def test_maximal_json(capsys):
    doc = _json_out(capsys, ["maximal", "G2"])
    assert [e["subalgebra"] for e in doc["entries"]] == [["A2"], ["A1", "A1"]]


def test_sln_json(capsys):
    doc = _json_out(capsys, ["sln", "2,1"])
    assert doc["schema"] == "leviroots.sln/1"
    assert doc["troot_count"] == 2


def test_pretty_smoke(capsys):
    for argv in (
        ["roots", "A2", "--pretty"],
        ["troots", "A2", "--keep", "2", "--pretty"],
        ["series", "A2", "--delete", "1", "--pretty"],
        ["bds", "G2", "--pretty"],
        ["maximal", "F4", "--pretty"],
        ["sln", "2,1", "--pretty"],
    ):
        assert cli.run(argv) == 0
        out = capsys.readouterr().out
        assert out.strip()
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


def test_cartan_file(tmp_path, capsys):
    path = tmp_path / "g2.json"
    path.write_text(json.dumps({"cartan": [[2, -1], [-3, 2]]}))
    doc = _json_out(capsys, ["roots", "--cartan", str(path)])
    assert doc["count"] == 12


def _cartan_file_error(capsys, path, argv=("roots",)) -> str:
    # every error about a Cartan file starts with its path
    assert cli.run([*argv, "--cartan", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    return captured.err


BAD_CARTAN_FILES = [
    ([[2, -1.7], [-1, 2]], "is not an integer"),  # would truncate to A2
    ([[2.9, -1], [-1, 2]], "is not an integer"),
    ([[2, -1.0], [-1, 2]], "is not an integer"),  # integral, but not a JSON integer
    ([[2, True], [-1, 2]], "is not an integer"),  # booleans are not integers
    ([[2, -1, 0], [-1, 2]], "matrix is not square"),
    ([[2, -2], [-2, 2]], "closure produced more than 6 positive roots"),  # affine A1
    ("[[2,-1],[-1,2]", "Expecting ',' delimiter"),  # not JSON: written as it stands
]


@pytest.mark.parametrize("matrix, message", BAD_CARTAN_FILES,
                         ids=[f"matrix{i}" for i in range(len(BAD_CARTAN_FILES))])
def test_cartan_file_rejects_non_integer_entries(tmp_path, capsys, matrix, message):
    # the errors of generate name the file, like those of the JSON checks
    path = tmp_path / "bad.json"
    path.write_text(matrix if isinstance(matrix, str) else json.dumps({"cartan": matrix}))
    assert message in _cartan_file_error(capsys, path)


def test_cartan_file_without_cartan_key(tmp_path, capsys):
    path = tmp_path / "nokey.json"
    path.write_text(json.dumps({"matrix": [[2, -1], [-1, 2]]}))
    assert 'no "cartan" key' in _cartan_file_error(capsys, path)


def test_cartan_file_rejects_other_keys(tmp_path, capsys):
    # nothing reads a key beside "cartan", so it is rejected, never dropped:
    # a "type" would not name the matrix
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({"cartan": [[2, -1], [-3, 2]], "type": "B2", "note": 1}))
    assert 'keys other than "cartan": "note", "type"' in _cartan_file_error(capsys, path)


def test_cartan_file_not_a_matrix(tmp_path, capsys):
    # the shape is checked by generate's validation, as for a library caller
    path = tmp_path / "flat.json"
    for data in ([2, -1, -1, 2], {"cartan": 2}, None):
        path.write_text(json.dumps(data))
        assert "the matrix must be a sequence of rows" in _cartan_file_error(capsys, path)


def test_bds_dot_rejects_bad_node(capsys):
    assert cli.run(["bds", "G2", "--dot", "--node", "7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: node indices out of range: [7]\n"
    assert cli.run(["bds", "G2", "--dot", "--node", "2"]) == 0
    assert "fillcolor" in capsys.readouterr().out


def _a_cartan(n):
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize("argv", [
    ["check", "--max-rank", "13"],
    ["check", "--max-rank", "13", "--all-parabolics"],
    ["check", "--max-rank", "0"],
])
def test_check_max_rank_capped(capsys, argv):
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-rank must be between 1 and 12" in captured.err


def test_cartan_file_rank_capped(tmp_path, capsys):
    path = tmp_path / "a13.json"
    path.write_text(json.dumps(_a_cartan(13)))
    for verb in (["roots"], ["check", "--all-parabolics"]):
        assert "rank 13 exceeds the configured maximum 12" in _cartan_file_error(capsys, path, verb)
    path.write_text(json.dumps(_a_cartan(12)))
    assert _json_out(capsys, ["roots", "--cartan", str(path)])["count"] == 156


def test_check_cartan_file_has_no_type_name(tmp_path, capsys, monkeypatch):
    # an explicit matrix carries no type: null in the JSON, (explicit) in
    # the table and in every FAIL line
    path = tmp_path / "a3.json"
    path.write_text(json.dumps({"cartan": _a_cartan(3)}))
    doc = _json_out(capsys, ["check", "--cartan", str(path)])
    assert [t["type"] for t in doc["types"]] == [None]
    assert cli.run(["check", "--cartan", str(path), "--pretty"]) == 0
    out = capsys.readouterr().out
    assert "(explicit)" in out and "None" not in out

    from leviroots import checks

    real = checks.troot_system

    def corrupt(des):
        t = real(des)
        det, gs = t.form  # negated: delta pairs negatively with every t-root
        t.form = det, tuple(tuple(-v for v in row) for row in gs)
        return t

    monkeypatch.setattr(checks, "troot_system", corrupt)
    assert cli.run(["check", "--cartan", str(path), "--pretty"]) == 2
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
    assert fails and all(line.startswith("FAIL (explicit) deleted=") for line in fails)


def test_check_small(capsys):
    doc = _json_out(capsys, ["check", "A2", "--all-parabolics"])
    assert doc["schema"] == "leviroots.check/1"
    assert doc["ok"] is True
    assert doc["failure_count"] == 0


def test_check_max_rank(capsys):
    doc = _json_out(capsys, ["check", "--max-rank", "2"])
    assert doc["ok"] is True
    assert {t["type"] for t in doc["types"]} == {"A1", "A2", "B2", "C2", "G2"}


def test_check_deterministic(capsys):
    assert cli.run(["check", "B2", "--all-parabolics"]) == 0
    first = capsys.readouterr().out
    assert cli.run(["check", "B2", "--all-parabolics"]) == 0
    second = capsys.readouterr().out
    assert first == second and first


def test_check_failure_exit_code(capsys, monkeypatch):
    from leviroots import checks

    def broken(des):
        rep = checks.check_designation(troot_system(des))
        forced = rep.failures + (checks.Failure("bracket-law", "fake", "forced"),)
        return checks.DesignationReport(rep.deleted, rep.counts, forced)

    monkeypatch.setattr(checks, "check_type", lambda rs, all_parabolics=False: checks.TypeReport(
        stype=rs.stype,
        designations=[broken(designation(rs, kept=()))],
        nodes=[],
        sln_failures=[],
    ))
    assert cli.run(["check", "A1"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["failure_count"] == 1


def test_check_pretty_counts_the_fail_lines(capsys, monkeypatch):
    # the failures column counts the FAIL lines rendered for each type
    from leviroots import checks

    def report(rs, all_parabolics=False):
        fail = checks.Failure
        des = checks.check_designation(troot_system(designation(rs, kept=())))
        return checks.TypeReport(
            stype=rs.stype,
            designations=[checks.DesignationReport(
                des.deleted, des.counts,
                (fail("bracket-law", "x", "one"), fail("sign-rule", "x", "two")))],
            nodes=[checks.NodeReport(1, 2, None, (fail("equal-rank-classify", "x", "three"),))],
            sln_failures=[fail("block-crosscheck", "blocks=[1, 1]", "four")],
        )

    monkeypatch.setattr(checks, "check_type", report)
    assert cli.run(["check", "A1", "--pretty"]) == 2
    assert capsys.readouterr().out == (
        "scope: borel-and-maximal\n"
        "type  designations  nodes  status  failures\n"
        "----  ------------  -----  ------  --------\n"
        "A1    1             1      FAIL    4\n"
        "FAIL A1 deleted=[1] bracket-law: one\n"
        "FAIL A1 deleted=[1] sign-rule: two\n"
        "FAIL A1 node=1 equal-rank-classify: three\n"
        "FAIL A1 blocks=[1, 1] block-crosscheck: four\n"
        "result: FAIL\n"
    )


def test_invalid_args_exit_one(capsys):
    assert cli.run(["roots", "Z9"]) == 1
    assert cli.run(["roots", "A0"]) == 1
    assert cli.run(["troots", "A2"]) == 1            # --keep/--delete required
    assert cli.run(["troots", "A2", "--keep", "5"]) == 1
    assert cli.run(["bds", "G2", "--node", "7"]) == 1
    assert cli.run(["sln", "3"]) == 1                # single block
    assert cli.run(["check"]) == 1                   # type xor --max-rank
    assert cli.run(["check", "A2", "--max-rank", "3"]) == 1
    assert cli.run(["nonsense"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["troots", "A3", "--keep", "1,,3"], "empty entry in '1,,3'"),
    (["troots", "A3", "--delete", "2,"], "empty entry in '2,'"),
    (["sln", "2,,1"], "empty entry in '2,,1'"),
    (["troots", "A3", "--delete", "1,1"], "node indices named twice: [1]"),
])
def test_node_lists_reject_empty_and_repeated_entries(capsys, argv, message):
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv, message", [
    (["roots", "A²"], "error: cannot parse simple type from 'A²'\n"),
    (["roots", "A٣"], "error: cannot parse simple type from 'A٣'\n"),
    (["roots", "E８"], "error: cannot parse simple type from 'E８'\n"),
    (["troots", "A3", "--delete", "٢"], "argument --delete: invalid _node_list value: '٢'\n"),
    (["troots", "A3", "--delete", "1_2"], "argument --delete: invalid _node_list value: '1_2'\n"),
    (["bds", "G2", "--node", "0_2"], "argument --node: invalid int value: '0_2'\n"),
    (["check", "--max-rank", "0_3"], "argument --max-rank: invalid int value: '0_3'\n"),
    (["sln", "2,1_0"], "argument blocks: invalid _node_list value: '2,1_0'\n"),
])
def test_numbers_beyond_ascii_digits_exit_one(capsys, argv, message):
    # int() would read each of these (sln 2,1_0 as n = 12); none is run
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(message)


def test_sln_is_capped_at_the_maximum_rank(capsys):
    # blocks adding up to 13 give A12, the cap; one more is rejected
    assert _json_out(capsys, ["sln", "4,4,5"])["n"] == 13
    assert cli.run(["sln", "3,3,3,3,3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: composition of 15 needs type A14: rank 14 "
                            "exceeds the configured maximum 12\n")


def test_repeated_block_sizes_and_empty_keep_stay_valid(capsys):
    assert _json_out(capsys, ["sln", "2,2"])["n"] == 4
    assert _json_out(capsys, ["troots", "A3", "--keep", ""])["kept"] == []


@pytest.mark.parametrize("argv, message", [
    (["roots", "E8", "--cartan", "A1FILE"], "give either a type or --cartan, not both"),
    (["troots", "A2", "--cartan", "A1FILE", "--delete", "1"],
     "give either a type or --cartan, not both"),
    (["check", "--cartan", "A1FILE", "--max-rank", "3"],
     "give either --cartan or --max-rank, not both"),
    (["check", "--cartan", "A1FILE", "--max-rank", "0"],
     "give either --cartan or --max-rank, not both"),
    (["bds", "A3", "--dot", "--pretty"], "give either --dot or --pretty, not both"),
])
def test_overridden_selectors_exit_one(tmp_path, capsys, argv, message):
    # a selector that another one would override is rejected, never ignored
    a1 = tmp_path / "a1.json"
    a1.write_text(json.dumps([[2]]))
    assert cli.run([str(a1) if arg == "A1FILE" else arg for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    assert cli.run(["troots", "--help"]) == 0
    capsys.readouterr()


def test_missing_cartan_file(capsys):
    assert cli.run(["roots", "--cartan", "/nonexistent/file.json"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


# sha256 of the stdout of `check <type> --all-parabolics`, pinned so that
# any change to the verdicts, counts, wording or order of the report shows
CHECK_STDOUT_SHA256 = {
    "F4": "f47bd606c1bbaf8f905201fe8b5ac5a4bd6010e8b25843471a1c24d60db44265",
    "E6": "0f3b1cc2e793eb7f67578c63ecb99e1bb3056c9a16a394f47594b4e7df4788a7",
}


@pytest.mark.parametrize("name", sorted(CHECK_STDOUT_SHA256))
def test_check_all_parabolics_stdout_pinned(capsys, name):
    assert cli.run(["check", name, "--all-parabolics"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CHECK_STDOUT_SHA256[name]


# the only output that covers the Borel-de Siebenthal node checks and the
# designation laws on the types of rank 9 to 12
CHECK_MAX_RANK_12_SHA256 = "3c91182cd0b997c21f94d3ea3f1806a09fef20dd5eafc23ac4c22dfeb8d1a2ed"


def test_check_max_rank_12_stdout_pinned(capsys):
    assert cli.run(["check", "--max-rank", "12"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CHECK_MAX_RANK_12_SHA256


# the full rank <= 12 sweep: every parabolic of all 48 types, 33,162
# designations, about two minutes on a 2-vCPU machine
CHECK_MAX_RANK_12_ALL_PARABOLICS_SHA256 = (
    "2ac5b42c87ceff1c277a5899d356b5af80e426f076d5142fb365eb656dff2320")


@pytest.mark.slow
def test_check_max_rank_12_all_parabolics_stdout_pinned(capsys):
    assert cli.run(["check", "--max-rank", "12", "--all-parabolics"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == CHECK_MAX_RANK_12_ALL_PARABOLICS_SHA256


# sha256 over the troots and series documents of every parabolic of each
# type of rank <= 6 and the Borel and maximal parabolics at ranks 7 and 8
# (633 designations), then the bds document of every type of rank <= 8
DOCUMENTS_SHA256 = "261aa7d0a588ba5b6f6bbdae7e862d8d903913d685549f0215bf41fb1ee7d94c"


def test_troots_series_and_bds_documents_pinned():
    digest, count = hashlib.sha256(), 0
    for stype in all_simple_types(8):
        rs = root_system(stype, max_rank=8)
        scope = all_parabolic_designations(rs) if rs.rank <= 6 else standard_designations(rs)
        for des in scope:
            trsys = troot_system(des)
            for doc in (trsys.document(), series_document(trsys)):
                digest.update(json.dumps(doc).encode("utf-8"))
            count += 1
        digest.update(json.dumps(bds_document(rs)).encode("utf-8"))
    assert count == 633
    assert digest.hexdigest() == DOCUMENTS_SHA256


# sha256 over the bds document of every type of rank <= 12 (48 types, 331
# nodes): residue sizes, highest weights and Cartan matrices of every node
BDS_DOCUMENTS_SHA256 = "33a1d0e9f1aa9dc5cceaabb154678af60853f9fb6a39da780ebd46de5b08d1bf"


def test_bds_documents_to_rank_12_pinned():
    digest, nodes = hashlib.sha256(), 0
    for stype in all_simple_types(12):
        doc = bds_document(root_system(stype, max_rank=12))
        digest.update(json.dumps(doc).encode("utf-8"))
        nodes += len(doc["nodes"])
    assert nodes == 331
    assert digest.hexdigest() == BDS_DOCUMENTS_SHA256


# (arguments, exit status, stdout sha256) for every verb, JSON and --pretty,
# bds --dot, an explicit Cartan file (G2FILE) and two rejected calls, taken
# before the per-pair and batched t-root laws were merged; any change to
# what the verbs print shows here
CLI_CORPUS = [
    ("roots G2", 0, "72f31e714e47b312ebde16bca131bd307d70e6ce4b51e4545f2cfdc3f88ba504"),
    ("roots G2 --pretty", 0, "b426b32b6c2a2e934ab536394d986538c06d52184927646925d88a78c21bd291"),
    ("troots E6 --delete 2", 0, "621226f82a3ea12336f0fd79e1091f9e1ff24da4740cd71b08eaff13737a6c4c"),
    ("troots E6 --delete 2 --pretty", 0,
     "6d834629d11dc8ba0e47f2d6ffcdebacfa3a3600812e27edd5eaf90ea1203a33"),
    ("troots B3 --keep 1 --pretty", 0,
     "514f841f21ec71d9d5f928b42c06b2682d20445bdddc361bbc1c2efc8182655f"),
    ("series G2 --delete 1,2", 0, "6e841f9548c6ef6a054d503af8a1d6c2dadc617113bd030686ae336e5d29344d"),
    ("series B3 --delete 2 --pretty", 0,
     "01b028bdbb5d1527e2f34c52b1d267a99916f3cba1e42f73eeac8c5e26b9aafd"),
    ("bds F4", 0, "2ca985652df3c330b81256bfaa26d52f424a4db9785ecc70b1614dae488d5110"),
    ("bds F4 --pretty", 0, "e21ba537b640b6cc281d344755b9ad7493d60dcce1e3472f19d36cc6420599d4"),
    ("bds G2 --dot", 0, "bd8accd4e8f8aff0a27e161203a48403226cc536db770df6abc36765c711b9b3"),
    ("maximal E6", 0, "45534fcd96da7a61805363a9af61dbd17ea84f0461c341171ea4ffa70c34fd9c"),
    ("maximal E6 --pretty", 0, "676d2a10f3701b086d729b80617c176ef732d24b0c259bf1a2c89684a71ba2b8"),
    ("sln 2,1,3", 0, "6333d0a884cb1b9caf95b104057cfae49412cdf2f29b63bad65ee048a0d83d3d"),
    ("sln 2,1,3 --pretty", 0, "8b806b20db4da3f4e4319009f92163a572b1d364b84e2ebe5c6b8c891193ba73"),
    ("check G2", 0, "0b816a8fdc53ad5fad12c766cf052cccdfd5e29cce92bd78790d1a50b1a8291a"),
    ("check --max-rank 2", 0, "76e713104a48cc8ec2afbcb46059f3ca74ea848a3eb1c7423f00853ccedd3281"),
    ("check A3 --all-parabolics --pretty", 0,
     "0dfa22c03494aeef1ff79ca4fff962e451834dff16f8d3ab88e1be73a4e0a4ca"),
    ("roots --cartan G2FILE", 0, "6b5ea928a2948b84ec1e0b074f508e397b34eeab90e825650cdad6b14db0e606"),
    ("roots --cartan G2FILE --pretty", 0,
     "6180430ec0ce4341383ba2d6fa5b9e4461a1b217fcecb6989b372f49ce7136c6"),
    ("troots A3 --delete 7", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("check G2 --max-rank 3", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("line, code, digest", CLI_CORPUS, ids=[c[0] for c in CLI_CORPUS])
def test_cli_corpus_stdout_pinned(tmp_path, capsys, line, code, digest):
    g2 = tmp_path / "g2.json"
    g2.write_text(json.dumps({"cartan": [[2, -1], [-3, 2]]}))
    argv = [str(g2) if arg == "G2FILE" else arg for arg in line.split()]
    assert cli.run(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
