import hashlib
import json

import pytest

from leviroots import cli


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


@pytest.mark.parametrize("matrix", [
    [[2, -1.7], [-1, 2]],    # would truncate to A2
    [[2.9, -1], [-1, 2]],
    [[2, -1.0], [-1, 2]],    # integral, but not a JSON integer
    [[2, True], [-1, 2]],    # booleans are not integers
])
def test_cartan_file_rejects_non_integer_entries(tmp_path, capsys, matrix):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"cartan": matrix}))
    assert cli.run(["roots", "--cartan", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not an integer" in captured.err


def test_cartan_file_without_cartan_key(tmp_path, capsys):
    path = tmp_path / "nokey.json"
    path.write_text(json.dumps({"matrix": [[2, -1], [-1, 2]]}))
    assert cli.run(["roots", "--cartan", str(path)]) == 1
    err = capsys.readouterr().err
    assert 'no "cartan" key' in err


def test_cartan_file_not_a_matrix(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps([2, -1, -1, 2]))
    assert cli.run(["roots", "--cartan", str(path)]) == 1
    assert "list of rows" in capsys.readouterr().err


def test_bds_dot_rejects_bad_node(capsys):
    assert cli.run(["bds", "G2", "--dot", "--node", "7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "node 7 out of range 1..2" in captured.err
    assert cli.run(["bds", "G2", "--dot", "--node", "2"]) == 0
    assert "fillcolor" in capsys.readouterr().out


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
        rep = checks.check_designation(des)
        forced = rep.failures + (checks.Failure("bracket-law", "fake", "forced"),)
        return checks.DesignationReport(rep.deleted, rep.counts, forced)

    monkeypatch.setattr(cli.checks, "check_type", lambda rs, all_parabolics=False: checks.TypeReport(
        stype=rs.stype,
        designations=[broken(checks.borel_designation(rs))],
        nodes=[],
        sln_failures=[],
        maximal=[],
    ))
    assert cli.run(["check", "A1"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["failure_count"] == 1


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
