"""docs/schemas.md lists exactly the fields that each verb emits."""

import json
import re
from pathlib import Path

import pytest

from leviroots import cli

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas.md"

# one small call per verb; G2 has residue classes and two maximal entries
CALLS = {
    "roots": ["roots", "G2"],
    "troots": ["troots", "G2", "--delete", "1"],
    "series": ["series", "G2", "--delete", "1"],
    "bds": ["bds", "G2"],
    "maximal": ["maximal", "G2"],
    "sln": ["sln", "2,1"],
    "check": ["check", "G2"],
}


def _documented() -> dict[str, set[str]]:
    # each "## leviroots.NAME/1  (`verb`)" section: the backticked names in
    # the first cell of its table rows
    out: dict[str, set[str]] = {}
    verb = None
    for line in SCHEMAS.read_text(encoding="utf-8").splitlines():
        heading = re.match(r"## leviroots\.\S+  \(`(\w+)`\)", line)
        if heading:
            verb = heading.group(1)
            out[verb] = set()
        elif verb and line.startswith("| `"):
            out[verb].update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return out


def _emitted(doc, prefix="") -> set[str]:
    # "a.b" for a nested object, "a[].b" for the objects of a list
    out = set()
    if isinstance(doc, dict):
        for key, value in doc.items():
            out.add(prefix + key)
            out |= _emitted(value, prefix + key + ".")
    elif isinstance(doc, list):
        for value in doc:
            out |= _emitted(value, prefix[:-1] + "[].")
    return out


def test_every_verb_has_a_section():
    assert set(_documented()) == set(CALLS)


@pytest.mark.parametrize("verb", sorted(CALLS))
def test_documented_fields_are_the_emitted_ones(capsys, verb):
    assert cli.run(CALLS[verb]) == 0
    emitted = _emitted(json.loads(capsys.readouterr().out))
    documented = _documented()[verb]
    assert sorted(documented - emitted) == [], "documented but not emitted"
    assert sorted(emitted - documented) == [], "emitted but not documented"
