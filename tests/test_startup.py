"""What a fresh process imports: the package alone loads no submodule, and
each CLI verb loads only the modules it runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import leviroots

SRC = Path(leviroots.__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}


def imported(*args: str) -> set[str]:
    """The modules that ``python -X importtime ARGS`` imports, by name."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def package_modules(names: set[str]) -> set[str]:
    return {name for name in names if name.split(".")[0] == "leviroots"}


def test_importing_the_package_loads_no_submodule():
    names = imported("-c", "import leviroots")
    assert package_modules(names) == {"leviroots"}
    assert not names & {"dataclasses", "inspect"}


def test_roots_verb_loads_only_rootsys():
    # run as a script, leviroots.cli is __main__ and not imported by name
    names = imported("-m", "leviroots.cli", "roots", "G2")
    assert package_modules(names) == {"leviroots", "leviroots.errors", "leviroots.rootsys"}
    assert not names & {"dataclasses", "inspect", "fractions", "decimal"}


# each verb's modules besides leviroots, errors and rootsys
VERB_MODULES = {
    "troots A3 --delete 2": {"levi"},
    "series G2 --delete 1,2": {"levi", "series"},
    "bds G2": {"bds", "levi"},
    "bds G2 --dot": {"bds"},
    "maximal G2": {"bds"},
    "sln 2,1": {"slnx"},
    "check G2": {"levi", "series", "bds", "slnx", "checks"},
}


@pytest.mark.parametrize("argv", VERB_MODULES)
def test_each_verb_loads_the_modules_it_runs(argv):
    loaded = VERB_MODULES[argv]
    names = imported("-m", "leviroots.cli", *argv.split())
    base = {"leviroots", "leviroots.errors", "leviroots.rootsys"}
    assert package_modules(names) == base | {f"leviroots.{m}" for m in loaded}
    assert not names & {"dataclasses", "inspect"}
    if "levi" not in loaded:  # only a verb that builds t-roots prints fractions
        assert not names & {"fractions", "decimal"}


def test_every_export_is_its_submodule_object():
    for name in leviroots.__all__:
        value = getattr(leviroots, name)
        home = value.__module__
        assert home.startswith("leviroots."), name
        assert getattr(sys.modules[home], name) is value, name
    assert set(leviroots.__all__) <= set(dir(leviroots))


def test_unknown_export_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(leviroots, "no_such_name")
    with pytest.raises(ImportError):
        from leviroots import no_such_name  # noqa: F401
