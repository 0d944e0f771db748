"""Restricted root systems of parabolic subalgebras, exactly.

The library generates finite root systems from Cartan matrices with
integer/rational arithmetic only, restricts them to the center of a
Levi factor (t-roots), certifies each restricted space irreducible,
computes the grading and both central series of the nilradical in
closed form with brute-force oracles, and classifies the equal-rank
subalgebras obtained from the extended Dynkin diagram.

The package exports its key entry points and error classes; everything
else lives in its submodule (``rootsys``, ``levi``, ``series``, ``bds``,
``slnx``, ``checks``, ``cli``).  Importing the package loads no
submodule: each exported name imports its submodule on first access.
"""

from importlib import import_module

# each exported name by the submodule that defines it; the submodule is
# imported on first access (PEP 562), so a process loads only what it uses
_EXPORTS = {
    "errors": (
        "InvalidCartan", "InvalidComposition", "InvalidDesignation", "InvalidPair",
        "InvalidRank", "IrreducibilityViolation", "LeviRootsError", "NotFiniteType",
        "SeriesMismatch", "SimpleSystemFailure",
    ),
    "rootsys": ("generate", "root_system"),
    "levi": ("designation", "troot_system"),
    "series": ("closed_form_series", "grading"),
    "bds": ("classify", "extended_diagram", "maximal_equal_rank", "subalgebra_roots"),
    "slnx": ("block_table", "composition", "crosscheck"),
    "checks": ("check_type", "sweep_types"),
}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
