"""Restricted root systems of parabolic subalgebras, exactly.

The library generates finite root systems from Cartan matrices with
integer/rational arithmetic only, restricts them to the center of a
Levi factor (t-roots), certifies each restricted space irreducible,
computes the grading and both central series of the nilradical in
closed form with brute-force oracles, and classifies the equal-rank
subalgebras obtained from the extended Dynkin diagram.

The package exports its key entry points and error classes; everything
else lives in its submodule (``rootsys``, ``levi``, ``series``, ``bds``,
``slnx``, ``checks``, ``exactlin``, ``cli``).
"""

from .errors import (
    InvalidCartan,
    InvalidComposition,
    InvalidDesignation,
    InvalidPair,
    InvalidRank,
    IrreducibilityViolation,
    LeviRootsError,
    NotFiniteType,
    SeriesMismatch,
    SimpleSystemFailure,
)
from .rootsys import generate, root_system
from .levi import designation, troot_system
from .series import closed_form_series, grading
from .bds import classify, extended_diagram, maximal_equal_rank, subalgebra_roots
from .slnx import block_table, composition, crosscheck
from .checks import check_type, sweep_types

__version__ = "0.1.0"

__all__ = [
    "InvalidCartan",
    "InvalidComposition",
    "InvalidDesignation",
    "InvalidPair",
    "InvalidRank",
    "IrreducibilityViolation",
    "LeviRootsError",
    "NotFiniteType",
    "SeriesMismatch",
    "SimpleSystemFailure",
    "block_table",
    "check_type",
    "classify",
    "closed_form_series",
    "composition",
    "crosscheck",
    "designation",
    "extended_diagram",
    "generate",
    "grading",
    "maximal_equal_rank",
    "root_system",
    "subalgebra_roots",
    "sweep_types",
    "troot_system",
]
