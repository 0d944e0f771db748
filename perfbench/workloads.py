"""Workload definitions shared by the benchmark runner and its child probes.

Importing this module does not import leviroots; ``setup`` does, so a probe
can time the import together with the generation it triggers.
"""

from __future__ import annotations

from typing import NamedTuple


class Sweep(NamedTuple):
    """One exhaustive ``check_type`` sweep and the totals it must produce."""

    max_rank: int
    all_parabolics: bool
    types: int
    designations: int
    spaces: int
    nodes: int


# Totals are the published sweep sizes; a run whose document disagrees is
# not correct, whatever its timing.
SWEEPS = {
    # Every parabolic of every type of rank <= 8: the per-designation laws and
    # both series oracles dominate, BdS (Borel-de Siebenthal) checks are minor.
    "parabolic-r8": Sweep(8, True, 32, 2458, 79754, 163),
    # Borel plus maximal parabolics up to rank 12: few designations per root
    # system, so per-system work and the BdS node checks weigh more.
    "maximal-r12": Sweep(12, False, 48, 378, 6056, 331),
}

CLI_WORKLOAD = "cli-corpus"
WORKLOADS = (*SWEEPS, CLI_WORKLOAD)

VERBS = ("roots", "troots", "series", "bds", "maximal", "sln", "check")

# (arguments, expected exit status).  Every verb on small (G2, A3) and large
# (E8, rank 12) input, JSON and --pretty, bds --dot, an explicit Cartan file,
# and invalid invocations that must exit 1.  Paths are relative to the
# checkout root, which is the working directory of every call.
CORPUS = (
    ("roots G2", 0),
    ("roots A3 --pretty", 0),
    ("roots E8", 0),
    ("roots D12", 0),
    ("roots --cartan perfbench/data/g2_cartan.json", 0),
    ("troots A3 --delete 2", 0),
    ("troots G2 --keep 1 --pretty", 0),
    ("troots E8 --delete 4", 0),
    ("troots B12 --delete 1,12", 0),
    ("series G2 --delete 1,2", 0),
    ("series A3 --delete 2 --pretty", 0),
    ("series E8 --delete 2", 0),
    ("series D12 --delete 12", 0),
    ("bds G2", 0),
    ("bds G2 --dot", 0),
    ("bds E8 --node 5 --pretty", 0),
    ("bds E8", 0),
    ("bds C12 --dot", 0),
    ("maximal A3", 0),
    ("maximal E8 --pretty", 0),
    ("maximal B12", 0),
    ("sln 2,1", 0),
    ("sln 3,2,4 --pretty", 0),
    ("sln 4,4,5", 0),
    ("check G2", 0),
    ("check A3 --all-parabolics --pretty", 0),
    ("check E8", 0),
    ("check --max-rank 3", 0),
    ("roots X9", 1),
    ("roots A13", 1),
    ("troots A3 --delete 7", 1),
    ("bds E8 --node 9", 1),
    ("sln 0,3", 1),
    ("check G2 --max-rank 3", 1),
)

# Root systems the corpus builds (sln n1,n2,... builds A_{n-1}; check
# --max-rank 3 builds every type of rank <= 3), for the set-up probe.
CLI_TYPES = (
    "A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2",
    "E8", "D12", "B12", "C12", "A8", "A12",
)


def setup(workload: str) -> list:
    """Import leviroots and build every root system and designation list.

    Returns (root system, designations) pairs in check order.
    """
    if workload in SWEEPS:
        from leviroots import checks, rootsys

        sweep = SWEEPS[workload]
        systems = [
            rootsys.root_system(stype, max_rank=sweep.max_rank)
            for stype in rootsys.all_simple_types(sweep.max_rank)
        ]
        scope = (
            checks.all_parabolic_designations if sweep.all_parabolics
            else checks.standard_designations
        )
    elif workload == CLI_WORKLOAD:
        import leviroots.cli  # noqa: F401  (the import every call pays)
        from leviroots import checks, rootsys

        systems = [rootsys.root_system(name) for name in CLI_TYPES]
        scope = checks.standard_designations
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [(rs, scope(rs)) for rs in systems]
