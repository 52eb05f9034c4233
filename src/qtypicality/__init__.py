"""Typicality analysis of finite-dimensional quantum processes.

Evaluates mutual typicality measures between single-time cylinder sets,
reconstructs admissible particle trajectories from exclusion and
typicality constraints, builds the multi-pass interferometer scenarios,
and verifies the typicality explanation of statistical experiments against
exact combinatorial oracles.

The names of ``core`` and ``errors`` are bound at import. Every other
public name loads its module on first access (PEP 562), so a caller that
reads only some modules imports only those. Such a name is looked up in its
module on every access, never cached here, so a name patched in its module
(a test's monkeypatch, a profiler's wrapper) reads patched here too, and
restored once it is restored.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from .core import (
    FactorUnitary,
    ProjectedVector,
    QuantumStructure,
    SSet,
    chain_project,
    evolve,
    heisenberg_project,
    load_scenario,
    occupations,
    state_at,
    structure_from_dict,
    structure_to_dict,
)
from .errors import (
    ResourceLimitError,
    SchemaError,
    TimeRangeError,
    ValidationError,
)

# The public names of each module loaded on first use.
_LAZY = {
    "graph": ("PartitionSchedule", "TrajectoryGraph", "build_graph", "branch_following_check"),
    "scenarios": (
        "UnruhModel",
        "build_beamsplitter_fig1",
        "build_unruh",
        "nonadditivity_demo",
        "obstacle_variant",
    ),
    "stats": (
        "ExperimentSpec",
        "atypical_region",
        "born_frequency_report",
        "build_measurement_chain",
        "deviation",
        "typical_region",
        "typical_set_bound",
        "typical_set_complement_mass",
    ),
    "stochastic": (
        "CorrespondenceAudit",
        "StochasticProcessSpec",
        "correspondence_audit",
        "cylinder_measure",
        "matched_markov_chain",
        "mu_sset",
        "mu_symmetric_difference",
        "mu_typicality",
        "process_from_dict",
        "process_to_dict",
    ),
    "typicality": (
        "TypicalityReport",
        "Verdict",
        "check_inequality_chain",
        "exclusion_measure",
        "mutual_typicality",
        "mutual_typicality_measure_mu",
    ),
    "wavepacket": (
        "GridState",
        "free_evolve",
        "gaussian_packet",
        "packet_support",
        "separation_sweep",
        "superposition",
        "support_condition_check",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "FactorUnitary",
    "ProjectedVector",
    "QuantumStructure",
    "SSet",
    "chain_project",
    "evolve",
    "heisenberg_project",
    "load_scenario",
    "occupations",
    "state_at",
    "structure_from_dict",
    "structure_to_dict",
    "ResourceLimitError",
    "SchemaError",
    "TimeRangeError",
    "ValidationError",
    *_MODULE_OF,
]


def __getattr__(name: str):
    """A lazy public name's current value in its module, or a submodule."""
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(_import_module(f"{__name__}.{module}"), name)
    if name in _LAZY:  # importing a submodule binds it here, so this runs once
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_MODULE_OF})
