"""Typicality analysis of finite-dimensional quantum processes.

Evaluates mutual typicality measures between single-time cylinder sets,
reconstructs admissible particle trajectories from exclusion and
typicality constraints, builds the multi-pass interferometer scenarios,
and verifies the typicality explanation of statistical experiments against
exact combinatorial oracles.
"""

__version__ = "0.1.0"

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
from .graph import PartitionSchedule, TrajectoryGraph, build_graph, branch_following_check
from .scenarios import (
    UnruhModel,
    build_beamsplitter_fig1,
    build_unruh,
    nonadditivity_demo,
    obstacle_variant,
)
from .stats import (
    ExperimentSpec,
    atypical_region,
    born_frequency_report,
    build_measurement_chain,
    deviation,
    typical_region,
    typical_set_bound,
    typical_set_complement_mass,
)
from .stochastic import (
    CorrespondenceAudit,
    StochasticProcessSpec,
    correspondence_audit,
    cylinder_measure,
    matched_markov_chain,
    mu_sset,
    mu_symmetric_difference,
    mu_typicality,
    process_from_dict,
    process_to_dict,
)
from .typicality import (
    TypicalityReport,
    Verdict,
    check_inequality_chain,
    exclusion_measure,
    mutual_typicality,
    mutual_typicality_measure_mu,
)
from .wavepacket import (
    GridState,
    free_evolve,
    gaussian_packet,
    packet_support,
    separation_sweep,
    superposition,
    support_condition_check,
)
