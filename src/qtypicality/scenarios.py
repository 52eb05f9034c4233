"""Concrete interferometer models: beam splitter, multi-pass Mach-Zehnder.

Phase convention, fixed once for every model here: half-silvered
mirrors transmit with amplitude 1/sqrt(2) and reflect with i/sqrt(2) (a
pi/2 phase shift per reflection), full-mirror bounces contribute an equal
phase to both arms and therefore drop out, and the source enters in the
lower (D) mode. Under this convention the whole eight-entry sign table of
the multi-pass interferometer holds exactly in the two-mode model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import core
from .core import ProjectedVector, QuantumStructure, SSet
from .errors import ValidationError
from .graph import PartitionSchedule

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Half-silvered mirror in the (U, D) arm basis: transmit 1/sqrt(2),
#: cross-reflect i/sqrt(2).
BEAM_SPLITTER = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) * _INV_SQRT2


@dataclass(frozen=True)
class UnruhModel:
    """Multi-pass Mach-Zehnder over arm cells U and D (plus detector cells)."""

    structure: QuantumStructure

    @property
    def psi_u(self) -> ProjectedVector:
        """Chained projection through U at all three sections, at t3."""
        return core.chain_project(
            self.structure, [SSet(t, {"U"}) for t in (1, 2, 3)]
        )

    @property
    def psi_d(self) -> ProjectedVector:
        """U1 -> U2 -> D3 chain, the lower-detector reference packet, at t3."""
        return core.chain_project(
            self.structure,
            [SSet(1, {"U"}), SSet(2, {"U"}), SSet(3, {"D"})],
        )

    def partition_schedule(self) -> PartitionSchedule:
        """Singleton-cell slices at t1, t2, t3 for trajectory reconstruction."""
        return PartitionSchedule(
            (t, tuple({label} for label in self.structure.labels))
            for t in (1, 2, 3)
        )


def _embed(dim: int, block: np.ndarray) -> np.ndarray:
    out = np.eye(dim, dtype=complex)
    out[: block.shape[0], : block.shape[1]] = block
    return out


def _swap(dim: int, i: int, j: int) -> np.ndarray:
    out = np.eye(dim, dtype=complex)
    out[[i, j]] = out[[j, i]]
    return out


def build_unruh(with_detector_d2: bool = False) -> UnruhModel:
    """The multi-pass interferometer, optionally with a counter in arm D-2.

    Without the counter the two-mode model makes the which-way identities
    exact. With it, a third absorbing CLICK cell unitarily receives each
    branch's D amplitude at t2, so per-branch D2 terms vanish while the
    evolution stays unitary.
    """
    if with_detector_d2:
        dim = 3
        splitter = _embed(dim, BEAM_SPLITTER)
        schedule = [splitter, _swap(dim, 1, 2) @ splitter, splitter]
        cells = {"U": [0], "D": [1], "CLICK": [2]}
        psi0 = np.array([0.0, 1.0, 0.0], dtype=complex)
    else:
        dim = 2
        schedule = [BEAM_SPLITTER] * 3
        cells = {"U": [0], "D": [1]}
        psi0 = np.array([0.0, 1.0], dtype=complex)
    structure = QuantumStructure(dim, psi0, schedule, cells)
    return UnruhModel(structure)


def obstacle_variant(arm: str) -> UnruhModel:
    """Interferometer with an absorbing obstacle in arm U-1 or D-1."""
    if arm not in ("U1", "D1"):
        raise ValidationError(f"obstacle arm must be 'U1' or 'D1', got {arm!r}")
    blocked_index = 0 if arm == "U1" else 1
    dim = 3
    splitter = _embed(dim, BEAM_SPLITTER)
    schedule = [_swap(dim, blocked_index, 2) @ splitter, splitter, splitter]
    cells = {"U": [0], "D": [1], "BLOCK": [2]}
    psi0 = np.array([0.0, 1.0, 0.0], dtype=complex)
    structure = QuantumStructure(dim, psi0, schedule, cells)
    return UnruhModel(structure)


class NonadditivityWitness(NamedTuple):
    combined: float
    term_u1: float
    term_d1: float

    @property
    def additive(self) -> bool:  # within 0.1, which the demo refuses
        return abs(self.combined - (self.term_u1 + self.term_d1)) < 0.1


def nonadditivity_demo() -> NonadditivityWitness:
    """Chained-projection masses showing the failure of additivity.

    Projecting through U2 after the union of the two t1 arms keeps the full
    unit mass, while the two single-arm chains carry only 1/4 each: the
    chained squared norm is not additive over a disjoint t1 decomposition.
    """
    model = build_unruh()
    s_u2 = SSet(2, {"U"})
    combined = core.chain_project(model.structure, [SSet(1, {"U", "D"}), s_u2]).norm_sq
    term_u1 = core.chain_project(model.structure, [SSet(1, {"U"}), s_u2]).norm_sq
    term_d1 = core.chain_project(model.structure, [SSet(1, {"D"}), s_u2]).norm_sq
    witness = NonadditivityWitness(combined, term_u1, term_d1)
    if witness.additive:
        raise AssertionError(f"interference witness unexpectedly additive: {witness}")
    return witness


def build_beamsplitter_fig1() -> QuantumStructure:
    """Single beam splitter: split at the t1 pinholes, detect at t2.

    Cells A and B stand for pinhole/detector pairs; the step from t1 to t2
    is free propagation (identity), so each detector cell at t2 is mutually
    typical with its pinhole cell at t1.
    """
    psi0 = np.array([1.0, 0.0], dtype=complex)
    schedule = [BEAM_SPLITTER, np.eye(2, dtype=complex)]
    return QuantumStructure(2, psi0, schedule, {"A": [0], "B": [1]})
