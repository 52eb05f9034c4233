"""Finite-dimensional quantum structures and Heisenberg-projected vectors.

A quantum structure bundles a Hilbert space of dimension ``dim``, a unit
initial vector, a schedule of per-step unitaries (step ``k`` evolves time
index ``k`` to ``k + 1``), and a labeled partition of the basis index set
that plays the role of a projection-valued measure on configuration space.

All inputs are copied and frozen at construction. Each structure keeps
private caches, filled lazily and dropped with the structure: the trajectory
``Psi(t)``, one boolean mask per region, and the Heisenberg-projected
initial vectors served by ``project_initial``. Cached arrays are read-only,
so callers can share them but never change them. Every cache entry is a
pure function of its key, so two threads filling one entry store equal
values and a structure stays safe to share between threads.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import SchemaError, TimeRangeError, ValidationError

UNITARITY_TOL = 1e-10
NORM_TOL = 1e-12


class FactorUnitary:
    """A unitary acting on one tensor factor of a ``base**num_factors`` space.

    Every schedule step is one: a dense ``d x d`` step is the single factor
    of a one-factor space. Only the ``base x base`` matrix is stored; with
    more factors, application reshapes the state vector instead of
    materializing the full Kronecker product, so it stays cheap at
    dimensions where a dense matrix would not fit.
    """

    def __init__(self, matrix: np.ndarray, index: int, num_factors: int):
        matrix = _frozen(matrix, "step matrix")
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError("step matrix must be square")
        if not np.all(np.isfinite(matrix)):
            raise ValidationError("step matrix has non-finite entries")
        index = _as_int(index, "factor index")
        num_factors = _as_int(num_factors, "factor count")
        if not 0 <= index < num_factors:
            raise ValidationError(f"factor index {index} out of range")
        self.matrix = matrix
        self.index = index
        self.num_factors = num_factors
        self.base = matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.base ** self.num_factors

    def apply(self, vec: np.ndarray, adjoint: bool = False) -> np.ndarray:
        m = self.matrix
        if self.num_factors == 1:
            # (v* U)* equals U^dagger v without materializing the adjoint.
            return (vec.conj() @ m).conj() if adjoint else m @ vec
        if adjoint:
            m = m.conj().T
        t = vec.reshape((self.base,) * self.num_factors)
        t = np.moveaxis(np.tensordot(m, t, axes=(1, self.index)), 0, self.index)
        return np.ascontiguousarray(t).reshape(-1)

    def unitarity_defect(self) -> float:
        m = self.matrix
        return float(np.abs(m.conj().T @ m - np.eye(self.base)).max())


def _frozen(arr, what: str, dtype=complex) -> np.ndarray:
    """A read-only copy, so no caller can change it behind a cache. An
    integer entry beyond float range raises, naming ``what``."""
    try:
        out = np.array(arr, dtype=dtype)
    except OverflowError:
        raise ValidationError(f"{what} has an integer entry beyond float range") from None
    out.setflags(write=False)
    return out


def _apply_step(step: FactorUnitary, vec: np.ndarray, adjoint: bool = False) -> np.ndarray:
    return step.apply(vec, adjoint=adjoint)


def _is_index(i) -> bool:
    return isinstance(i, (int, np.integer)) and not isinstance(i, bool)


def _as_int(value, what: str) -> int:
    """``value`` as an int. Integral floats such as 1.0 pass; a bool, a
    non-integral, NaN or infinite float, or a non-number raises."""
    if type(value) is int:  # the common case, kept cheap for per-step time checks
        return value
    if isinstance(value, (float, np.floating)) and value.is_integer():
        return int(value)
    if not _is_index(value):
        raise ValidationError(f"{what} {value!r} is not an integer")
    return int(value)


def _cell_table(cells: Mapping[str, Iterable[int]], dim: int) -> dict:
    """Sorted, read-only index arrays per label, checked in one pass to
    partition ``range(dim)``. An error names the offending cell."""
    members = {str(label): list(idx) for label, idx in cells.items()}
    labels = list(members)
    sizes = [len(idx) for idx in members.values()]
    owner = np.repeat(np.arange(len(labels)), sizes)
    flat = [i for idx in members.values() for i in idx]
    # isinstance depends on the type alone, so one index of each type decides;
    # the check comes first because np.array([1, True]) is a valid int array.
    try:
        valid = all(map(_is_index, dict(zip(map(type, flat), flat)).values()))
        indices = np.array(flat, dtype=np.intp) if valid else None
    except OverflowError:
        indices = None
    if indices is None or (indices.size and not 0 <= indices.min() <= indices.max() < dim):
        bad = next(k for k, i in enumerate(flat) if not (_is_index(i) and 0 <= i < dim))
        kind = "an out-of-range" if _is_index(flat[bad]) else "a non-integer"
        raise ValidationError(f"cell {labels[owner[bad]]!r} has {kind} index {flat[bad]!r}")
    flat = indices[np.lexsort((indices, owner))]  # sorts each cell, keeps cells in place
    counts = np.bincount(flat, minlength=dim)
    if counts.max() > 1:
        again = np.flatnonzero(flat == np.argmax(counts))[1]
        raise ValidationError(f"cell {labels[owner[again]]!r} claims index {flat[again]} twice")
    if counts.min() == 0:
        raise ValidationError(f"cells do not cover basis index {np.argmin(counts)}")
    flat.setflags(write=False)
    bounds = list(itertools.accumulate(sizes, initial=0))
    return {label: flat[lo:hi] for label, lo, hi in zip(labels, bounds, bounds[1:])}


@dataclass(frozen=True)
class SSet:
    """Single-time cylinder set: a (time index, set of cell labels) pair."""

    time: int
    region: frozenset

    def __init__(self, time: int, region: Iterable[str]):
        object.__setattr__(self, "time", _as_int(time, "time index"))
        object.__setattr__(self, "region", frozenset(region))


@dataclass(frozen=True)
class ProjectedVector:
    """A (possibly non-normalized) vector tagged with its expression time."""

    amplitudes: np.ndarray
    at_time: int

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


class QuantumStructure:
    """Hilbert dimension, initial state, step unitaries, and labeled cells."""

    def __init__(
        self,
        dim: int,
        psi0: np.ndarray,
        schedule: Sequence,
        cells: Mapping[str, Iterable[int]],
    ):
        self.dim = _as_int(dim, "dimension")
        self.psi0 = _frozen(psi0, "psi0").reshape(-1)
        if self.psi0.shape[0] != self.dim:
            raise ValidationError("psi0 length does not match dim")
        if not np.all(np.isfinite(self.psi0)):
            raise ValidationError("psi0 has non-finite entries")
        if abs(np.vdot(self.psi0, self.psi0).real - 1.0) > NORM_TOL:
            raise ValidationError("psi0 is not unit norm")

        self.schedule = tuple(
            s if isinstance(s, FactorUnitary) else FactorUnitary(s, 0, 1) for s in schedule
        )
        for k, step in enumerate(self.schedule):
            if step.dim != self.dim:
                raise ValidationError(f"schedule step {k} has wrong dimension")
            if step.unitarity_defect() > UNITARITY_TOL:
                raise ValidationError(f"schedule step {k} is not unitary")

        self.cells = _cell_table(cells, self.dim)
        self._labels = tuple(self.cells)

        self._trajectory = {0: self.psi0}  # requested time -> Psi(t)
        self._masks: dict = {}  # frozenset region -> boolean mask
        self._projections: dict = {}  # (time, region) -> U^dagger E U psi0

    # -- time bookkeeping ---------------------------------------------------

    @property
    def n_steps(self) -> int:
        return len(self.schedule)

    @property
    def times(self) -> range:
        return range(self.n_steps + 1)

    def check_time(self, t: int) -> int:
        t = _as_int(t, "time index")
        if not 0 <= t <= self.n_steps:
            raise TimeRangeError(f"time index {t} outside 0..{self.n_steps}")
        return t

    # -- cells --------------------------------------------------------------

    @property
    def labels(self) -> tuple:
        return self._labels

    def region_mask(self, region: Iterable[str]) -> np.ndarray:
        """Read-only boolean mask of the basis indices in ``region``'s cells."""
        region = frozenset(region)
        mask = self._masks.get(region)
        if mask is not None:
            return mask
        unknown = region.difference(self.cells)
        if unknown:
            raise SchemaError(f"unknown cell label {next(iter(unknown))!r}")
        mask = np.zeros(self.dim, dtype=bool)
        if region:
            mask[np.concatenate([self.cells[label] for label in region])] = True
        mask.setflags(write=False)
        self._masks[region] = mask
        return mask

    def check_sset(self, sset: SSet) -> SSet:
        self.check_time(sset.time)
        self.region_mask(sset.region)  # rejects unknown labels
        return sset


def evolve(structure: QuantumStructure, state: ProjectedVector, to_time: int) -> ProjectedVector:
    """Apply forward schedule steps (or adjoints, going backward) to ``state``."""
    t0 = structure.check_time(state.at_time)
    t1 = structure.check_time(to_time)
    vec = state.amplitudes
    if t1 >= t0:
        for k in range(t0, t1):
            vec = _apply_step(structure.schedule[k], vec)
    else:
        for k in range(t0 - 1, t1 - 1, -1):
            vec = _apply_step(structure.schedule[k], vec, adjoint=True)
    return ProjectedVector(vec, t1)


def state_at(structure: QuantumStructure, time: int) -> ProjectedVector:
    """The full state Psi(t), from the structure's cached trajectory.

    A time not yet cached is reached by evolving the latest cached earlier
    state. The result equals evolving the initial vector bit for bit, and
    only requested times are kept.
    """
    time = structure.check_time(time)
    traj = structure._trajectory
    if time not in traj:
        # list() copies the keys at once, so a concurrent insert is harmless.
        known = max(t for t in list(traj) if t < time)
        vec = evolve(structure, ProjectedVector(traj[known], known), time).amplitudes
        vec.setflags(write=False)
        traj[time] = vec
    return ProjectedVector(traj[time], time)


def heisenberg_project(
    structure: QuantumStructure,
    sset: SSet,
    state: ProjectedVector,
    at_time: int | None = None,
) -> ProjectedVector:
    """Project ``state`` onto the cylinder set's region at its time.

    The state is evolved to ``sset.time``, masked to the region's cells, and
    expressed at ``at_time`` (default: the state's original time). Repeating
    the same projection is an exact no-op.
    """
    structure.check_sset(sset)
    ref = state.at_time if at_time is None else at_time
    moved = evolve(structure, state, sset.time)
    masked = moved.amplitudes * structure.region_mask(sset.region)
    return evolve(structure, ProjectedVector(masked, sset.time), ref)


def project_initial(structure: QuantumStructure, sset: SSet) -> ProjectedVector:
    """The cached Heisenberg projection U^dagger(t) E(region) U(t) psi0.

    Expressed at time 0 and computed once per (time, region) of a structure;
    bit for bit equal to ``heisenberg_project(structure, sset, psi0 at 0)``.
    The amplitudes are read-only.
    """
    key = (sset.time, sset.region)
    out = structure._projections.get(key)
    if out is None:
        out = heisenberg_project(structure, sset, state_at(structure, sset.time), at_time=0)
        out.amplitudes.setflags(write=False)
        structure._projections[key] = out
    return out


def chain_cell_masses(structure: QuantumStructure, sset: SSet) -> dict:
    """Squared norms of every two-set chain starting at ``sset``.

    Returns ``{t2: {label: ||E(label) U(t2, t1) E(region) Psi(t1)||^2}}`` for
    every later time ``t2`` and every cell. One forward sweep applies the
    same steps in the same order as ``chain_project``, so each value equals
    ``chain_project(structure, [sset, SSet(t2, {label})]).norm_sq`` bit for
    bit.
    """
    structure.check_sset(sset)
    t1 = sset.time
    vec = state_at(structure, t1).amplitudes * structure.region_mask(sset.region)
    out = {}
    for t2 in range(t1 + 1, structure.n_steps + 1):
        vec = evolve(structure, ProjectedVector(vec, t2 - 1), t2).amplitudes
        out[t2] = {
            label: ProjectedVector(vec * structure.region_mask((label,)), t2).norm_sq
            for label in structure.labels
        }
    return out


def chain_project(
    structure: QuantumStructure,
    ssets: Sequence[SSet],
    at_time: int | None = None,
) -> ProjectedVector:
    """Time-ordered chained projection of the initial vector.

    Cylinder sets are sorted by time; sets at equal times compose as the
    intersection of their regions. The result is expressed at ``at_time``
    (default: the latest projection time, or 0 for an empty chain).
    """
    merged: list[SSet] = []
    for sset in sorted(ssets, key=lambda s: s.time):
        structure.check_sset(sset)
        if merged and merged[-1].time == sset.time:
            merged[-1] = SSet(sset.time, merged[-1].region & sset.region)
        else:
            merged.append(sset)
    out = ProjectedVector(structure.psi0, 0)
    for sset in merged:
        out = heisenberg_project(structure, sset, out, at_time=sset.time)
    if at_time is None:
        at_time = merged[-1].time if merged else 0
    return evolve(structure, out, at_time)


def _cell_masses(structure: QuantumStructure, vec: np.ndarray) -> np.ndarray:
    """Per-cell ||E(cell) vec||^2, in the structure's label order."""
    weights = np.abs(vec) ** 2
    return np.array([np.sum(weights[idx]) for idx in structure.cells.values()])


def occupations(structure: QuantumStructure, time: int) -> dict:
    """Per-cell probability mass ||E(cell) Psi(t)||^2 at one time index."""
    masses = _cell_masses(structure, state_at(structure, time).amplitudes)
    return dict(zip(structure.labels, masses.tolist()))


# -- scenario JSON ----------------------------------------------------------
#
# Schema (see schemas/scenario.schema.json): complex numbers are [re, im]
# pairs, matrices are row-major nested lists, cells map labels to basis index
# lists. An optional "stochastic" section is consumed by the stochastic
# module.


def _complex_in(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise SchemaError("complex entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _complex_out(arr: np.ndarray):
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def structure_from_dict(data: Mapping) -> QuantumStructure:
    try:
        dim = data["dim"]
        psi0 = _complex_in(data["psi0"])
        schedule = [_complex_in(m) for m in data["schedule"]]
        cells = {str(k): list(v) for k, v in data["cells"].items()}
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed scenario: {exc}") from exc
    if not _is_index(dim):
        raise SchemaError(f"dim {dim!r} is not an integer")
    for label, idx in cells.items():
        if not all(map(_is_index, idx)):
            raise SchemaError(f"cell {label!r} has a non-integer index")
    for k, m in enumerate(schedule):
        if m.shape != (dim, dim):
            raise SchemaError(f"schedule matrix {k} is not {dim}x{dim}")
    return QuantumStructure(dim, psi0, schedule, cells)


def structure_to_dict(structure: QuantumStructure) -> dict:
    if any(step.num_factors != 1 for step in structure.schedule):
        raise SchemaError("factored steps cannot be serialized as dense matrices")
    return {
        "dim": structure.dim,
        "psi0": _complex_out(structure.psi0),
        "schedule": [_complex_out(step.matrix) for step in structure.schedule],
        "cells": {label: idx.tolist() for label, idx in structure.cells.items()},
    }


def load_scenario(path) -> tuple[QuantumStructure, dict]:
    """Read a scenario file; returns the structure and the raw parsed dict."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SchemaError("scenario file must contain a JSON object")
    return structure_from_dict(data), data
