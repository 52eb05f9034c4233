"""Finite-dimensional quantum structures and Heisenberg-projected vectors.

A quantum structure bundles a Hilbert space of dimension ``dim``, a unit
initial vector, a schedule of per-step unitaries (step ``k`` evolves time
index ``k`` to ``k + 1``), and a labeled partition of the basis index set
that plays the role of a projection-valued measure on configuration space.
The cell half (the checked cell table, labels, time range and region masks)
is the base ``CellProcess``, which the Markov twin in ``stochastic`` shares.

All inputs are copied and frozen at construction. Each process keeps
private caches, filled lazily and dropped with it: the base caches one
boolean mask per region and, for the per-cell reduction ``_cell_masses``,
the cell table grouped by cell size (label columns and a ``(cells, size)``
index block per size); a structure adds the trajectory ``Psi(t)`` and the
Heisenberg-projected initial vectors served by ``project_initial``, the twin
its two-time laws. Cached arrays are read-only, so no caller can change them.
Every cache entry is a pure function of its key, so two threads filling one
entry store equal values and a process stays safe to share between threads.
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
# Complex entries per block of pair differences, which bounds a table's working
# memory: 64 KB stays below the C allocator's fresh-page size (blocks of 2**16
# entries raised the audit benchmark's peak RSS by about 0.5 MB).
PAIR_BLOCK_ENTRIES = 2**12


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


class CellProcess:
    """A labeled partition of ``range(dim)`` observed at time indices
    ``0..n_steps``: the cell space that a quantum structure and its Markov
    twin share. The region masks are cached here, one per region. Both
    processes have ``occupations(t)``, the cell masses in label order, and
    ``pair_table(rows, cols)``, a ``typicality.PairMasses`` of s-set pairs."""

    def __init__(self, dim: int, cells: Mapping[str, Iterable[int]], n_steps: int):
        self.dim = dim
        self.cells = _cell_table(cells, dim)
        self._labels = tuple(self.cells)
        self.n_steps = n_steps
        self._masks: dict = {}  # frozenset region -> boolean mask
        self._blocks = None  # ((label columns, index block) per cell size), on first use

    # -- time bookkeeping ---------------------------------------------------

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
            raise SchemaError(f"unknown cell label {min(unknown)!r}")
        mask = np.zeros(self.dim, dtype=bool)
        if region:
            mask[np.concatenate([self.cells[label] for label in region])] = True
        mask.setflags(write=False)
        self._masks[region] = mask
        return mask

    def _size_blocks(self) -> tuple:
        """The cell table grouped by cell size: one ``(columns, block)`` pair
        per size, ``columns`` the label positions of that size's cells and
        ``block`` their ``(cells, size)`` array of sorted basis indices."""
        blocks = self._blocks
        if blocks is None:
            cells = list(self.cells.values())
            by_size: dict = {}  # a plain dict: np.unique would import numpy.ma
            for col, idx in enumerate(cells):
                by_size.setdefault(len(idx), []).append(col)
            blocks = tuple(
                (_frozen(cols, "cell columns", np.intp),
                 _frozen([cells[c] for c in cols], "cell block", np.intp))
                for cols in by_size.values()
            )
            self._blocks = blocks
        return blocks

    def check_sset(self, sset: SSet) -> SSet:
        self.check_time(sset.time)
        self.region_mask(sset.region)  # rejects unknown labels
        return sset


class QuantumStructure(CellProcess):
    """Hilbert dimension, initial state, step unitaries, and labeled cells."""

    def __init__(
        self,
        dim: int,
        psi0: np.ndarray,
        schedule: Sequence,
        cells: Mapping[str, Iterable[int]],
    ):
        dim = _as_int(dim, "dimension")
        self.psi0 = _frozen(psi0, "psi0").reshape(-1)
        if self.psi0.shape[0] != dim:
            raise ValidationError("psi0 length does not match dim")
        if not np.all(np.isfinite(self.psi0)):
            raise ValidationError("psi0 has non-finite entries")
        if abs(np.vdot(self.psi0, self.psi0).real - 1.0) > NORM_TOL:
            raise ValidationError("psi0 is not unit norm")

        self.schedule = tuple(
            s if isinstance(s, FactorUnitary) else FactorUnitary(s, 0, 1) for s in schedule
        )
        for k, step in enumerate(self.schedule):
            if step.dim != dim:
                raise ValidationError(f"schedule step {k} has wrong dimension")
            if step.unitarity_defect() > UNITARITY_TOL:
                raise ValidationError(f"schedule step {k} is not unitary")

        super().__init__(dim, cells, len(self.schedule))
        self._trajectory = {0: self.psi0}  # requested time -> Psi(t)
        self._projections: dict = {}  # (time, region) -> U^dagger E U psi0

    def occupations(self, time: int) -> np.ndarray:
        """Per-cell probability mass ||E(cell) Psi(t)||^2, in label order."""
        return _cell_masses(self, state_at(self, time).amplitudes)

    def pair_table(self, rows: Sequence[SSet], cols: Sequence[SSet]):
        """``||v_i - w_j||^2`` and the squared norms of the ``project_initial``
        vectors ``v_i`` of ``rows`` and ``w_j`` of ``cols``, formed a block of
        rows at a time (at most ``PAIR_BLOCK_ENTRIES`` complex entries, or one
        row). Each entry is one sum over one difference, so it equals its
        one-pair table bit for bit, and a list's table against itself is
        exactly symmetric."""
        from .typicality import PairMasses  # typicality imports this module

        row_vecs = [project_initial(self, sset) for sset in rows]
        col_vecs = [project_initial(self, sset) for sset in cols]
        v, w = (
            np.array([x.amplitudes for x in vecs], dtype=complex).reshape(len(vecs), self.dim)
            for vecs in (row_vecs, col_vecs)
        )
        diff_sq = np.empty((len(v), len(w)))
        step = max(1, PAIR_BLOCK_ENTRIES // max(1, w.size))
        for start in range(0, len(v), step):
            diff = (v[start:start + step, None, :] - w[None, :, :]).view(float)
            np.square(diff, out=diff)
            diff.sum(axis=-1, out=diff_sq[start:start + step])
        diff_sq.setflags(write=False)
        return PairMasses(
            diff_sq,
            _frozen([x.norm_sq for x in row_vecs], "row_norm_sq", float),
            _frozen([x.norm_sq for x in col_vecs], "col_norm_sq", float),
        )


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


def _cell_masses(process: CellProcess, vecs: np.ndarray) -> np.ndarray:
    """Per-cell ``||E(cell) v||^2`` of every vector ``v`` in a ``(..., dim)``
    stack, as a ``(..., cells)`` array in the process's label order.

    One gather and one reduction per distinct cell size, over the whole
    stack. Each entry equals ``np.sum((np.abs(v) ** 2)[idx])`` bit for bit:
    ``np.take`` along the last axis keeps each cell's weights contiguous,
    so ``np.add.reduce`` sums them in ``np.sum``'s pairwise order.
    """
    weights = np.abs(vecs) ** 2
    out = np.empty(weights.shape[:-1] + (len(process.labels),))
    for cols, block in process._size_blocks():
        out[..., cols] = np.add.reduce(np.take(weights, block, axis=-1), axis=-1)
    return out


def branch_sweep(structure: QuantumStructure, time: int):
    """Cell masses of every branch ``E(i) Psi(t)`` carried forward from ``t``.

    Yields, for each later time ``t2``, one read-only ``cells x cells``
    array ``m[i, j] = ||E(j) U(t2, t) E(i) Psi(t)||^2`` in label order.
    Each branch takes the steps of ``chain_project`` one at a time, and the
    stacked branches are reduced by one ``_cell_masses`` call, so row ``i``
    equals ``_cell_masses`` of ``chain_project(structure, [SSet(t,
    {label_i})], at_time=t2)`` bit for bit.
    """
    time = structure.check_time(time)
    psi = state_at(structure, time).amplitudes
    branches = [psi * structure.region_mask((label,)) for label in structure.labels]
    for t2 in range(time + 1, structure.n_steps + 1):
        branches = [evolve(structure, ProjectedVector(b, t2 - 1), t2).amplitudes for b in branches]
        masses = _cell_masses(structure, np.array(branches))
        masses.setflags(write=False)
        yield masses


def occupations(process: CellProcess, time: int) -> dict:
    """Each cell's mass at one time index, by label, for either process: the
    labelled form of the array ``process.occupations(time)``, for reports and
    for callers that look cells up by label, such as a graph node."""
    return dict(zip(process.labels, process.occupations(time).tolist()))


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
    with np.errstate(invalid="ignore"):  # 1j * inf is nan + inf j, which the checks reject
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
