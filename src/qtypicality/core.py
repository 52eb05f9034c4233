"""Finite-dimensional quantum structures and Heisenberg-projected vectors.

A quantum structure bundles a Hilbert space of dimension ``dim``, a unit
initial vector, a schedule of per-step unitaries (step ``k`` evolves time
index ``k`` to ``k + 1``), and a labeled partition of the basis index set
that plays the role of a projection-valued measure on configuration space.
The cell half (the checked cell table, labels, time range, region masks and
two-time laws) is the base ``CellProcess``, which the Markov twin shares.

The cell table, ``CellTable``, is compressed sparse rows: the labels, one
index array sorted within each cell, and each cell's offsets in it. It is a
read-only mapping of label to index array, a view made on access. It builds
its label -> position dict on the first lookup by label, and its cells
grouped by size (for the per-cell reduction ``_cell_masses``) on first use.
A table of one index per label (the measurement chain's, the Markov twin's)
holds no per-cell object.

All inputs are copied and frozen at construction. Each process keeps
private caches, filled lazily and dropped with it: the base one boolean mask
per region and the two-time laws ``law(s, t)``, a structure also the
trajectory ``Psi(t)`` and the projections served by ``project_initials``.
Cached arrays are read-only, and every entry is a pure function of its key,
so two threads filling one entry store equal values and a process is safe
to share between threads.

A schedule step applies to one vector or to a ``(..., dim)`` stack, one step
call per stack: the projections that ``project_initials`` caches (one stack
per time) and the branches that a structure's laws from one time carry
forward. Each row of a stack gets the bits it would get alone: a one-factor
step runs one matrix-vector product per row (numpy loops over the rows and
calls the same BLAS routine as for one vector), never the stacked
``V @ m.T``, whose BLAS sums are ordered by the shape of the whole product
(with OpenBLAS 0.3.31, rows of a 4-row stack move in their last bits at
every d >= 2), so that reports match a one-vector computation. A
multi-factor step applies row by row.
"""
from __future__ import annotations

import collections.abc
import gc
import io
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
# The default thresholds: mutual typicality at M <= 0.08 (where m <= 2M), and
# the trajectory graph's exclusion and link thresholds. ``typicality`` and
# ``graph`` publish them under these names; they live here so that the CLI
# reads them without importing either module.
DEFAULT_THRESHOLD = 0.08
DEFAULT_EPSILON_EXCLUDE = 0.01
DEFAULT_TAU_LINK = DEFAULT_THRESHOLD


def _check_threshold(value, name: str = "threshold") -> float:
    """``value`` as a float; ``ValidationError`` unless it lies in (0, 1)."""
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValidationError(f"{name} {value} outside (0, 1)")
    return value


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

    def apply(self, vecs: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """The step (or its adjoint) applied to one vector or to each row of a
        ``(..., dim)`` stack; every row gets the bits it gets alone."""
        m = self.matrix
        if self.num_factors == 1:
            # One matrix-vector product per row; (v* U)* equals U^dagger v
            # without materializing the adjoint.
            if adjoint:
                return np.matmul(vecs.conj()[..., None, :], m)[..., 0, :].conj()
            return np.matmul(m, vecs[..., None])[..., 0]
        if vecs.ndim > 1:
            out = np.empty(vecs.shape, dtype=complex)
            for row, vec in zip(out.reshape(-1, self.dim), vecs.reshape(-1, self.dim)):
                row[...] = self.apply(vec, adjoint)
            return out
        if adjoint:
            m = m.conj().T
        t = vecs.reshape((self.base,) * self.num_factors)
        t = np.moveaxis(np.tensordot(m, t, axes=(1, self.index)), 0, self.index)
        return np.ascontiguousarray(t).reshape(-1)

    def unitarity_defect(self) -> float:
        """``max |U^dagger U - 1|``. An entry of magnitude ``r > 2`` makes its
        column's squared norm at least ``r**2``, so the defect is above ``r``;
        ``r`` is returned then, and ``U^dagger U`` is not formed, where it
        could overflow."""
        m = self.matrix
        with np.errstate(over="ignore"):  # |re + i im| past float range reads inf
            big = float(np.abs(m).max(initial=0.0))
        if big > 2.0:
            return big
        return float(np.abs(m.conj().T @ m - np.eye(self.base)).max())


def _gamma(n: int) -> float:
    return n * 2.0**-53 / (1.0 - n * 2.0**-53)


def _budget(size: int, initial: float, steps: Iterable[tuple]) -> np.ndarray:
    """Read-only ``slack[t] >= |sum occupations(t) - 1|`` on ``size`` indices,
    from the initial-mass defect and each step's order ``b`` and bound on its
    exact relative change of a mass (``b max|U^dagger U - 1| >= ||U^dagger U
    - 1||_2``; a nonnegative kernel's largest row-sum error). In rounding
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Sec.
    3; ``gamma_n = n u / (1 - n u)``, u = 2**-53) a step's length-b sums move
    a squared norm by a relative ``3 b gamma_{b+2}`` more, a measured defect
    is short by ``2 b gamma_{b+3}`` at most, and a mass that a check reads is
    a sum of ``2 size + 4`` rounded nonnegative terms at most, four reads
    covered. So the mass at ``t`` lies within ``prod_{k <= t} (1 +- e_k)``,
    with ``e_0 = initial + 4 gamma_{2 size + 4}`` and ``e_k = defect + 5 b
    gamma_{b+4}``: ``slack[t] = prod(1 + e_k) - 1``, its rounding in margins."""
    terms = [initial + 4 * _gamma(2 * size + 4), *(d + 5 * b * _gamma(b + 4) for b, d in steps)]
    return _frozen(np.expm1(np.cumsum(np.log1p(terms))), "slack", float)


def _frozen(arr, what: str, dtype=complex) -> np.ndarray:
    """A read-only copy, so no caller can change it behind a cache. An
    integer entry beyond float range raises, naming ``what``."""
    try:
        out = np.array(arr, dtype=dtype)
    except OverflowError:
        raise ValidationError(f"{what} has an integer entry beyond float range") from None
    out.setflags(write=False)
    return out


def _apply_step(step: FactorUnitary, vecs: np.ndarray, adjoint: bool = False) -> np.ndarray:
    return step.apply(vecs, adjoint=adjoint)


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


def _as_region(region: Iterable[str]) -> frozenset:
    """``region`` as a frozenset of cell labels. A str or bytes raises: it
    would read as its characters."""
    if isinstance(region, (str, bytes)):
        raise ValidationError(f"region {region!r} is a string, not a set of labels")
    return frozenset(region)


class CellTable(collections.abc.Mapping):
    """A labeled partition of ``range(dim)``: the ``labels``, one read-only
    ``intp`` array ``flat`` of basis indices, sorted within each cell, and
    ``bounds``, cell ``k`` being ``flat[bounds[k]:bounds[k + 1]]``. The
    constructor checks a mapping of label to indices, and an error names the
    first offending cell."""

    def __init__(self, cells: Mapping[str, Iterable[int]], dim: int):
        labels = tuple(map(str, cells))
        if len(set(labels)) < len(labels):
            seen: set = set()
            again = next(label for label in labels if label in seen or seen.add(label))
            raise ValidationError(f"duplicate cell label {again!r}")
        flat, ends = [], []  # every index in cell order, and where each cell ends
        for idx in cells.values():
            flat.extend(idx)
            ends.append(len(flat))
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
            cell = labels[np.searchsorted(ends, bad, side="right")]
            raise ValidationError(f"cell {cell!r} has {kind} index {flat[bad]!r}")
        bounds = np.array([0] + ends, dtype=np.intp)
        owner = np.repeat(np.arange(len(labels)), bounds[1:] - bounds[:-1])
        indices = indices[np.lexsort((indices, owner))]  # sorts each cell, keeps cells in place
        counts = np.bincount(indices, minlength=dim)
        if counts.max() > 1:
            again = np.flatnonzero(indices == np.argmax(counts))[1]
            cell = labels[owner[again]]
            raise ValidationError(f"cell {cell!r} claims index {indices[again]} twice")
        if counts.min() == 0:
            raise ValidationError(f"cells do not cover basis index {np.argmin(counts)}")
        owners = np.empty(dim, dtype=np.intp)
        owners[indices] = owner
        self._fill(labels, indices, bounds, owners)

    @classmethod
    def singletons(cls, labels: Sequence[str]) -> "CellTable":
        """The table whose cell ``i`` is ``[i]``, for distinct ``str`` labels
        (not checked)."""
        table = cls.__new__(cls)
        flat = np.arange(len(labels), dtype=np.intp)
        table._fill(tuple(labels), flat, np.arange(len(labels) + 1, dtype=np.intp), flat)
        table._blocks = ((flat, flat[:, None]),)
        return table

    def _fill(self, labels: tuple, flat, bounds, owners) -> None:
        for arr in (flat, bounds, owners):
            arr.setflags(write=False)
        self.labels, self.flat, self.bounds = labels, flat, bounds
        self._owners = owners  # the position of each basis index's cell
        self._by_label = None  # label -> position in ``labels``, on first lookup
        self._blocks = None  # ((positions, index block) per cell size), on first use

    @property
    def dim(self) -> int:
        return self.flat.size

    def _index(self) -> dict:
        index = self._by_label
        if index is None:
            index = self._by_label = dict(zip(self.labels, range(len(self.labels))))
        return index

    def mask(self, region: frozenset) -> np.ndarray:
        """Boolean mask of the basis indices in ``region``'s cells."""
        index = self._index()
        unknown = region.difference(index)
        if unknown:
            raise SchemaError(f"unknown cell label {min(unknown)!r}")
        chosen = np.zeros(len(index), dtype=bool)
        chosen[np.fromiter(map(index.__getitem__, region), np.intp, len(region))] = True
        return chosen[self._owners]

    def size_blocks(self) -> tuple:
        """The cells grouped by size: one ``(columns, block)`` pair per size,
        ``columns`` the positions of that size's cells and ``block`` their
        ``(cells, size)`` array of indices."""
        blocks = self._blocks
        if blocks is None:
            flat, bounds = self.flat, self.bounds.tolist()
            by_size: dict = {}  # a plain dict: np.unique would import numpy.ma
            for col, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                by_size.setdefault(hi - lo, []).append(col)
            blocks = self._blocks = tuple(
                (_frozen(cols, "cell columns", np.intp),
                 _frozen([flat[bounds[c]:bounds[c + 1]] for c in cols], "cell block", np.intp))
                for cols in by_size.values()
            )
        return blocks

    def __getitem__(self, label) -> np.ndarray:
        k = self._index()[label]
        return self.flat[self.bounds[k]:self.bounds[k + 1]]

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class SSet:
    """Single-time cylinder set: a (time index, set of cell labels) pair."""

    time: int
    region: frozenset

    def __init__(self, time: int, region: Iterable[str]):
        object.__setattr__(self, "region", _as_region(region))
        object.__setattr__(self, "time", _as_int(time, "time index"))


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
    twin share. ``cells`` is a ``CellTable``, given or built from a mapping.
    Region masks and two-time laws are cached here. Both processes have
    ``occupations(t)`` in label order, ``pair_table(rows, cols)`` (a
    ``typicality.PairMasses``) and ``_laws_from(s)``, which yields the laws
    from ``s`` to each ``t = s..T``, from ``diag(occupations(s))`` on."""

    def __init__(self, dim: int, cells: Mapping[str, Iterable[int]] | CellTable, n_steps: int):
        if not isinstance(cells, CellTable):
            cells = CellTable(cells, dim)
        elif cells.dim != dim:
            raise ValidationError(f"cell table spans {cells.dim} indices, not {dim}")
        self.dim = dim
        self.cells = cells
        self.n_steps = n_steps
        self._masks: dict = {}  # frozenset region -> boolean mask
        self._laws: dict = {}  # s -> read-only stack of law(s, t), t = s..T

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
        return self.cells.labels

    def region_mask(self, region: Iterable[str]) -> np.ndarray:
        """Read-only boolean mask of the basis indices in ``region``'s cells."""
        region = frozenset(region)
        mask = self._masks.get(region)
        if mask is not None:
            return mask
        mask = self.cells.mask(region)
        mask.setflags(write=False)
        self._masks[region] = mask
        return mask

    def check_sset(self, sset: SSet) -> SSet:
        self.check_time(sset.time)
        self.region_mask(sset.region)  # rejects unknown labels
        return sset

    def law(self, s: int, t: int) -> np.ndarray:
        """Read-only ``cells x cells`` masses of cell ``i`` at ``s`` and cell
        ``j`` at ``t``. The laws from one ``s`` on are built together on first
        use and kept; ``law(t, s)`` is ``law(s, t).T``."""
        s, t = self.check_time(s), self.check_time(t)
        if s > t:
            return self.law(t, s).T
        if s not in self._laws:
            self._laws[s] = _frozen(list(self._laws_from(s)), "laws", float)
        return self._laws[s][t - s]


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
        if (norm_defect := abs(np.vdot(self.psi0, self.psi0).real - 1.0)) > NORM_TOL:
            raise ValidationError("psi0 is not unit norm")

        self.schedule = tuple(
            s if isinstance(s, FactorUnitary) else FactorUnitary(s, 0, 1) for s in schedule
        )
        defects = []
        for k, step in enumerate(self.schedule):
            if step.dim != dim:
                raise ValidationError(f"schedule step {k} has wrong dimension")
            defects.append((step.base, step.unitarity_defect()))
            if defects[-1][1] > UNITARITY_TOL:
                raise ValidationError(f"schedule step {k} is not unitary")

        super().__init__(dim, cells, len(self.schedule))
        self._slack = _budget(dim, norm_defect, ((b, b * d) for b, d in defects))
        self._trajectory = {0: self.psi0}  # requested time -> Psi(t)
        self._projections: dict = {}  # (time, region) -> U^dagger E U psi0

    def occupations(self, time: int) -> np.ndarray:
        """Per-cell probability mass ||E(cell) Psi(t)||^2, in label order."""
        return _cell_masses(self, state_at(self, time).amplitudes)

    def _laws_from(self, time: int):
        """The chained squared norms ``||E(j) U(t, time) E(i) Psi(time)||^2``, from
        one branch stack: one step call per step, one ``_cell_masses`` per time."""
        yield np.diag(self.occupations(time))
        psi = state_at(self, time).amplitudes
        branches = psi * np.array([self.region_mask((label,)) for label in self.labels])
        for t in range(time, self.n_steps):
            branches = _evolve(self, branches, t, t + 1)
            yield _cell_masses(self, branches)

    def pair_table(self, rows: Sequence[SSet], cols: Sequence[SSet]):
        """``||v_i - w_j||^2`` and the squared norms of the projections ``v_i``
        of ``rows`` and ``w_j`` of ``cols``, from one ``project_initials``
        call over both lists. The differences are formed a block of rows at
        a time (at most ``PAIR_BLOCK_ENTRIES`` complex entries, or one row).
        Each entry is one sum over one difference, so it equals its one-pair
        table bit for bit, and a list's table against itself is exactly
        symmetric."""
        from .typicality import PairMasses  # typicality imports this module

        projected = project_initials(self, [*rows, *cols])
        row_vecs, col_vecs = projected[:len(rows)], projected[len(rows):]
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


def _evolve(structure: QuantumStructure, vecs: np.ndarray, t0: int, t1: int) -> np.ndarray:
    """A vector or ``(..., dim)`` stack at checked time ``t0`` carried to
    ``t1``: forward steps, or adjoints going backward, one call per step."""
    if t1 >= t0:
        for k in range(t0, t1):
            vecs = _apply_step(structure.schedule[k], vecs)
    else:
        for k in range(t0 - 1, t1 - 1, -1):
            vecs = _apply_step(structure.schedule[k], vecs, adjoint=True)
    return vecs


def evolve(structure: QuantumStructure, state: ProjectedVector, to_time: int) -> ProjectedVector:
    """Apply forward schedule steps (or adjoints, going backward) to ``state``."""
    t0 = structure.check_time(state.at_time)
    t1 = structure.check_time(to_time)
    return ProjectedVector(_evolve(structure, state.amplitudes, t0, t1), t1)


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


def project_initials(structure: QuantumStructure, ssets: Sequence[SSet]) -> list:
    """The cached Heisenberg projections U^dagger(t) E(region) U(t) psi0 of
    ``ssets``, in their order; a repeated s-set gives the same object.

    Each is expressed at time 0 and computed once per (time, region) of a
    structure. The s-sets not yet cached are checked in order, then grouped
    by time: one time's ``Psi(t) * masks`` stack is carried back to 0 with
    one step call per step, and each row is cached under its key. A row is
    bit for bit ``heisenberg_project(structure, sset, psi0 at 0)``. The
    amplitudes are read-only.
    """
    cache = structure._projections
    missing: dict = {}  # time -> the regions not yet cached, in first-seen order
    for sset in ssets:
        if (sset.time, sset.region) not in cache:
            structure.check_sset(sset)
            missing.setdefault(sset.time, {})[sset.region] = None
    for time, regions in missing.items():
        masks = np.array([structure.region_mask(region) for region in regions])
        stack = _evolve(structure, state_at(structure, time).amplitudes * masks, time, 0)
        stack.setflags(write=False)
        for region, row in zip(regions, stack):
            cache[time, region] = ProjectedVector(row, 0)
    return [cache[sset.time, sset.region] for sset in ssets]


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
    for cols, block in process.cells.size_blocks():
        out[..., cols] = np.add.reduce(np.take(weights, block, axis=-1), axis=-1)
    return out


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
#
# A file is read as bytes and parsed by orjson, which reads the [re, im]
# pairs about 3.5 times faster than the stdlib reader. The stdlib reader is
# the reference. It reads every document that orjson rejects (NaN and
# Infinity literals, numbers beyond the float range, invalid UTF-8, a BOM, a
# lone surrogate, any syntax error), so these keep their results and
# messages. It also reads every document that a byte scan finds one of these
# in, where orjson would differ:
# - an integer literal of 19 or more digits: orjson turns an integer outside
#   [-2**63, 2**64) into a float, the stdlib reader keeps it an int;
# - brackets nested deeper than _ORJSON_MAX_DEPTH outside strings: orjson
#   3.8 builds its result recursively and overflows the C stack (crashing
#   the process) between 100,000 and 150,000 levels on an 8 MB stack;
# - a backslash, since an escaped '"' would throw off the depth scan's count
#   of strings.
# Past these checks both readers give equal results: the same floats, ints,
# strings and key order.
#
# load_scenario pauses the cyclic garbage collector while it parses and
# builds: a parsed file holds thousands of lists and no reference cycle, so
# a collection there only walks them. The pause is process-wide: another
# thread's collections wait until the load ends. On the way out the collector
# is enabled again if it was enabled when the load began, so a caller that
# disabled it keeps it disabled. That restore assumes no other thread changes
# the setting during a load: a gc.disable() made by another thread meanwhile
# is undone when the load ends.

# The schema nests 5 deep (file, schedule, matrix, row, pair); 64 leaves room
# for any extra data a producer adds and stays far below the depth that
# crashes orjson, even on a thread with a small stack.
_ORJSON_MAX_DEPTH = 64
# A bytes.translate table: digits to "0", "." kept, every other byte to " "
# ("/" lies between "." and "0"). A " " before 19 zeros is then an integer
# literal (or an exponent) of 19 or more digits; the digits of a fraction
# follow a ".". rfind skips on the needle's rare first byte, and scans this
# text about three times faster than find.
_DIGIT_CLASSES = b" " * ord(".") + b". " + b"0" * 10 + b" " * (256 - ord(":"))
_LONG_INTEGER = b" " + b"0" * 19
_NOT_BRACKET_OR_QUOTE = bytes(range(256)).translate(None, b'[]{}"')
_DEPTH_STEPS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")  # +1, +1, -1, -1 as int8


def _orjson_readable(raw: bytes) -> bool:
    """Whether orjson parses ``raw`` as the stdlib reader does, or rejects it
    (see the notes above)."""
    if b"\\" in raw or raw.translate(_DIGIT_CLASSES).rfind(_LONG_INTEGER) >= 0:
        return False
    marks = raw.translate(None, _NOT_BRACKET_OR_QUOTE)
    outside = b"".join(marks.split(b'"')[::2])  # even pieces lie outside strings
    steps = np.frombuffer(outside.translate(_DEPTH_STEPS), np.int8)
    return int(np.cumsum(steps, dtype=np.int64).max(initial=0)) <= _ORJSON_MAX_DEPTH


def _read_json(raw: bytes):
    """The JSON document in the UTF-8 bytes ``raw``, as the stdlib reader
    returns it from a file opened in text mode."""
    if _orjson_readable(raw):
        import orjson

        try:
            return orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass  # the stdlib reader gives the outcome, its message included
    # Decoded with newlines translated, as a file opened in text mode is, so
    # that error messages and positions are the text-mode reader's.
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise SchemaError("scenario file is nested too deeply to read") from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise SchemaError(f"malformed scenario: {exc}") from None


def _numbers_in(data, what: str) -> np.ndarray:
    """``data`` as a float array. A string or null entry, or booleans alone
    (``load_scenario`` rejects them among numbers), raise ``SchemaError``;
    only object arrays (null, an integer past int64) are checked per entry."""
    arr = np.asarray(data)
    if arr.dtype.kind == "O" and all(type(x) in (int, float) for x in arr.flat):
        arr = arr.astype(float)
    if arr.dtype.kind not in "iuf":
        raise SchemaError(f"{what} has non-numeric entries")
    return arr.astype(float, order="C", copy=False)


def _complex_in(data, what: str) -> np.ndarray:
    arr = _numbers_in(data, what)
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise SchemaError("complex entries must be [re, im] pairs")
    return arr.view(complex)[..., 0]  # each [re, im] pair read in place as one complex


def _complex_out(arr: np.ndarray):
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def structure_from_dict(data: Mapping) -> QuantumStructure:
    try:
        dim = data["dim"]
        psi0 = _complex_in(data["psi0"], "psi0")
        schedule = [
            _complex_in(m, f"schedule matrix {k}") for k, m in enumerate(data["schedule"])
        ]
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


def _reject_booleans(data: dict) -> None:
    """Raise ``SchemaError`` at a boolean among numbers, which numpy reads as 0 or 1."""
    twin = data["stochastic"] if isinstance(data.get("stochastic"), dict) else {}
    for name, stack in (("psi0", [data.get("psi0")]), ("schedule", [data.get("schedule")]),
                        ("stochastic.initial", [twin.get("initial")]),
                        ("stochastic.kernels", [twin.get("kernels")])):
        while stack:
            x = stack.pop()
            if isinstance(x, bool):
                raise SchemaError(f"malformed scenario: {name} has non-numeric entries (a boolean)")
            if isinstance(x, list):
                stack.extend(x)


def load_scenario(path) -> tuple[QuantumStructure, dict]:
    """Read a scenario file; returns the structure and the raw parsed dict.

    The cyclic garbage collector is paused while the file is read and the
    structure built (see the notes above); a caller that drops the dict at
    once frees its lists by reference counting, so no collection walks them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "rb") as fh:
            data = _read_json(raw := fh.read())
        if not isinstance(data, dict):
            raise SchemaError("scenario file must contain a JSON object")
        # Numbers hold no "t" or "f": each search starts at the first one (by memchr).
        if raw.find(b"true", raw.find(b"t")) >= 0 or raw.find(b"false", raw.find(b"f")) >= 0:
            _reject_booleans(data)
        return structure_from_dict(data), data
    finally:
        if enabled:
            gc.enable()
