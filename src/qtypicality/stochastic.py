"""Finite Markov processes and the quantum/stochastic correspondence audit.

The twin of a quantum structure is a finite-state Markov chain sharing its
cell labels and step count. Both are ``core.CellProcess``es: the twin's
cells are one index per state, its region masks are cached on that base,
and its pair table is read from its two-time laws. Its cylinder-set measure
is exactly additive, which is precisely the property the chained quantum
squared norm lacks; the audit quantifies both sides.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import core, typicality
from .core import QuantumStructure, SSet
from .errors import SchemaError, ValidationError

ROW_SUM_TOL = 1e-12
MARGINAL_TOL = 1e-10
REGIME_THRESHOLD = typicality.DEFAULT_THRESHOLD
NONADDITIVITY_WITNESS = 0.1


class StochasticProcessSpec(core.CellProcess):
    """States, initial distribution, and one row-stochastic kernel per step.

    The arrays are read-only after validation. The states are the cell
    labels, state ``i`` the cell ``[i]``.
    """

    def __init__(
        self,
        states: Sequence[str],
        initial: Sequence[float],
        kernels: Sequence,
    ):
        # A dict would merge duplicate labels, so they are rejected first.
        states = [str(s) for s in states]
        n = len(states)
        if len(set(states)) != n:
            raise ValidationError("duplicate state labels")
        self.initial = core._frozen(initial, "initial distribution", float)
        if self.initial.shape != (n,):
            raise ValidationError("initial distribution has wrong length")
        if not np.all(np.isfinite(self.initial)):
            raise ValidationError("initial distribution has non-finite entries")
        if np.any(self.initial < 0.0) or abs(self.initial.sum() - 1.0) > ROW_SUM_TOL:
            raise ValidationError("initial distribution is not a probability vector")
        self.kernels = tuple(core._frozen(k, f"kernel {t}", float) for t, k in enumerate(kernels))
        for t, kernel in enumerate(self.kernels):
            if kernel.shape != (n, n):
                raise ValidationError(f"kernel {t} is not {n}x{n}")
            if not np.all(np.isfinite(kernel)):
                raise ValidationError(f"kernel {t} has non-finite entries")
            if np.any(kernel < 0.0) or np.any(np.abs(kernel.sum(axis=1) - 1.0) > ROW_SUM_TOL):
                raise ValidationError(f"kernel {t} is not row-stochastic")
        super().__init__(n, {s: [i] for i, s in enumerate(states)}, len(self.kernels))
        self._laws: dict = {}  # s -> read-only stack of law(s, t), t = s..T

    @property
    def states(self) -> tuple:
        return self.labels

    def marginal(self, time: int) -> np.ndarray:
        time = self.check_time(time)
        dist = self.initial.copy()
        for t in range(time):
            dist = dist @ self.kernels[t]
        return dist

    occupations = marginal  # the single-time law, in label order

    def law(self, s: int, t: int) -> np.ndarray:
        """Read-only ``P(X_s = i, X_t = j)``. The laws from one time ``s`` on
        are built together on first use, by stepping ``diag(marginal(s))``
        through the kernels, and kept; ``law(t, s)`` is ``law(s, t).T``."""
        s, t = self.check_time(s), self.check_time(t)
        if s > t:
            return self.law(t, s).T
        if s not in self._laws:
            first = np.diag(self.marginal(s))  # P(X_s = i, X_s = j)
            laws = itertools.accumulate(self.kernels[s:], np.matmul, initial=first)
            self._laws[s] = core._frozen(list(laws), "laws", float)
        return self._laws[s][t - s]

    def pair_table(self, rows: Sequence[SSet], cols: Sequence[SSet]) -> typicality.PairMasses:
        """Region masses, and for a row ``(s, A)`` and column ``(t, B)`` the
        mass ``P(X_s in A, X_t not in B) + P(X_s not in A, X_t in B)``, checked
        by ``typicality.mu_pair_masses``. Each term is summed over one time's
        cells and then the other's, each sum one reduce over its own products,
        a block of rows at a time (at most ``core.PAIR_BLOCK_ENTRIES`` products,
        or one row). So a one-pair table holds the same bits, and a list's
        table against itself is exactly symmetric."""

        def side(ssets):  # the times, the cells as 0/1 rows, and the region masses
            times = [self.check_sset(x).time for x in ssets]
            cells = np.array([self.region_mask(x.region) for x in ssets], dtype=float)
            cells = cells.reshape(-1, self.dim)
            marginal = {t: self.marginal(t) for t in set(times)}
            marginals = np.reshape([marginal[t] for t in times], cells.shape)
            return times, cells, np.add.reduce(cells * marginals, axis=-1)

        def inside_outside(s, a, t, b):  # P(X_s in A, X_t not in B), rows by columns
            row_times, col_times = sorted(set(s)), sorted(set(t))
            # laws[p, k, j, i] = P(X_u = j, X_v = i), v the p-th row time, u the k-th column time
            laws = np.array([[self.law(u, v) for u in col_times] for v in row_times])
            laws = laws.reshape(len(row_times), len(col_times), self.dim, self.dim)
            p, k = np.searchsorted(row_times, s), np.searchsorted(col_times, t)
            out = np.empty((len(s), len(t)))
            per_row = max(len(col_times) * self.dim**2, len(t) * self.dim, 1)
            step = max(1, core.PAIR_BLOCK_ENTRIES // per_row)
            for start in range(0, len(s), step):
                block = slice(start, start + step)
                into = np.add.reduce(laws[p[block]] * a[block, None, None, :], axis=-1)
                out[block] = np.add.reduce(into[:, k] * (1.0 - b), axis=-1)
            return out

        # A list against itself is one side, and one term the other's transpose.
        s, a, mu_rows = side(rows)
        t, b, mu_cols = (s, a, mu_rows) if cols is rows else side(cols)
        inside = inside_outside(s, a, t, b)
        xor = inside + (inside if cols is rows else inside_outside(t, b, s, a)).T
        return typicality.mu_pair_masses(mu_rows, mu_cols, xor)


def cylinder_measure(spec: StochasticProcessSpec, ssets: Sequence[SSet]) -> float:
    """Exact measure of the intersection of s-sets by masked propagation.

    The distribution is masked at each constrained time (s-sets at one time
    intersect) and then propagated one kernel step.
    """
    by_time: dict[int, np.ndarray] = {}
    for sset in ssets:
        spec.check_sset(sset)
        mask = spec.region_mask(sset.region)
        by_time[sset.time] = mask & by_time.get(sset.time, mask)
    if not by_time:
        return 1.0
    last = max(by_time)
    dist = spec.initial
    for t in range(last + 1):
        if t in by_time:
            dist = dist * by_time[t]
        if t < last:
            dist = dist @ spec.kernels[t]
    return float(dist.sum())


def mu_sset(spec: StochasticProcessSpec, sset: SSet) -> float:
    """Measure mu(S) of one s-set: the row mass of a one-row twin table."""
    return float(spec.pair_table([sset], []).row_norm_sq[0])


def mu_symmetric_difference(spec: StochasticProcessSpec, s1: SSet, s2: SSet) -> float:
    """Measure of S1 xor S2: the entry of a one-pair twin table."""
    return float(spec.pair_table([s1], [s2]).diff_sq[0, 0])


def mu_typicality(
    spec: StochasticProcessSpec,
    s1: SSet,
    s2: SSet,
    threshold: float = REGIME_THRESHOLD,
) -> typicality.TypicalityReport:
    """Probabilistic mutual typicality of two s-sets: a one-pair twin table."""
    return spec.pair_table([s1], [s2]).report(0, 0, threshold)


def matched_markov_chain(structure: QuantumStructure) -> StochasticProcessSpec:
    """Markov twin whose single-time marginals equal the cell occupations.

    Each step first tries the per-branch occupation transfer: the first
    ``core.branch_sweep`` array from ``t``, each row divided by its branch's
    mass (a branch below 1e-14 takes the next marginal). Where interference
    makes that transfer miss the true next-time marginal, the step falls
    back to rows equal to the next marginal, which matches it by construction.
    """
    n = len(structure.labels)
    states = [core.state_at(structure, t).amplitudes for t in structure.times]
    occs = core._cell_masses(structure, np.array(states))
    kernels = []
    for t in range(structure.n_steps):
        branches = (states[t] * structure.region_mask((label,)) for label in structure.labels)
        mass = np.array([np.vdot(b, b).real for b in branches])[:, None]
        kernel = np.tile(occs[t + 1], (n, 1))
        np.divide(next(core.branch_sweep(structure, t)), mass, out=kernel, where=mass >= 1e-14)
        if np.abs(occs[t] @ kernel - occs[t + 1]).max() > MARGINAL_TOL:
            kernel = np.tile(occs[t + 1], (n, 1))
        kernels.append(kernel)
    return StochasticProcessSpec(structure.labels, occs[0], kernels)


@dataclass(frozen=True)
class CorrespondenceAudit:
    """Witness values for the single-time, regime, and additivity checks.

    c5 counts the pairs that both sides judge ``MutuallyTypical``, which is
    what being inside the regime means; ``c5_agreements`` equals
    ``c5_pairs_in_regime`` and ``c5_pass`` holds for every input. The count
    reads the verdict masks of the two processes' ``pair_table``s.

    c7's defect at ``t1 < t2`` and cell ``j`` is ``|occ[t2, j] - sum_i
    m[i, j]|`` over the ``core.branch_sweep`` array ``m`` from ``t1`` at
    ``t2``. A witness (past ``NONADDITIVITY_WITNESS``) holds both masses of
    one defect within a relative 1e-12 of the largest: the earliest
    ``(t1, t2)``, then the cell whose label sorts first, so that defects
    tied in exact arithmetic name the same witness in any label order.
    """

    c3_max_error: float
    c3_pass: bool
    c5_pairs_in_regime: int
    c5_agreements: int
    c5_pass: bool
    c7_mu_additive: bool
    c7_max_defect: float
    c7_witness: dict | None

    @property
    def passed(self) -> bool:
        return self.c3_pass and self.c5_pass and self.c7_mu_additive

    def to_dict(self) -> dict:
        return {
            "c3": {"max_error": self.c3_max_error, "pass": self.c3_pass},
            "c5": {
                "pairs_in_regime": self.c5_pairs_in_regime,
                "agreements": self.c5_agreements,
                "pass": self.c5_pass,
            },
            "c7": {
                "mu_additive": self.c7_mu_additive,
                "max_quantum_defect": self.c7_max_defect,
                "witness": self.c7_witness,
            },
            "passed": self.passed,
        }


def correspondence_audit(q: QuantumStructure, c: StochasticProcessSpec) -> CorrespondenceAudit:
    """Compare a structure with its stochastic twin at every time ``0..T``.

    Checks single-time marginal agreement, verdict agreement for pairs
    where both measures sit inside the typicality regime, additivity of the
    cylinder measure, and searches for a chained-norm nonadditivity witness
    on the quantum side. A marginal mismatch is reported, not raised; a twin
    with another step count or other labels is rejected.

    c5 judges its ``(T+1)(cells+1)`` s-sets as one ``pair_table`` of each
    process. A twin value that fails the measure checks raises for the first
    failing pair in row-major order, which for this symmetric table is the
    first in ``itertools.combinations`` order.

    c3 and c7 read one occupations table ``occ[t, j]``; c3 compares it with
    the twin's marginals, and c7 with the column sums of one
    ``core.branch_sweep`` per earlier time and the twin's two-time laws.
    """
    if set(q.labels) != set(c.states):
        raise ValidationError("structure and chain use different cell labels")
    if q.n_steps != c.n_steps:
        raise ValidationError(f"structure has {q.n_steps} steps but its twin has {c.n_steps}")

    # (c3): occupations against single-time marginals, label by label.
    occ = np.array([q.occupations(t) for t in q.times])
    twin_index = [c.labels.index(label) for label in q.labels]
    c3_max = float(np.abs(occ - np.array([c.occupations(t)[twin_index] for t in q.times])).max())

    # (c5)/(c6): pairs that both sides judge mutually typical (inside the
    # regime), over all singleton and full regions at every time, time-major.
    regions = [frozenset({label}) for label in q.labels] + [frozenset(q.labels)]
    ssets = [SSet(t, r) for t in q.times for r in regions]
    typical_q = q.pair_table(ssets, ssets).typical(REGIME_THRESHOLD)
    typical_mu = c.pair_table(ssets, ssets).typical(REGIME_THRESHOLD)
    in_regime = int(np.count_nonzero(np.triu(typical_q & typical_mu, 1)))

    # (c7): additivity of mu, nonadditivity witness for the chained norm.
    mu_additive, chained_sums = True, {}  # (t1, t2) -> sum_i m[i, j], in time order
    for t1 in q.times[:-1]:
        for t2, chained in enumerate(core.branch_sweep(q, t1), start=t1 + 1):
            # Summing P(X_t1 = i, X_t2 = j) over i gives back P(X_t2 = j).
            if np.any(np.abs(c.law(t1, t2).sum(axis=0) - c.law(t2, t2).diagonal()) > 1e-12):
                mu_additive = False
            chained_sums[t1, t2] = chained.sum(axis=0)
    defects = {(t1, t2): np.abs(occ[t2] - sums) for (t1, t2), sums in chained_sums.items()}
    max_defect = max((float(d.max()) for d in defects.values()), default=0.0)
    witness = None
    if max_defect > NONADDITIVITY_WITNESS:
        # Defects tied in exact arithmetic differ in their last bits, so any
        # within a relative 1e-12 of the largest may witness; the earliest
        # (t1, t2) does, at the cell whose label sorts first.
        near = max_defect * (1.0 - 1e-12)
        (t1, t2), d = next((key, d) for key, d in defects.items() if d.max() >= near)
        label, j = min((q.labels[j], j) for j in np.flatnonzero(d >= near))
        witness = {
            "t1": t1,
            "t2": t2,
            "region2": [label],
            "quantum_total": float(occ[t2, j]),
            "quantum_termwise_sum": float(chained_sums[t1, t2][j]),
        }
    return CorrespondenceAudit(
        c3_max_error=c3_max,
        c3_pass=c3_max <= MARGINAL_TOL,
        c5_pairs_in_regime=in_regime,
        c5_agreements=in_regime,
        c5_pass=True,
        c7_mu_additive=mu_additive,
        c7_max_defect=max_defect,
        c7_witness=witness,
    )


# -- scenario JSON (the "stochastic" section) -------------------------------


def process_from_dict(data: Mapping) -> StochasticProcessSpec:
    try:
        states = data["states"]
        if not (isinstance(states, list) and all(isinstance(s, str) for s in states)):
            raise TypeError("states must be an array of strings")
        # ValueError: ragged arrays; OverflowError: an integer beyond float range
        initial = np.asarray(data["initial"], dtype=float)
        kernels = [np.asarray(k, dtype=float) for k in data["kernels"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed stochastic section: {exc}") from exc
    return StochasticProcessSpec(states, initial, kernels)


def process_to_dict(spec: StochasticProcessSpec) -> dict:
    return {
        "states": list(spec.states),
        "initial": spec.initial.tolist(),
        "kernels": [k.tolist() for k in spec.kernels],
    }
