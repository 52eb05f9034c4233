"""Finite Markov processes and the quantum/stochastic correspondence audit.

The twin of a quantum structure is a finite-state Markov chain sharing its
cell labels and step count. Both are ``core.CellProcess``es: the twin's
cells are one index per state, its region masks and two-time laws are
cached on that base, and its pair table is read from those laws. Its
cylinder-set measure is exactly additive, which is precisely the property
the chained quantum squared norm lacks; the audit quantifies both sides.
"""
from __future__ import annotations

import collections.abc
import functools
import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import core, typicality
from .core import SSet
from .errors import SchemaError, ValidationError

ROW_SUM_TOL = 1e-12
MARGINAL_TOL = 1e-10
REGIME_THRESHOLD = typicality.DEFAULT_THRESHOLD
NONADDITIVITY_WITNESS = 0.1


class StochasticProcessSpec(core.CellProcess):
    """States, initial distribution, and one row-stochastic kernel per step.

    The arrays are read-only after validation. The states, a sequence of
    distinct strings, are the cell labels, state ``i`` the cell ``[i]``.
    """

    def __init__(
        self,
        states: Sequence[str],
        initial: Sequence[float],
        kernels: Sequence,
    ):
        self._build(states, initial, kernels)

    def _build(self, states, initial, kernels, slack=()) -> "StochasticProcessSpec":
        """The constructor; sums reaching time t are held to max(ROW_SUM_TOL, ``slack[t]``)."""
        tols = itertools.chain(np.maximum(slack, ROW_SUM_TOL), itertools.repeat(ROW_SUM_TOL))
        # The states are the labels of a one-index-per-label cell table, which
        # does not check them: they must be distinct strings.
        if (isinstance(states, str) or not isinstance(states, collections.abc.Sequence)
                or not all(isinstance(s, str) for s in states)):
            raise ValidationError("states must be a sequence of strings")
        states = tuple(states)
        n = len(states)
        if len(set(states)) != n:
            raise ValidationError("duplicate state labels")
        self.initial = core._frozen(initial, "initial distribution", float)
        if self.initial.shape != (n,):
            raise ValidationError("initial distribution has wrong length")
        if not np.all(np.isfinite(self.initial)):
            raise ValidationError("initial distribution has non-finite entries")
        if np.any(self.initial < 0.0) or (off := abs(self.initial.sum() - 1.0)) > next(tols):
            raise ValidationError("initial distribution is not a probability vector")
        self.kernels = tuple(core._frozen(k, f"kernel {t}", float) for t, k in enumerate(kernels))
        defects = []
        for t, (kernel, tol) in enumerate(zip(self.kernels, tols)):
            if kernel.shape != (n, n):
                raise ValidationError(f"kernel {t} is not {n}x{n}")
            if not np.all(np.isfinite(kernel)):
                raise ValidationError(f"kernel {t} has non-finite entries")
            defects.append((n, float(np.abs(kernel.sum(axis=1) - 1.0).max(initial=0.0))))
            if np.any(kernel < 0.0) or defects[-1][1] > tol:
                raise ValidationError(f"kernel {t} is not row-stochastic")
        super().__init__(n, core.CellTable.singletons(states), len(self.kernels))
        self._slack = core._budget(n, off, defects)
        return self

    states = core.CellProcess.labels

    def marginal(self, time: int) -> np.ndarray:
        steps = self.kernels[:self.check_time(time)]
        return functools.reduce(np.matmul, steps, self.initial.copy())

    occupations = marginal  # the single-time law, in label order

    def _laws_from(self, s: int):
        """``P(X_s = i, X_t = j)``, ``diag(marginal(s))`` times the kernels."""
        return itertools.accumulate(self.kernels[s:], np.matmul, initial=np.diag(self.marginal(s)))

    def pair_table(self, rows: Sequence[SSet], cols: Sequence[SSet]) -> typicality.PairMasses:
        """Region masses, and for a row ``(s, A)`` and column ``(t, B)`` the
        mass ``P(X_s in A, X_t not in B) + P(X_s not in A, X_t in B)``, checked
        as measures to the slack at the last time. Each term is summed over one
        time's cells and then the other's, each sum one reduce over its own
        products, a block of rows at a time (at most ``core.PAIR_BLOCK_ENTRIES``
        products, or one row). So a one-pair table holds the same bits, and a
        list's table against itself is exactly symmetric."""

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
        return typicality._checked_measures(mu_rows, mu_cols, xor, self._slack[-1])


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


def matched_markov_chain(process: core.CellProcess) -> StochasticProcessSpec:
    """Markov twin of either process, read from its two-time laws alone: its
    marginals are the diagonals of ``law(t, t)``. Each step first tries the
    per-branch transfer, row ``i`` of ``law(t, t + 1)`` over ``law(t, t)[i, i]``
    (a branch below ``DEGENERATE_NORM_TOL`` takes the next marginal). Where it
    moves the twin's marginal, which c3 reads, past ``MARGINAL_TOL`` of the
    next occupations, the step falls back to rows equal to those. Its sums
    are held as ``_build`` says, to the process's slack.
    """
    occs = np.array([process.law(t, t).diagonal() for t in process.times])
    marginal, kernels = occs[0], []
    for t in range(process.n_steps):
        mass = occs[t][:, None]
        rows = np.tile(occs[t + 1], (len(mass), 1))
        live = mass >= typicality.DEGENERATE_NORM_TOL
        kernel = np.divide(process.law(t, t + 1), mass, out=rows.copy(), where=live)
        if np.abs(marginal @ kernel - occs[t + 1]).max() > MARGINAL_TOL:
            kernel = rows
        kernels.append(kernel)
        marginal = marginal @ kernel
    twin = StochasticProcessSpec.__new__(StochasticProcessSpec)
    return twin._build(process.labels, occs[0], kernels, process._slack)


@dataclass(frozen=True)
class CorrespondenceAudit:
    """Witness values for the single-time, regime, and additivity checks.

    c3 passes when every label's gap between occupation and twin marginal is
    within ``MARGINAL_TOL`` plus both processes' slack at its time: each total
    mass lies within its own slack of 1, so a smaller gap is not a disagreement.

    c5 counts the pairs that both sides judge ``MutuallyTypical``, which is
    what being inside the regime means; ``c5_agreements`` equals
    ``c5_pairs_in_regime`` and ``c5_pass`` holds for every input. The count
    reads the verdict masks of the two processes' ``pair_table``s.

    c7's defect of a process at ``t1 < t2`` and cell ``j`` is ``|sum_i
    law(t1, t2)[i, j] - law(t2, t2)[j, j]|``: within its slack at ``t2`` for
    an additive twin, the chained norms' nonadditivity for the structure. A
    witness (past ``NONADDITIVITY_WITNESS``) holds both masses of one
    structure defect within a relative 1e-12 of the largest: the earliest
    ``(t1, t2)``, then the cell whose label sorts first, so that defects tied
    in exact arithmetic name the same witness in any label order.
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
    def failed(self) -> tuple:
        """The names of the failed checks, in order."""
        checks = (("c3", self.c3_pass), ("c5", self.c5_pass), ("c7", self.c7_mu_additive))
        return tuple(name for name, ok in checks if not ok)

    @property
    def passed(self) -> bool:
        return not self.failed

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


def correspondence_audit(q: core.CellProcess, c: StochasticProcessSpec) -> CorrespondenceAudit:
    """Compare either process with its stochastic twin at every time ``0..T``.

    Checks single-time marginal agreement, verdict agreement for pairs
    where both measures sit inside the typicality regime, additivity of the
    cylinder measure, and searches for a nonadditivity witness on ``q``'s
    side. A marginal mismatch is reported, not raised; a twin with another
    step count or other labels is rejected.

    c5 judges its ``(T+1)(cells+1)`` s-sets as one ``pair_table`` of each
    process. A twin value that fails the measure checks raises for the first
    failing pair in row-major order, which for this symmetric table is the
    first in ``itertools.combinations`` order. c7 reads both processes' laws.
    """
    if set(q.labels) != set(c.states):
        raise ValidationError("structure and chain use different cell labels")
    if q.n_steps != c.n_steps:
        raise ValidationError(f"structure has {q.n_steps} steps but its twin has {c.n_steps}")

    # (c3): occupations against single-time marginals, label by label.
    occ = np.array([q.occupations(t) for t in q.times])
    twin_index = [c.labels.index(label) for label in q.labels]
    c3 = np.abs(occ - np.array([c.occupations(t)[twin_index] for t in q.times])).max(axis=1)

    # (c5)/(c6): pairs that both sides judge mutually typical (inside the
    # regime), over all singleton and full regions at every time, time-major.
    regions = [frozenset({label}) for label in q.labels] + [frozenset(q.labels)]
    ssets = [SSet(t, r) for t in q.times for r in regions]
    typical_q = q.pair_table(ssets, ssets).typical(REGIME_THRESHOLD)
    typical_mu = c.pair_table(ssets, ssets).typical(REGIME_THRESHOLD)
    in_regime = int(np.count_nonzero(np.triu(typical_q & typical_mu, 1)))

    # (c7): additivity of mu, nonadditivity witness for the chained norm.
    def additivity_defects(p):  # (t1, t2) -> |sum_i law(t1, t2)[i, j] - law(t2, t2)[j, j]|
        return {(t1, t2): np.abs(p.law(t1, t2).sum(axis=0) - p.law(t2, t2).diagonal())
                for t1, t2 in itertools.combinations(p.times, 2)}

    mu_additive = all(np.all(d <= c._slack[t2]) for (_, t2), d in additivity_defects(c).items())
    defects = additivity_defects(q)
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
            "quantum_termwise_sum": float(q.law(t1, t2).sum(axis=0)[j]),
        }
    return CorrespondenceAudit(
        c3_max_error=float(c3.max()),
        c3_pass=bool(np.all(c3 <= MARGINAL_TOL + q._slack + c._slack)),
        c5_pairs_in_regime=in_regime,
        c5_agreements=in_regime,
        c5_pass=True,
        c7_mu_additive=mu_additive,
        c7_max_defect=max_defect,
        c7_witness=witness,
    )


# -- scenario JSON (the "stochastic" section) -------------------------------


def process_from_dict(data: Mapping) -> StochasticProcessSpec:
    return _process_from_dict(data, ())


def _process_from_dict(data: Mapping, slack) -> StochasticProcessSpec:
    """A scenario's twin, its sums held to ``slack`` as ``_build`` holds them."""
    try:
        states = data["states"]
        if not (isinstance(states, list) and all(isinstance(s, str) for s in states)):
            raise TypeError("states must be an array of strings")
        # ValueError: ragged arrays; OverflowError: an integer beyond float range
        initial = core._numbers_in(data["initial"], "initial")
        kernels = [core._numbers_in(k, f"kernel {t}") for t, k in enumerate(data["kernels"])]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed stochastic section: {exc}") from exc
    spec = StochasticProcessSpec.__new__(StochasticProcessSpec)
    return spec._build(states, initial, kernels, slack)


def process_to_dict(spec: StochasticProcessSpec) -> dict:
    return {
        "states": list(spec.states),
        "initial": spec.initial.tolist(),
        "kernels": [k.tolist() for k in spec.kernels],
    }
