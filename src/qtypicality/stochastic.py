"""Finite Markov processes and the quantum/stochastic correspondence audit.

The twin of a quantum structure is a finite-state Markov chain sharing its
cell labels and step count. Both are ``core.CellProcess``es: the twin's
cells are one index per state, and its region masks are cached on that
base. Its cylinder-set measure is exactly additive, which is precisely the
property the chained quantum squared norm lacks; the audit quantifies both
sides.
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

    @property
    def states(self) -> tuple:
        return self.labels

    def marginal(self, time: int) -> np.ndarray:
        time = self.check_time(time)
        dist = self.initial.copy()
        for t in range(time):
            dist = dist @ self.kernels[t]
        return dist


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
    """Measure mu(S) of one s-set: the mass of its region at its time."""
    return cylinder_measure(spec, [sset])


def mu_symmetric_difference(spec: StochasticProcessSpec, s1: SSet, s2: SSet) -> float:
    """Measure of the symmetric difference: mu(S1 and not S2) + mu(not S1 and S2)."""
    all_states = frozenset(spec.states)
    c1 = SSet(s1.time, all_states - s1.region)
    c2 = SSet(s2.time, all_states - s2.region)
    return cylinder_measure(spec, [s1, c2]) + cylinder_measure(spec, [c1, s2])


def mu_typicality(
    spec: StochasticProcessSpec,
    s1: SSet,
    s2: SSet,
    threshold: float = REGIME_THRESHOLD,
) -> typicality.TypicalityReport:
    """Probabilistic mutual typicality report for a pair of s-sets, judged by
    ``typicality.mutual_typicality_measure_mu`` as the audit judges the twin."""
    return typicality.mutual_typicality_measure_mu(
        mu_sset(spec, s1),
        mu_sset(spec, s2),
        mu_symmetric_difference(spec, s1, s2),
        threshold=threshold,
    )


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
    ``c5_pairs_in_regime`` and ``c5_pass`` holds for every input. Each side
    judges all its pairs as one table (``typicality.pair_masses`` and
    ``typicality.mu_pair_masses``), and the count reads the two verdict
    masks.

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

    Every twin value is a sum of entries of a two-time joint law
    ``P(X_s = i, X_t = j)``, built once per ordered pair of times with the
    cells in the structure's label order: ``diag(marginal(s))`` stepped
    through the kernels from ``s`` to ``t``, and its transpose for ``s > t``.
    Region masses are sums of those tables over 0/1 region rows.

    c5 judges every pair of its ``(T+1)(cells+1)`` s-sets at once: the
    quantum side as one ``pair_masses`` table, the twin side as one table of
    region masses and symmetric-difference masses, checked as measures. A
    twin value that fails the check raises the ``ValidationError`` that
    ``mutual_typicality_measure_mu`` raises for the first such pair in
    ``itertools.combinations`` order.

    c3 and c7 read one occupations table ``occ[t, j]``, and c7 compares it
    with the column sums of one ``core.branch_sweep`` per earlier time.
    """
    if set(q.labels) != set(c.states):
        raise ValidationError("structure and chain use different cell labels")
    if q.n_steps != c.n_steps:
        raise ValidationError(f"structure has {q.n_steps} steps but its twin has {c.n_steps}")

    order = [c.states.index(label) for label in q.labels]
    joint = {}  # (s, t) -> P(X_s = i, X_t = j)
    for s in q.times:
        laws = itertools.accumulate(c.kernels[s:], np.matmul, initial=np.diag(c.marginal(s)))
        for t, law in enumerate(laws, start=s):
            joint[s, t] = law[np.ix_(order, order)]
            joint[t, s] = joint[s, t].T

    # (c3): occupations against single-time marginals.
    occ = core._cell_masses(q, np.array([core.state_at(q, t).amplitudes for t in q.times]))
    c3_max = float(np.abs(occ - [np.diag(joint[t, t]) for t in q.times]).max())

    # (c5)/(c6): pairs that both sides judge mutually typical (inside the
    # regime), over all singleton and full regions at every time. Each side
    # is one table over those s-sets, time-major, and the count reads the
    # upper triangle of the two verdict masks.
    regions = [frozenset({label}) for label in q.labels] + [frozenset(q.labels)]
    rows = np.vstack([np.eye(len(q.labels)), np.ones(len(q.labels))])  # one per region
    mu = np.concatenate([np.diag(rows @ joint[t, t] @ rows.T) for t in q.times])
    # across[(s, a), (t, b)] = P(X_s in region a, X_t not in region b)
    across = np.block([[rows @ joint[s, t] @ (1.0 - rows).T for t in q.times] for s in q.times])
    ssets = [SSet(t, r) for t in q.times for r in regions]
    typical_q = typicality.pair_masses(q, ssets, ssets).typical(REGIME_THRESHOLD)
    typical_mu = typicality.mu_pair_masses(mu, across + across.T).typical(REGIME_THRESHOLD)
    in_regime = int(np.count_nonzero(np.triu(typical_q & typical_mu, 1)))

    # (c7): additivity of mu, nonadditivity witness for the chained norm.
    mu_additive, chained_sums = True, {}  # (t1, t2) -> sum_i m[i, j], in time order
    for t1 in q.times[:-1]:
        for t2, chained in enumerate(core.branch_sweep(q, t1), start=t1 + 1):
            # Summing P(X_t1 = i, X_t2 = j) over i gives back P(X_t2 = j).
            if np.any(np.abs(joint[t1, t2].sum(axis=0) - np.diag(joint[t2, t2])) > 1e-12):
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
        states = [str(s) for s in data["states"]]
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
