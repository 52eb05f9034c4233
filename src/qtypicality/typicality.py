"""Mutual typicality measures, bounding inequalities, and rule verdicts.

Two cylinder sets are mutually typical when the normalized squared distance
of their Heisenberg projections of the initial vector is small. The measure
normalized by the larger projected mass gates all verdicts; the min-norm
variant is reported alongside it but never drives a verdict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import core
from .core import QuantumStructure, SSet
from .errors import ValidationError

DEFAULT_THRESHOLD = core.DEFAULT_THRESHOLD
DEGENERATE_NORM_TOL = 1e-14
CHAIN_TOL = 1e-9
# Slack on the measure axioms of a pair's three values as a caller gives them.
MU_TOL = 1e-12


class Verdict(str, Enum):
    MUTUALLY_TYPICAL = "MutuallyTypical"
    NOT_TYPICAL = "NotTypical"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class TypicalityReport:
    """Measures, projected masses, and the verdict for one pair of s-sets."""

    m_big: float
    m_small: float
    norm1_sq: float
    norm2_sq: float
    threshold: float
    verdict: Verdict

    @property
    def degenerate(self) -> bool:
        return self.verdict is Verdict.DEGENERATE

    def to_dict(self) -> dict:
        """JSON form; a non-finite measure (degenerate pair, or an empty
        projection under ``m_small``) becomes ``None``."""
        return {
            "m_big": self.m_big if math.isfinite(self.m_big) else None,
            "m_small": self.m_small if math.isfinite(self.m_small) else None,
            "norm1_sq": self.norm1_sq,
            "norm2_sq": self.norm2_sq,
            "threshold": self.threshold,
            "verdict": self.verdict.value,
        }


def _m_big(diff_sq, norm1_sq, norm2_sq):
    """The rule's measure, elementwise over broadcast arrays of the three
    squared masses of pairs: ``diff_sq / max(norm1_sq, norm2_sq)``, NaN for
    a degenerate pair (both masses below ``DEGENERATE_NORM_TOL``)."""
    hi = np.maximum(norm1_sq, norm2_sq)
    live = hi >= DEGENERATE_NORM_TOL
    with np.errstate(over="ignore"):  # inf past the float range
        return np.divide(diff_sq, hi, out=np.full(np.shape(live), np.nan), where=live)


def _typical(m_big, threshold: float):
    """The verdict: mutually typical when ``m_big <= threshold``. NaN
    compares false, so a degenerate pair never is."""
    return m_big <= threshold


def report_from_masses(
    diff_sq: float, norm1_sq: float, norm2_sq: float, threshold: float
) -> TypicalityReport:
    """Assemble a report from the three squared masses of a pair."""
    threshold = core._check_threshold(threshold)
    m_big = float(_m_big(diff_sq, norm1_sq, norm2_sq))
    if math.isnan(m_big):
        return TypicalityReport(
            math.nan, math.nan, norm1_sq, norm2_sq, threshold, Verdict.DEGENERATE
        )
    lo = min(norm1_sq, norm2_sq)
    m_small = diff_sq / lo if lo > 0.0 else math.inf
    verdict = Verdict.MUTUALLY_TYPICAL if _typical(m_big, threshold) else Verdict.NOT_TYPICAL
    return TypicalityReport(m_big, m_small, norm1_sq, norm2_sq, threshold, verdict)


class PairMasses(NamedTuple):
    """Squared masses of every pair of a row s-set and a column s-set, as
    read-only float arrays."""

    diff_sq: np.ndarray  # diff_sq[i, j] = ||v_i - w_j||^2
    row_norm_sq: np.ndarray  # ||v_i||^2
    col_norm_sq: np.ndarray  # ||w_j||^2

    @property
    def m_big(self) -> np.ndarray:
        """Every pair's ``m_big``, NaN where the pair is degenerate."""
        return _m_big(self.diff_sq, self.row_norm_sq[:, None], self.col_norm_sq[None, :])

    def typical(self, threshold: float) -> np.ndarray:
        """Boolean mask of the pairs judged ``MutuallyTypical`` at ``threshold``."""
        return _typical(self.m_big, core._check_threshold(threshold))

    def report(self, i: int, j: int, threshold: float) -> TypicalityReport:
        return report_from_masses(
            float(self.diff_sq[i, j]), float(self.row_norm_sq[i]),
            float(self.col_norm_sq[j]), threshold,
        )


def mutual_typicality(
    structure: QuantumStructure,
    s1: SSet,
    s2: SSet,
    threshold: float = DEFAULT_THRESHOLD,
) -> TypicalityReport:
    """Quantum mutual typicality of two s-sets, verdict at ``threshold``:
    the one-pair case of ``QuantumStructure.pair_table``."""
    return structure.pair_table([s1], [s2]).report(0, 0, threshold)


def mutual_typicality_measure_mu(
    mu1: float,
    mu2: float,
    mu_symm_diff: float,
    threshold: float = DEFAULT_THRESHOLD,
) -> TypicalityReport:
    """Probabilistic mutual typicality from measures of S1, S2 and S1 xor S2:
    the one-pair case of ``mu_pair_masses``."""
    return mu_pair_masses([mu1], [mu2], [[mu_symm_diff]]).report(0, 0, threshold)


def mu_pair_masses(mu_rows, mu_cols, mu_xor) -> PairMasses:
    """Measures of every pair of a row set and a column set, checked as
    measures: ``mu_rows[i]`` and ``mu_cols[j]`` are the measures of the two
    sets and ``mu_xor[i, j]`` that of their symmetric difference.

    Each of the three values of a pair must lie in ``[0, 1 + MU_TOL]`` and
    satisfy ``|mu_i - mu_j| <= mu_xor <= mu_i + mu_j`` within ``MU_TOL``.
    Every entry is checked; the first that fails, in row-major order, raises
    ``ValidationError`` naming its values and the first check it fails, in
    the order above.
    """
    return _checked_measures(mu_rows, mu_cols, mu_xor, MU_TOL)


def _checked_measures(mu_rows, mu_cols, mu_xor, tol) -> PairMasses:
    rows, cols = core._frozen(mu_rows, "mu_rows", float), core._frozen(mu_cols, "mu_cols", float)
    xor = core._frozen(mu_xor, "mu_xor", float).reshape(len(rows), len(cols))
    mu1, mu2 = rows[:, None], cols[None, :]
    with np.errstate(invalid="ignore"):  # inf - inf fails the range checks first
        checks = (  # (holds, message), in the order a single pair is checked
            ((0.0 <= mu1) & (mu1 <= 1.0 + tol), "mu1={a} outside [0, 1]"),
            ((0.0 <= mu2) & (mu2 <= 1.0 + tol), "mu2={b} outside [0, 1]"),
            ((0.0 <= xor) & (xor <= 1.0 + tol), "mu_symm_diff={x} outside [0, 1]"),
            (~(np.abs(mu1 - mu2) > xor + tol), "inconsistent measures: |{a} - {b}| > {x}"),
            (~(xor > mu1 + mu2 + tol), "inconsistent measures: {x} > {a} + {b}"),
        )
    holds = [np.broadcast_to(ok, xor.shape) for ok, _ in checks]
    bad = ~np.logical_and.reduce(holds)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        message = next(msg for ok, (_, msg) in zip(holds, checks) if not ok[i, j])
        raise ValidationError(
            message.format(a=float(rows[i]), b=float(cols[j]), x=float(xor[i, j]))
        )
    return PairMasses(xor, rows, cols)


def exclusion_measure(structure: QuantumStructure, sset: SSet) -> float:
    """Mass outside the region at its time: ||E(complement) Psi(t)||^2."""
    structure.check_sset(sset)
    psi = core.state_at(structure, sset.time).amplitudes
    outside = ~structure.region_mask(sset.region)
    return float(np.sum(np.abs(psi[outside]) ** 2))


def check_inequality_chain(report: TypicalityReport, tol: float = CHAIN_TOL) -> bool:
    """Verify sqrt(M) <= sqrt(m) <= sqrt(M)/(1 - sqrt(M)) and its corollary.

    Requires a non-degenerate report. When sqrt(M) >= 1 the upper bound is
    undefined and only the lower inequality is checked. The lower bound holds
    at ``tol=0`` for every report that ``report_from_masses`` builds from
    finite nonnegative masses (one difference over the larger and the smaller
    mass; rounded division and square root are monotone). The upper bound
    reads masses the checker did not compute, so ``tol`` (``CHAIN_TOL``) is a
    contract on the caller's report. The corollary (M <= 0.08 implies m <= 2M)
    decides nothing unless ``tol`` exceeds about 0.23: there the upper bound
    gives m <= M / (1 - sqrt(M))^2 <= 1.95 M.
    """
    if report.degenerate:
        raise ValidationError("inequality chain undefined for degenerate reports")
    root_big = math.sqrt(report.m_big)
    root_small = math.sqrt(report.m_small) if math.isfinite(report.m_small) else math.inf
    if root_big > root_small + tol:
        return False
    if root_big < 1.0 and root_small > root_big / (1.0 - root_big) + tol:
        return False
    if report.m_big <= 0.08 and report.m_small > 2.0 * report.m_big + tol:
        return False
    return True
