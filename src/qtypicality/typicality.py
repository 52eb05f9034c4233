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
from typing import NamedTuple, Sequence

import numpy as np

from . import core
from .core import QuantumStructure, SSet
from .errors import ValidationError

DEFAULT_THRESHOLD = 0.08
DEGENERATE_NORM_TOL = 1e-14
CHAIN_TOL = 1e-9
# Complex entries in one block of pair differences, so a table's working
# memory does not grow with its size. At 64 KB a block stays below the size
# for which the C allocator maps fresh pages; blocks of 2**16 entries raised
# the audit benchmark's peak RSS by about 0.5 MB.
PAIR_BLOCK_ENTRIES = 2**12


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


def _check_threshold(threshold: float) -> float:
    threshold = float(threshold)
    if not 0.0 < threshold < 1.0:
        raise ValidationError(f"threshold {threshold} outside (0, 1)")
    return threshold


def report_from_masses(
    diff_sq: float, norm1_sq: float, norm2_sq: float, threshold: float
) -> TypicalityReport:
    """Assemble a report from the three squared masses of a pair."""
    threshold = _check_threshold(threshold)
    hi = max(norm1_sq, norm2_sq)
    lo = min(norm1_sq, norm2_sq)
    if hi < DEGENERATE_NORM_TOL:
        return TypicalityReport(
            math.nan, math.nan, norm1_sq, norm2_sq, threshold, Verdict.DEGENERATE
        )
    m_big = diff_sq / hi
    m_small = diff_sq / lo if lo > 0.0 else math.inf
    verdict = Verdict.MUTUALLY_TYPICAL if m_big <= threshold else Verdict.NOT_TYPICAL
    return TypicalityReport(m_big, m_small, norm1_sq, norm2_sq, threshold, verdict)


class PairMasses(NamedTuple):
    """Squared masses of every pair of a row s-set and a column s-set."""

    diff_sq: list  # diff_sq[i][j] = ||v_i - w_j||^2
    row_norm_sq: list  # ||v_i||^2
    col_norm_sq: list  # ||w_j||^2

    def report(self, i: int, j: int, threshold: float) -> TypicalityReport:
        return report_from_masses(
            self.diff_sq[i][j], self.row_norm_sq[i], self.col_norm_sq[j], threshold
        )


def pair_masses(
    structure: QuantumStructure, rows: Sequence[SSet], cols: Sequence[SSet]
) -> PairMasses:
    """The squared masses of every (row, column) pair of s-sets.

    The Heisenberg projections ``v_i`` of ``rows`` and ``w_j`` of ``cols``
    come from ``core.project_initial``. Their differences are formed a block
    of rows at a time, at most ``PAIR_BLOCK_ENTRIES`` complex entries each
    (one row if a row alone is larger), and each ``||v_i - w_j||^2`` is one
    sum over the real and imaginary parts of one difference. That sum does
    not depend on the block, so every entry equals the one-pair table of its
    two s-sets bit for bit, and since ``(-x)^2 = x^2`` a table of a list
    against itself is exactly symmetric.
    """
    row_vecs = [core.project_initial(structure, sset) for sset in rows]
    col_vecs = [core.project_initial(structure, sset) for sset in cols]
    v, w = (
        np.array([x.amplitudes for x in vecs], dtype=complex).reshape(len(vecs), structure.dim)
        for vecs in (row_vecs, col_vecs)
    )
    diff_sq = np.empty((len(v), len(w)))
    step = max(1, PAIR_BLOCK_ENTRIES // max(1, w.size))
    for start in range(0, len(v), step):
        diff = (v[start:start + step, None, :] - w[None, :, :]).view(float)
        np.square(diff, out=diff)
        diff.sum(axis=-1, out=diff_sq[start:start + step])
    return PairMasses(
        diff_sq.tolist(), [x.norm_sq for x in row_vecs], [x.norm_sq for x in col_vecs]
    )


def mutual_typicality(
    structure: QuantumStructure,
    s1: SSet,
    s2: SSet,
    threshold: float = DEFAULT_THRESHOLD,
) -> TypicalityReport:
    """Quantum mutual typicality of two s-sets, verdict at ``threshold``:
    the one-pair case of ``pair_masses``."""
    return pair_masses(structure, [s1], [s2]).report(0, 0, threshold)


def mutual_typicality_measure_mu(
    mu1: float,
    mu2: float,
    mu_symm_diff: float,
    threshold: float = DEFAULT_THRESHOLD,
) -> TypicalityReport:
    """Probabilistic mutual typicality from measures of S1, S2 and S1 xor S2."""
    for name, value in (("mu1", mu1), ("mu2", mu2), ("mu_symm_diff", mu_symm_diff)):
        if not 0.0 <= value <= 1.0 + 1e-12:
            raise ValidationError(f"{name}={value} outside [0, 1]")
    if abs(mu1 - mu2) > mu_symm_diff + 1e-12:
        raise ValidationError(
            f"inconsistent measures: |{mu1} - {mu2}| > {mu_symm_diff}"
        )
    if mu_symm_diff > mu1 + mu2 + 1e-12:
        raise ValidationError(
            f"inconsistent measures: {mu_symm_diff} > {mu1} + {mu2}"
        )
    return report_from_masses(float(mu_symm_diff), float(mu1), float(mu2), threshold)


def exclusion_measure(structure: QuantumStructure, sset: SSet) -> float:
    """Mass outside the region at its time: ||E(complement) Psi(t)||^2."""
    structure.check_sset(sset)
    psi = core.state_at(structure, sset.time).amplitudes
    outside = ~structure.region_mask(sset.region)
    return float(np.sum(np.abs(psi[outside]) ** 2))


def check_inequality_chain(report: TypicalityReport, tol: float = CHAIN_TOL) -> bool:
    """Verify sqrt(M) <= sqrt(m) <= sqrt(M)/(1 - sqrt(M)) and its corollary.

    Requires a non-degenerate report. When sqrt(M) >= 1 the upper bound is
    undefined and only the lower inequality is checked. The corollary
    (M <= 0.08 implies m <= 2M) is part of the verdict.
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
