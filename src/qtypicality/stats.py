"""Statistical experiments: outcome frequencies, typical sets, tail bounds.

A repeated n-outcome experiment is modeled two ways. Combinatorially: the
weight of every length-N outcome sequence is the product of its outcome
probabilities, and the atypical mass sums the weights of sequences whose
quadratic frequency deviation reaches the cutoff. Quantum mechanically: a
product-space structure whose final-time cells are the disjoint
outcome-sequence supports, so the same mass appears as an exclusion
measure. Both are exact and must agree.
"""
from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import FactorUnitary, QuantumStructure
from .errors import ResourceLimitError, ValidationError

ENUMERATION_LIMIT = 2**20
COMPOSITION_LIMIT = 2 * 10**6


@dataclass(frozen=True)
class ExperimentSpec:
    """Outcome count, probabilities, repetition count, deviation cutoff."""

    n: int
    probs: tuple
    N: int
    epsilon: float

    def __init__(self, n: int, probs: Sequence[float], N: int, epsilon: float):
        probs = tuple(float(p) for p in probs)
        if int(n) != len(probs):
            raise ValidationError(f"expected {n} probabilities, got {len(probs)}")
        if not all(map(math.isfinite, probs)):
            raise ValidationError("non-finite outcome probability")
        if any(p < 0.0 for p in probs):
            raise ValidationError("negative outcome probability")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValidationError(f"probabilities sum to {sum(probs)}")
        if int(N) < 1:
            raise ValidationError("repetition count must be at least 1")
        if not math.isfinite(float(epsilon)) or float(epsilon) <= 0.0:
            raise ValidationError("deviation cutoff must be positive and finite")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "N", int(N))
        object.__setattr__(self, "epsilon", float(epsilon))


def deviation(sequence: Sequence[int], probs: Sequence[float]) -> float:
    """Quadratic distance of the empirical frequencies from ``probs``."""
    if len(sequence) == 0:
        raise ValidationError("empty outcome sequence")
    if any(not 0 <= x < len(probs) for x in sequence):
        raise ValidationError("outcome out of range for the probability vector")
    counts = collections.Counter(sequence)
    return _count_deviation([counts[s] for s in range(len(probs))], len(sequence), probs)


def _count_deviation(counts: Sequence[int], N: int, probs: Sequence[float]) -> float:
    return sum((k / N - p) ** 2 for k, p in zip(counts, probs))


def _atypical_counts(counts: Sequence[int], spec: ExperimentSpec) -> bool:
    """Whether sequences with these outcome counts reach the deviation cutoff."""
    return _count_deviation(counts, spec.N, spec.probs) >= spec.epsilon


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of length ``parts`` summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def typical_set_complement_mass(spec: ExperimentSpec) -> float:
    """Exact product-measure mass of sequences with deviation >= epsilon.

    Sequences are grouped by their frequency-count vector (the deviation
    depends only on counts). Each group's weight, the multinomial
    coefficient times the product of p_s**k_s, is formed in log space with
    ``math.lgamma``, so large N neither overflows nor underflows to a wrong
    sum; a count k_s > 0 of an outcome with p_s = 0 gives weight zero. The
    mass is checked against the Markov-style bound
    sum_s p_s(1-p_s)/(eps*N) before return.
    """
    n_compositions = math.comb(spec.N + spec.n - 1, spec.n - 1)
    if n_compositions > COMPOSITION_LIMIT and spec.n ** spec.N > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"{n_compositions} count vectors exceed the aggregation limit"
        )
    log_fact = [math.lgamma(k + 1) for k in range(spec.N + 1)]
    log_p = [math.log(p) if p > 0.0 else None for p in spec.probs]
    mass = 0.0
    for counts in _compositions(spec.N, spec.n):
        if not _atypical_counts(counts, spec):
            continue
        log_weight = log_fact[spec.N]
        for k, lp in zip(counts, log_p):
            if k == 0:
                continue
            if lp is None:
                break
            log_weight += k * lp - log_fact[k]
        else:
            mass += math.exp(log_weight)
    markov = sum(p * (1.0 - p) for p in spec.probs) / (spec.epsilon * spec.N)
    if not mass <= markov + 1e-12:
        raise ArithmeticError(f"tail mass {mass} exceeds Markov bound {markov}")
    return mass


def typical_set_bound(spec: ExperimentSpec) -> float:
    """The guaranteed upper bound 1/(epsilon * N) on the atypical mass."""
    return 1.0 / (spec.epsilon * spec.N)


def _sequences(spec: ExperimentSpec):
    """The label and outcome counts of every length-N sequence, in basis order.

    Labels are comma-separated outcome digits, most significant first. The
    enumeration guard is checked at once; the sequences are made lazily.
    """
    if spec.n ** spec.N > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"{spec.n}**{spec.N} sequences exceed the enumeration limit"
        )
    digits = [str(s) for s in range(spec.n)]
    return (
        (",".join(seq), tuple(map(seq.count, digits)))
        for seq in itertools.product(digits, repeat=spec.N)
    )


def _region(spec: ExperimentSpec, atypical: bool) -> frozenset:
    is_atypical = functools.cache(lambda counts: _atypical_counts(counts, spec))
    return frozenset(
        label for label, counts in _sequences(spec) if is_atypical(counts) == atypical
    )


def atypical_region(spec: ExperimentSpec) -> frozenset:
    """Cell labels of the sequences at or beyond the deviation cutoff."""
    return _region(spec, atypical=True)


def typical_region(spec: ExperimentSpec) -> frozenset:
    """Cell labels of the sequences strictly inside the deviation cutoff."""
    return _region(spec, atypical=False)


def _splitting_unitary(probs: Sequence[float]) -> np.ndarray:
    """Real orthogonal matrix whose first column is the amplitude vector."""
    amps = np.sqrt(np.asarray(probs, dtype=float))
    n = amps.shape[0]
    w = np.zeros(n)
    w[0] = 1.0
    w -= amps
    norm_sq = float(w @ w)
    if norm_sq < 1e-30:
        return np.eye(n)
    # Householder reflection mapping e0 exactly onto the amplitude vector.
    return np.eye(n) - 2.0 * np.outer(w, w) / norm_sq


def build_measurement_chain(spec: ExperimentSpec) -> QuantumStructure:
    """Product-space structure whose step k splits the k-th measurement.

    The basis indexes outcome sequences (most significant digit first);
    device states are absorbed into the basis labels, which keeps the
    outcome-sequence supports exactly disjoint. Cell labels are
    comma-separated outcome digits, and the occupation of a sequence cell
    at the final time is the product of its outcome probabilities.
    """
    cells = {label: [idx] for idx, (label, _) in enumerate(_sequences(spec))}
    split = _splitting_unitary(spec.probs)
    schedule = [
        FactorUnitary(split, index=i, num_factors=spec.N) for i in range(spec.N)
    ]
    dim = spec.n ** spec.N
    psi0 = np.zeros(dim, dtype=complex)
    psi0[0] = 1.0
    return QuantumStructure(dim, psi0, schedule, cells)


def born_frequency_report(spec: ExperimentSpec) -> np.ndarray:
    """Expected outcome counts N * p_s from the single-system representation."""
    return spec.N * np.asarray(spec.probs, dtype=float)
