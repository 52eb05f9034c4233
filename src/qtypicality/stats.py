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
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import NORM_TOL, CellTable, FactorUnitary, QuantumStructure, _as_int, _gamma
from .errors import ResourceLimitError, ValidationError

ENUMERATION_LIMIT = 2**20
COMPOSITION_LIMIT = 2 * 10**6
# Count vectors are classified and weighed in blocks of at most this many
# entries (rows times outcomes), which bounds the tail sum's working memory.
_BLOCK_ENTRIES = 2**14
# math.exp is exactly 0.0 below this, and adding 0.0 leaves a sum unchanged.
_EXP_UNDERFLOW = -746.0


@dataclass(frozen=True)
class ExperimentSpec:
    """Outcome count, probabilities, repetition count, deviation cutoff."""

    n: int
    probs: tuple
    N: int
    epsilon: float

    def __init__(self, n: int, probs: Sequence[float], N: int, epsilon: float):
        n = _as_int(n, "outcome count")
        N = _as_int(N, "repetition count")
        probs = tuple(float(p) for p in probs)
        if n != len(probs):
            raise ValidationError(f"expected {n} probabilities, got {len(probs)}")
        if not all(map(math.isfinite, probs)):
            raise ValidationError("non-finite outcome probability")
        if any(p < 0.0 for p in probs):
            raise ValidationError("negative outcome probability")
        if abs(sum(probs) - 1.0) > NORM_TOL:  # the amplitudes sqrt(p) are a unit vector
            raise ValidationError(f"probabilities sum to {sum(probs)}")
        if N < 1:
            raise ValidationError("repetition count must be at least 1")
        if not math.isfinite(float(epsilon)) or float(epsilon) <= 0.0:
            raise ValidationError("deviation cutoff must be positive and finite")
        # From N = 2**53 on, eps * N > 2**-1021 for every positive float eps, so
        # the bound is finite; such an N need not even convert to a float.
        if N < 2**53 and not math.isfinite(1.0 / (float(epsilon) * N)):
            raise ValidationError(f"deviation cutoff {epsilon} makes the bound 1/(eps*N) infinite")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "epsilon", float(epsilon))


def deviation(sequence: Sequence[int], probs: Sequence[float]) -> float:
    """Quadratic distance of the empirical frequencies from ``probs``."""
    if len(sequence) == 0:
        raise ValidationError("empty outcome sequence")
    sequence = [_as_int(x, "outcome") for x in sequence]
    if any(not 0 <= x < len(probs) for x in sequence):
        raise ValidationError("outcome out of range for the probability vector")
    counts = collections.Counter(sequence)
    return _count_deviation([counts[s] for s in range(len(probs))], len(sequence), probs)


def _count_deviation(counts: Sequence[int], N: int, probs: Sequence[float]) -> float:
    # Given one int array per outcome in place of each count, this does per
    # entry exactly the float operations of the scalar form (one correctly
    # rounded k / N, then -, *, +), so both forms classify alike. Hence the
    # explicit left-to-right sum (the built-in sum compensates from Python
    # 3.12 on) and e * e (libm pow(e, 2), behind e ** 2, is not always e * e).
    d = 0.0
    for k, p in zip(counts, probs):
        e = k / N - p
        d = d + e * e
    return d


def _atypical_counts(counts: Sequence[int], spec: ExperimentSpec) -> bool:
    """Whether sequences with these outcome counts reach the deviation cutoff
    (a bool array, given one int array of counts per outcome)."""
    return _count_deviation(counts, spec.N, spec.probs) >= spec.epsilon


def _complete(rows: np.ndarray, rest: np.ndarray, parts: int) -> np.ndarray:
    """Each partial count vector in ``rows`` completed, in lexicographic
    order, by every ``parts``-part composition of its ``rest``."""
    for _ in range(parts - 1):
        branches = rest + 1
        head = np.arange(branches.sum()) - np.repeat(np.cumsum(branches) - branches, branches)
        rows = np.column_stack([np.repeat(rows, branches, axis=0), head])
        rest = np.repeat(rest, branches) - head
    return np.column_stack([rows, rest])


def _composition_blocks(total: int, parts: int, prefix: tuple = ()):
    """Int arrays of the count vectors ``prefix + c``, for every composition
    ``c`` of ``total`` into ``parts`` nonnegative parts, in lexicographic
    order, in blocks of at most ``_BLOCK_ENTRIES`` entries (one row at least).

    A subtree that fits is one block. Otherwise the next part is fixed:
    runs of consecutive values whose subtrees fit together share a block,
    and a value whose subtree alone is too big is split the same way.
    """
    max_rows = max(1, _BLOCK_ENTRIES // (len(prefix) + parts))

    def rows_from(head: int) -> int:
        """Count vectors whose next part is at least ``head``."""
        return math.comb(total - head + parts - 1, parts - 1)

    if rows_from(0) <= max_rows:
        yield _complete(np.array([prefix], dtype=np.int64), np.array([total]), parts)
        return
    head = 0
    while head <= total:
        if rows_from(head) - rows_from(head + 1) > max_rows:
            yield from _composition_blocks(total - head, parts - 1, prefix + (head,))
            head += 1
            continue
        last, top = head, total  # the run ends at the largest value that fits
        while last < top:
            mid = (last + top + 1) // 2
            if rows_from(head) - rows_from(mid + 1) <= max_rows:
                last = mid
            else:
                top = mid - 1
        heads = np.arange(head, last + 1)
        fixed = np.broadcast_to(np.array(prefix, dtype=np.int64), (heads.size, len(prefix)))
        yield _complete(np.column_stack([fixed, heads]), total - heads, parts - 1)
        head = last + 1


def typical_set_complement_mass(spec: ExperimentSpec) -> float:
    """Exact product-measure mass of sequences with deviation >= epsilon.

    Sequences are grouped by their frequency-count vector (the deviation
    depends only on counts). Each group's weight, the multinomial
    coefficient times the product of p_s**k_s, is formed in log space with
    ``math.lgamma``, so large N neither overflows nor underflows to a wrong
    sum; a count k_s > 0 of an outcome with p_s = 0 gives weight zero.

    The count vectors run in lexicographic order, in blocks of bounded
    size. The log-weight of each is ``lgamma(N+1)`` plus, outcome by
    outcome in order, ``k_s*log(p_s) - lgamma(k_s+1)``; the mass is
    ``mass += math.exp(w)`` over the atypical vectors in that order, one
    float at a time (the built-in ``sum`` compensates from Python 3.12 on,
    and ``np.exp`` is not always correctly rounded). The result is thus the
    same float as the plain loop over count vectors, on any platform.

    The mass is checked against Markov's inequality for these p, whose sum 1 + d
    need not be 1: the exact mass is at most (1 + |d|)**(N + 3) (V + 2|d|) / (N c),
    V = sum_s p_s (1 - p_s), c the cutoff less 4 gamma_{n+4} (the rounded
    deviation's largest excess). As in ``core._budget``, a log-weight (2n + 1 terms
    of at most S = 2 lgamma(N+1) + N max|log p_s|, lgamma and log within 8 ulps)
    is off by gamma_{2n+12} S, a weight by expm1 of that, the sum of K weights by
    4 gamma_{2K+4} more, and an underflow by 2**-1075 (16 a weight at most).
    """
    n_compositions = math.comb(spec.N + spec.n - 1, spec.n - 1)
    if n_compositions > COMPOSITION_LIMIT:
        raise ResourceLimitError(f"{n_compositions} count vectors exceed the aggregation limit")
    if spec.N + 1 > COMPOSITION_LIMIT:  # only n = 1 has fewer count vectors
        raise ResourceLimitError(f"an lgamma table of {spec.N + 1} entries exceeds the limit")
    log_fact = np.fromiter(map(math.lgamma, range(1, spec.N + 2)), float, spec.N + 1)
    log_p = [math.log(p) if p > 0.0 else None for p in spec.probs]
    mass = 0.0
    for counts in _composition_blocks(spec.N, spec.n):
        log_weight = np.full(counts.shape[0], log_fact[spec.N])
        for k, lp in zip(counts.T, log_p):
            if lp is None:
                log_weight[k > 0] = -math.inf
            else:
                # k = 0 adds -0.0 or +0.0, which leaves the sum unchanged.
                log_weight = log_weight + (k * lp - log_fact[k])
        keep = _atypical_counts(counts.T, spec) & (log_weight > _EXP_UNDERFLOW)
        for w in log_weight[keep].tolist():
            mass += math.exp(w)
    d, cut = abs(math.fsum((*spec.probs, -1.0))), spec.epsilon - 4 * _gamma(spec.n + 4)
    scale = 2.0 * log_fact[spec.N] + spec.N * max(abs(lp) for lp in log_p if lp is not None)
    slack = math.expm1(_gamma(2 * spec.n + 12) * scale) + 4 * _gamma(2 * n_compositions + 4)
    spread = (sum(p * (1.0 - p) for p in spec.probs) + 2.0 * d) * math.exp((spec.N + 3) * d)
    markov = spread / (spec.N * cut) if cut > 0.0 else math.inf
    if not mass <= markov * (1.0 + slack) + n_compositions * 2.0**-1071:
        raise ArithmeticError(f"tail mass {mass} exceeds its Markov bound {markov}")
    return mass


def typical_set_bound(spec: ExperimentSpec) -> float:
    """The guaranteed upper bound 1/(epsilon * N) on the atypical mass."""
    return 1.0 / (spec.epsilon * spec.N)


def _sequence_count(spec: ExperimentSpec) -> int:
    """The number ``n**N`` of outcome sequences, within the enumeration
    limit. From N = the limit's bit length on, every n is refused before a
    power is formed: for n > 1, ``n**N >= 2**N`` passes the limit, and one
    outcome still costs N steps and a label of 2N - 1 characters."""
    if spec.N >= ENUMERATION_LIMIT.bit_length() or spec.n ** spec.N > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"sequences of {spec.N} outcomes among {spec.n} exceed the enumeration limit"
        )
    return spec.n ** spec.N


def _label_parts(spec: ExperimentSpec) -> tuple:
    """Labels of the leading and of the trailing outcome digits of an index.

    The label of basis index ``i`` is ``heads[i // len(tails)] +
    tails[i % len(tails)]``: comma-separated outcome digits, most
    significant first. The enumeration guard is checked here.
    """
    _sequence_count(spec)
    digits = [str(s) for s in range(spec.n)]
    low = spec.N // 2
    heads = [",".join(seq) for seq in itertools.product(digits, repeat=spec.N - low)]
    tails = [",".join(seq) for seq in itertools.product(digits, repeat=low)]
    if low:
        heads = [head + "," for head in heads]
    return heads, tails


def _labels(spec: ExperimentSpec):
    """The label of every basis index, in index order, made lazily."""
    heads, tails = _label_parts(spec)
    return (head + tail for head in heads for tail in tails)


def _outcome_counts(spec: ExperimentSpec, s: int) -> np.ndarray:
    """How often outcome ``s`` occurs in each sequence, in basis-index order
    (each repetition appends the least significant digit)."""
    counts, indicator = np.zeros(1, dtype=np.int64), np.arange(spec.n) == s
    for _ in range(spec.N):
        counts = np.add.outer(counts, indicator).reshape(-1)
    return counts


def _region(spec: ExperimentSpec, atypical: bool) -> frozenset:
    heads, tails = _label_parts(spec)
    # Count arrays are made one outcome at a time, as the sum reads them.
    flags = _atypical_counts((_outcome_counts(spec, s) for s in range(spec.n)), spec)
    kept = np.flatnonzero(flags == atypical)
    high, low = np.divmod(kept, len(tails))
    return frozenset(heads[h] + tails[t] for h, t in zip(high.tolist(), low.tolist()))


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
    comma-separated outcome digits, one basis index each (a
    ``CellTable.singletons`` table, with no per-cell object), and the
    occupation of a sequence cell at the final time is the product of its
    outcome probabilities.
    """
    cells = CellTable.singletons(tuple(_labels(spec)))
    split = _splitting_unitary(spec.probs)
    schedule = [
        FactorUnitary(split, index=i, num_factors=spec.N) for i in range(spec.N)
    ]
    dim = _sequence_count(spec)
    psi0 = np.zeros(dim, dtype=complex)
    psi0[0] = 1.0
    return QuantumStructure(dim, psi0, schedule, cells)


def born_frequency_report(spec: ExperimentSpec) -> np.ndarray:
    """Expected outcome counts N * p_s from the single-system representation."""
    return spec.N * np.asarray(spec.probs, dtype=float)
