"""Metamorphic relations of the rule: transformed inputs whose every measure
M is equal to the original's in exact arithmetic, so that a float table of
one is refereed by the table of the other."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qtypicality import QuantumStructure, SSet
from qtypicality.core import DEFAULT_THRESHOLD, state_at

from conftest import random_unitary

UNIT_ROUNDOFF = 2.0**-53


def gamma(n):
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


def haar_problem(seed, dim, n_steps, n_cells):
    """A structure with Haar steps and state, its cells as equal as ``dim``
    allows, and the structure's self-table s-sets: each single cell and the
    full region at every time, time-major."""
    rng = np.random.default_rng(seed)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    steps = [random_unitary(rng, dim) for _ in range(n_steps)]
    parts = np.array_split(np.arange(dim), n_cells)
    cells = {f"c{k}": part.tolist() for k, part in enumerate(parts)}
    structure = QuantumStructure(dim, psi0 / np.linalg.norm(psi0), steps, cells)
    regions = [frozenset({label}) for label in structure.labels] + [frozenset(structure.labels)]
    return structure, [(t, region) for t in structure.times for region in regions]


def time_reversal_tolerance(dim, n_steps, norm):
    """A bound on |M(S) - M(R)| for a pair whose larger projected norm is at
    least ``norm`` in both tables.

    With u = 2**-53 and gamma_n = n u / (1 - n u) (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., §3.1): a step is d complex
    inner products of length d. Each product is off by at most gamma_3
    relative (§3.6) and the d-term sum by gamma_{d-1} times the sum of the
    terms' moduli, so ``||fl(Ux) - Ux|| <= gamma_{d+2} || |U| |x| || <= eta
    ||x||`` with eta = sqrt(d) gamma_{d+2}, since ``|| |U| ||_2 <= ||U||_F =
    sqrt(d)``. Masks are exact. A projection of S takes at most 2T steps
    from psi0 and one of R at most 3T (T of them for Psi(T)), so every
    computed vector lies within eps = (1 + eta)^(3T) - 1 of its exact value,
    the exact values of R being U(T) times those of S.

    For one table, with exact norms at most N and D = ||v - w|| <= 2N, the
    computed vectors give an M within 16 eps (N' + eps) / N'^2 of the exact
    M, N' being the larger computed norm; the table's own sums and the
    division add at most a relative gamma_{3d+5} to M <= 4. The two tables
    together are off by twice the sum, the second term doubled once more to
    cover reading N' from the computed squared norms.
    """
    eps = (1.0 + math.sqrt(dim) * gamma(dim + 2)) ** (3 * n_steps) - 1.0
    return 2.0 * (16.0 * eps * (norm + eps) / norm**2 + 8.0 * gamma(3 * dim + 5))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([4, 8, 16]),
    n_steps=st.integers(1, 5),
    n_cells=st.integers(2, 4),
)
def test_time_reversal_keeps_every_measure(seed, dim, n_steps, n_cells):
    """R starts from Psi(T) with steps U'_k = U_{T-1-k}^dagger, and maps
    (t, A) to (T - t, A). R's forward evolution to T - t retraces S's to t,
    so each of R's projections is U(T) times S's, and every M agrees."""
    forward, keys = haar_problem(seed, dim, n_steps, n_cells)
    reverse = QuantumStructure(
        dim, state_at(forward, n_steps).amplitudes,
        [step.matrix.conj().T for step in reversed(forward.schedule)], forward.cells,
    )
    tables = [
        process.pair_table(ssets, ssets)
        for process, ssets in (
            (forward, [SSet(t, region) for t, region in keys]),
            (reverse, [SSet(n_steps - t, region) for t, region in keys]),
        )
    ]
    m_forward, m_reverse = (table.m_big for table in tables)
    np.testing.assert_array_equal(np.isnan(m_forward), np.isnan(m_reverse))
    live = ~np.isnan(m_forward)
    norm_sq = np.minimum(*(
        np.maximum(t.row_norm_sq[:, None], t.col_norm_sq[None, :]) for t in tables
    ))
    tol = time_reversal_tolerance(dim, n_steps, np.sqrt(norm_sq[live]))
    assert np.all(np.abs(m_forward[live] - m_reverse[live]) <= tol)
    # A verdict may differ only where M lies within the tolerance of tau.
    typical = [table.typical(DEFAULT_THRESHOLD) for table in tables]
    flipped = (typical[0] != typical[1])[live]
    assert np.all(np.abs(m_forward[live][flipped] - DEFAULT_THRESHOLD) <= tol[flipped])
