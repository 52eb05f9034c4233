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


def measure_tolerance(dim, eps, norm):
    """A bound on |M - M'| between two tables whose computed vectors each lie
    within ``eps`` of exact vectors with the same norms and distances in
    both, for a pair whose larger computed norm is at least ``norm`` in both.

    For one table, with exact norms at most N and D = ||v - w|| <= 2N, the
    computed vectors give an M within 16 eps (N' + eps) / N'^2 of the exact
    M, N' being the larger computed norm; the table's own sums and the
    division add at most a relative gamma_{3d+5} to M <= 4. The two tables
    together are off by twice the sum, the second term doubled once more to
    cover reading N' from the computed squared norms.
    """
    return 2.0 * (16.0 * eps * (norm + eps) / norm**2 + 8.0 * gamma(3 * dim + 5))


def time_reversal_tolerance(dim, n_steps, norm):
    """``measure_tolerance`` for time reversal.

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
    """
    eps = (1.0 + math.sqrt(dim) * gamma(dim + 2)) ** (3 * n_steps) - 1.0
    return measure_tolerance(dim, eps, norm)


def phase_tolerance(structure, phase):
    """``measure_tolerance`` for one step multiplied by ``phase``, as a
    function of the norm.

    P is S with step k multiplied by c = ``phase``. A projection U(t)^dagger
    E U(t) psi0 passes step k forward and back, so in exact arithmetic P's is
    |c|^2 times S's for t > k and S's otherwise. Every stored step has ||U||_2^2 = ||U^dagger U||_2 <= 1 +
    d max|U^dagger U - 1|, the measured maximum short by at most 2
    gamma_{d+3}; call the bound a, and ||U||_F <= sqrt(d) a. P's step k is
    V = fl(cU), each entry within sqrt(2) gamma_2 relative (§3.6), so
    ``||V - cU||_2 <= sqrt(2) gamma_2 |c| sqrt(d) a`` and ``||fl(Vx) - cUx||
    <= (gamma_{d+2} ||V||_F + ||V - cU||_2) ||x||``. With A = a max(1, |c|)
    bounding every exact step, h = sqrt(d) A (gamma_{d+2} (1 + sqrt(2)
    gamma_2) + sqrt(2) gamma_2) bounds every step's relative error, S's
    sqrt(d) a gamma_{d+2} too, and a vector carried through n steps from psi0
    lies within n0 ((A + h)^n - A^n) of its exact value (induction on n),
    where n0^2 = 1 + slack(0) bounds ||psi0||^2; masks are exact and shrink
    both. A projection takes at most 2T steps, and |(|c|^2 - 1) x| adds
    at most | |c|^2 - 1 | n0 A^(2T), the squared modulus rounded within
    gamma_3. So both tables lie within eps of S's exact vectors.
    """
    d, n_steps = structure.dim, structure.n_steps
    a = max((math.sqrt(1.0 + d * (step.unitarity_defect() + 2.0 * gamma(d + 3)))
             for step in structure.schedule), default=1.0)
    modulus_sq = phase.real**2 + phase.imag**2
    big_a = a * max(1.0, math.sqrt(modulus_sq) * (1.0 + gamma(2)))
    product = math.sqrt(2.0) * gamma(2)
    h = math.sqrt(d) * big_a * (gamma(d + 2) * (1.0 + product) + product)
    n0 = math.sqrt(1.0 + structure._slack[0])
    rescale = abs(modulus_sq - 1.0) + gamma(3)
    eps = n0 * ((big_a + h) ** (2 * n_steps) - big_a ** (2 * n_steps)
                + rescale * big_a ** (2 * n_steps))
    return lambda norm: measure_tolerance(d, eps, norm)


def assert_tables_agree(tables, tolerance):
    """Every live M of the two tables within ``tolerance`` of each other, a
    function of the smaller of their larger computed norms; a verdict may
    differ only where M lies within it of tau."""
    m_first, m_second = (table.m_big for table in tables)
    np.testing.assert_array_equal(np.isnan(m_first), np.isnan(m_second))
    live = ~np.isnan(m_first)
    norm_sq = np.minimum(*(
        np.maximum(t.row_norm_sq[:, None], t.col_norm_sq[None, :]) for t in tables
    ))
    tol = tolerance(np.sqrt(norm_sq[live]))
    assert np.all(np.abs(m_first[live] - m_second[live]) <= tol)
    typical = [table.typical(DEFAULT_THRESHOLD) for table in tables]
    flipped = (typical[0] != typical[1])[live]
    assert np.all(np.abs(m_first[live][flipped] - DEFAULT_THRESHOLD) <= tol[flipped])


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
    assert_tables_agree(tables, lambda norm: time_reversal_tolerance(dim, n_steps, norm))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([4, 8, 16]),
    n_steps=st.integers(1, 5),
    n_cells=st.integers(2, 4),
    step=st.integers(0, 4),
    phi=st.floats(0.0, 2.0 * math.pi),
)
def test_a_phase_on_one_step_keeps_every_measure(seed, dim, n_steps, n_cells, step, phi):
    """P multiplies step k of S by c = e^{i phi}. Every projection passes
    step k forward and back or not at all, so every M agrees."""
    original, keys = haar_problem(seed, dim, n_steps, n_cells)
    k, phase = step % n_steps, complex(np.exp(1j * phi))
    phased = QuantumStructure(
        dim, original.psi0,
        [s.matrix * phase if j == k else s.matrix for j, s in enumerate(original.schedule)],
        original.cells,
    )
    ssets = [SSet(t, region) for t, region in keys]
    tables = [process.pair_table(ssets, ssets) for process in (original, phased)]
    assert_tables_agree(tables, phase_tolerance(original, phase))
