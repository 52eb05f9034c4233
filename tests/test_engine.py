"""The per-structure projection engine against dense oracles.

Structures cache their trajectory, region masks and Heisenberg-projected
initial vectors. Every value read through those caches is compared here with
an explicit product of dense ``U(t)`` matrices and diagonal projectors
(``conftest``), and every cached or swept value that the package documents
as bit for bit equal to the direct path is compared exactly. The audit,
which reads the Markov twin from two-time joint laws, must give exactly the
report of a reference audit that reads it through ``cylinder_measure``.
"""
import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtypicality import (
    CorrespondenceAudit,
    PartitionSchedule,
    QuantumStructure,
    SSet,
    StochasticProcessSpec,
    build_graph,
    build_unruh,
    chain_project,
    correspondence_audit,
    cylinder_measure,
    evolve,
    heisenberg_project,
    matched_markov_chain,
    mutual_typicality,
    mutual_typicality_measure_mu,
    obstacle_variant,
    occupations,
    state_at,
)
from qtypicality import core, stochastic
from qtypicality.core import (
    FactorUnitary,
    ProjectedVector,
    _cell_masses,
    project_initials,
)
from qtypicality.errors import ValidationError
from qtypicality.stochastic import NONADDITIVITY_WITNESS, REGIME_THRESHOLD

from conftest import (
    chain_oracle,
    evolution_operator,
    heisenberg_operator,
    random_unitary,
)

TOL = 1e-12
DIMS = (8, 16, 32)
N_STEPS, N_CELLS = 4, 4


def equal_cells(dim, n_cells):
    size = dim // n_cells
    return {f"c{c}": list(range(c * size, (c + 1) * size)) for c in range(n_cells)}


def random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def haar_structure(seed, dim):
    rng = np.random.default_rng([seed, dim])
    schedule = [random_unitary(rng, dim) for _ in range(N_STEPS)]
    return QuantumStructure(dim, random_state(rng, dim), schedule, equal_cells(dim, N_CELLS))


def near_classical_structure(seed, dim, angle=0.1):
    """Cell permutations times a small-angle unitary: branches stay typical."""
    rng = np.random.default_rng([seed, dim, 1])
    size = dim // N_CELLS
    schedule = []
    for _ in range(N_STEPS):
        perm = rng.permutation(N_CELLS)
        image = np.concatenate([np.arange(size) + perm[c] * size for c in range(N_CELLS)])
        p = np.zeros((dim, dim), dtype=complex)
        p[image, np.arange(dim)] = 1.0
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        w, v = np.linalg.eigh((z + z.conj().T) / 2.0)
        small = (v * np.exp(1j * angle * w / np.abs(w).max())) @ v.conj().T
        schedule.append(p @ small)
    return QuantumStructure(dim, random_state(rng, dim), schedule, equal_cells(dim, N_CELLS))


def dense_vector(structure, time, region):
    return heisenberg_operator(structure, SSet(time, region)) @ structure.psi0


def dense_measure(structure, s1, s2):
    """(M, |S1 psi0|^2, |S2 psi0|^2) by dense Heisenberg operators."""
    v1 = dense_vector(structure, s1.time, s1.region)
    v2 = dense_vector(structure, s2.time, s2.region)
    n1, n2 = float(np.vdot(v1, v1).real), float(np.vdot(v2, v2).real)
    diff = v1 - v2
    hi = max(n1, n2)
    m_big = float(np.vdot(diff, diff).real) / hi if hi >= 1e-14 else float("nan")
    return m_big, n1, n2


def dense_cylinder(spec, constraints):
    """initial . P_0 . K_0 . P_1 ... with explicit diagonal projector matrices."""
    by_time = {}
    for t, region in constraints:
        by_time[t] = by_time.get(t, frozenset(spec.states)) & frozenset(region)
    if not by_time:
        return 1.0
    row = spec.initial.copy()
    for t in range(max(by_time) + 1):
        region = by_time.get(t, frozenset(spec.states))
        proj = np.diag([1.0 if s in region else 0.0 for s in spec.states])
        row = row @ proj
        if t < max(by_time):
            row = row @ spec.kernels[t]
    return float(row.sum())


def uncached_cylinder(spec, ssets):
    """Masked propagation with masks built from the labels: the steps that
    ``cylinder_measure`` documents, in the same order."""
    by_time = {}
    for sset in ssets:
        mask = np.array([state in sset.region for state in spec.states])
        by_time[sset.time] = by_time.get(sset.time, np.ones_like(mask)) & mask
    if not by_time:
        return 1.0
    last = max(by_time)
    dist = spec.initial.copy()
    for t in range(last + 1):
        if t in by_time:
            dist = dist * by_time[t]
        if t < last:
            dist = dist @ spec.kernels[t]
    return float(dist.sum())


def dense_audit(q, c):
    """c3 error, c5 pairs in regime and c7 maximum defect, all dense."""
    labels = q.labels
    states = [evolution_operator(q, t) @ q.psi0 for t in q.times]
    c3 = 0.0
    for t in q.times:
        weights = np.abs(states[t]) ** 2
        for label in labels:
            mu = dense_cylinder(c, [(t, {label})])
            c3 = max(c3, abs(float(weights[q.cells[label]].sum()) - mu))

    full = frozenset(labels)
    regions = [frozenset({label}) for label in labels] + [full]
    ssets = [SSet(t, r) for t in q.times for r in regions]
    in_regime = 0
    for a, b in itertools.combinations(ssets, 2):
        m_q, n1, n2 = dense_measure(q, a, b)
        mu1 = dense_cylinder(c, [(a.time, a.region)])
        mu2 = dense_cylinder(c, [(b.time, b.region)])
        xor = dense_cylinder(c, [(a.time, a.region), (b.time, full - b.region)]) + dense_cylinder(
            c, [(a.time, full - a.region), (b.time, b.region)]
        )
        if max(n1, n2) < 1e-14 or max(mu1, mu2) < 1e-14:
            continue
        m_mu = xor / max(mu1, mu2)
        # The count is only well defined away from the threshold.
        assert abs(m_q - REGIME_THRESHOLD) > 1e-9 and abs(m_mu - REGIME_THRESHOLD) > 1e-9
        if m_q <= REGIME_THRESHOLD and m_mu <= REGIME_THRESHOLD:
            in_regime += 1

    c7 = 0.0
    for t1, t2 in itertools.combinations(q.times, 2):
        for label2 in labels:
            total = float(np.linalg.norm(dense_vector(q, t2, {label2})) ** 2)
            chained = sum(
                np.linalg.norm(chain_oracle(q, [SSet(t1, {lab}), SSet(t2, {label2})])) ** 2
                for lab in labels
            )
            c7 = max(c7, abs(total - chained))
    return c3, in_regime, c7


STRUCTURES = [
    pytest.param(haar_structure, seed, dim, id=f"haar-d{dim}-s{seed}")
    for dim in DIMS
    for seed in (1, 2)
] + [pytest.param(near_classical_structure, 3, dim, id=f"near-d{dim}") for dim in DIMS]


@pytest.mark.parametrize("make, seed, dim", STRUCTURES)
class TestAgainstDenseOracle:
    def test_correspondence_audit(self, make, seed, dim):
        q = make(seed, dim)
        c = matched_markov_chain(q)
        audit = correspondence_audit(q, c)
        c3, in_regime, c7 = dense_audit(q, c)
        assert audit.c3_max_error == pytest.approx(c3, abs=TOL)
        assert audit.c3_pass
        assert audit.c5_pairs_in_regime == in_regime
        assert audit.c5_agreements == in_regime
        assert audit.c7_max_defect == pytest.approx(c7, abs=TOL)
        assert (audit.c7_witness is not None) == (c7 > NONADDITIVITY_WITNESS)
        assert audit.c7_mu_additive

    def test_graph_links_and_paths(self, make, seed, dim):
        q = make(seed, dim)
        singletons = tuple({label} for label in q.labels)
        merged = ({"c0", "c1"}, {"c2"}, {"c3"})
        schedule = PartitionSchedule(
            [(1, singletons), (2, merged), (3, singletons), (4, singletons)]
        )
        g = build_graph(q, schedule)

        oracle_links = {}
        for si, sj in itertools.combinations(range(len(g.slices)), 2):
            for a in g.slices[si]:
                for b in g.slices[sj]:
                    na, nb = g.nodes[a], g.nodes[b]
                    if na.excluded or nb.excluded:
                        continue
                    s_a, s_b = SSet(na.time, na.region), SSet(nb.time, nb.region)
                    m, n1, n2 = dense_measure(q, s_a, s_b)
                    if max(n1, n2) >= 1e-14 and m <= 0.08:
                        oracle_links[a, b] = m
        assert {(a, b) for a, b, _ in g.links} == set(oracle_links)
        for a, b, m in g.links:
            assert m == pytest.approx(oracle_links[a, b], abs=TOL)

        candidates = [[i for i in s if not g.nodes[i].excluded] for s in g.slices]
        oracle_paths = [
            combo
            for combo in itertools.product(*candidates)
            if all((a in combo) == (b in combo) for a, b in oracle_links)
        ]
        assert list(g.paths) == oracle_paths
        for node in g.nodes:
            psi = evolution_operator(q, node.time) @ q.psi0
            mass = sum(float(np.sum(np.abs(psi[q.cells[lab]]) ** 2)) for lab in node.region)
            assert node.occupation == pytest.approx(mass, abs=TOL)

    def test_mutual_typicality(self, make, seed, dim):
        q = make(seed, dim)
        regions = [frozenset({label}) for label in q.labels] + [frozenset({"c0", "c2"})]
        ssets = [SSet(t, r) for t in q.times for r in regions]
        for s1, s2 in itertools.combinations(ssets, 2):
            report = mutual_typicality(q, s1, s2)
            m, n1, n2 = dense_measure(q, s1, s2)
            assert report.m_big == pytest.approx(m, abs=TOL)
            assert report.norm1_sq == pytest.approx(n1, abs=TOL)
            assert report.norm2_sq == pytest.approx(n2, abs=TOL)


class TestCachedEqualsUncached:
    @pytest.mark.parametrize("dim", DIMS)
    def test_chain_sweep_equals_chain_project_exactly(self, dim):
        for q in (haar_structure(5, dim), near_classical_structure(5, dim)):
            for t1 in q.times:
                sweep = [q.law(t1, t2) for t2 in range(t1 + 1, q.n_steps + 1)]
                assert len(sweep) == q.n_steps - t1
                for t2, masses in enumerate(sweep, start=t1 + 1):
                    assert masses.shape == (N_CELLS, N_CELLS)
                    assert not masses.flags.writeable
                    for row, label in zip(masses, q.labels):
                        chained = chain_project(q, [SSet(t1, {label})], at_time=t2)
                        np.testing.assert_array_equal(row, _cell_masses(q, chained.amplitudes))

    def test_project_initial_equals_heisenberg_project_exactly(self):
        q = haar_structure(6, 16)
        psi0 = ProjectedVector(q.psi0, 0)
        for t in q.times:
            for region in [{"c0"}, {"c1", "c2"}, set(q.labels)]:
                cached = project_initials(q, [SSet(t, region)])[0]
                assert cached.at_time == 0
                assert project_initials(q, [SSet(t, region)])[0] is cached
                direct = heisenberg_project(q, SSet(t, region), psi0)
                np.testing.assert_array_equal(cached.amplitudes, direct.amplitudes)

    def test_trajectory_equals_one_shot_evolution_exactly(self):
        q = haar_structure(7, 16)
        for t in (3, 1, 4, 0, 2):
            one_shot = evolve(q, ProjectedVector(q.psi0, 0), t)
            np.testing.assert_array_equal(state_at(q, t).amplitudes, one_shot.amplitudes)

    def test_cylinder_measure_is_exact(self):
        rng = np.random.default_rng(11)
        states = ["a", "b", "c"]
        kernels = [rng.dirichlet(np.ones(3), size=3) for _ in range(4)]
        initial = rng.dirichlet(np.ones(3))
        warm = StochasticProcessSpec(states, initial, kernels)
        families = [
            [SSet(int(t), rng.choice(states, size=int(rng.integers(1, 3)), replace=False))
             for t in rng.integers(0, 5, size=int(rng.integers(1, 4)))]
            for _ in range(60)
        ]
        for family in families:
            value = cylinder_measure(warm, family)
            assert value == uncached_cylinder(warm, family)
            assert value == pytest.approx(
                dense_cylinder(warm, [(s.time, s.region) for s in family]), abs=1e-15
            )


def complex_normal(rng, shape):
    """Complex entries spread over many magnitudes, so rounding shows."""
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** rng.uniform(-4, 4)


@st.composite
def stacked_steps(draw):
    """A dense step of dimension 1-64, or a factor step of 2-3 factors,
    with a stack of 0-8 rows (or a two-axis stack) and a direction."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 64))
        step = FactorUnitary(complex_normal(rng, (dim, dim)), 0, 1)
    else:
        base, num_factors = draw(st.integers(1, 4)), draw(st.integers(2, 3))
        index = draw(st.integers(0, num_factors - 1))
        step = FactorUnitary(complex_normal(rng, (base, base)), index, num_factors)
    rows = draw(st.sampled_from([(n,) for n in range(9)] + [(2, 3), (0, 2)]))
    return step, complex_normal(rng, rows + (step.dim,)), draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(stacked_steps())
def test_stacked_apply_equals_one_vector_apply_exactly(problem):
    step, vecs, adjoint = problem
    out = step.apply(vecs, adjoint)
    assert out.shape == vecs.shape
    m = step.matrix
    for vec, row in zip(vecs.reshape(-1, step.dim), out.reshape(-1, step.dim)):
        assert row.tobytes() == step.apply(vec.copy(), adjoint).tobytes()
        if step.num_factors == 1:  # one plain matrix-vector product per row
            plain = (vec.conj() @ m).conj() if adjoint else m @ vec
            assert row.tobytes() == plain.tobytes()


def factored_structure(seed):
    """Three qubit factors, each step acting on one of them."""
    rng = np.random.default_rng([seed, 2])
    schedule = [FactorUnitary(random_unitary(rng, 2), k % 3, 3) for k in range(N_STEPS)]
    return QuantumStructure(8, random_state(rng, 8), schedule, equal_cells(8, N_CELLS))


@st.composite
def projection_lists(draw):
    """A fresh structure, s-sets to cache first, and a list of s-sets in any
    order with repeats, over several times."""
    make = draw(st.sampled_from([lambda s: haar_structure(s, 16), factored_structure]))
    q = make(draw(st.integers(0, 3)))
    regions = st.sets(st.sampled_from(q.labels), min_size=1).map(frozenset)
    ssets = st.builds(SSet, st.sampled_from(q.times), regions)
    return q, draw(st.lists(ssets, max_size=4)), draw(st.lists(ssets, max_size=12))


@settings(max_examples=150, deadline=None)
@given(projection_lists())
def test_stacked_projections_equal_heisenberg_project_exactly(problem):
    q, warm, ssets = problem
    for sset in warm:
        project_initials(q, [sset])[0]
    got = project_initials(q, ssets)
    assert len(got) == len(ssets)
    psi0 = ProjectedVector(q.psi0, 0)
    for sset, vec in zip(ssets, got):
        assert vec.at_time == 0
        assert not vec.amplitudes.flags.writeable
        direct = heisenberg_project(q, sset, psi0)
        assert vec.amplitudes.tobytes() == direct.amplitudes.tobytes()
    for (a, va), (b, vb) in itertools.combinations(zip(ssets, got), 2):
        assert (va is vb) == (a == b)
    again = project_initials(q, ssets[::-1])
    assert all(x is y for x, y in zip(again, got[::-1]))
    assert project_initials(q, []) == []


@st.composite
def cell_mass_problems(draw):
    """A cell table of unequal sizes (singletons among them), scattered
    indices and labels in any order, and a stack of vectors or one vector."""
    dim = draw(st.integers(1, 300))
    order = draw(st.permutations(range(dim)))
    cuts = sorted(draw(st.sets(st.integers(1, dim - 1), max_size=12)) if dim > 1 else [])
    parts = [order[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, dim])]
    names = draw(st.permutations([f"c{k}" for k in range(len(parts))]))
    cells = dict(zip(names, parts))
    seed = draw(st.integers(0, 2**32 - 1))
    shape = draw(st.sampled_from([(), (1,), (2,), (3,), (4,), (5,), (6,)])) + (dim,)
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-8, 8, size=shape)
    vecs = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale
    return core.CellProcess(dim, cells, 0), vecs


@settings(max_examples=200, deadline=None)
@given(cell_mass_problems())
def test_cell_masses_equal_per_cell_sums_exactly(problem):
    process, vecs = problem
    masses = _cell_masses(process, vecs)
    assert masses.shape == vecs.shape[:-1] + (len(process.labels),)
    for v, row in zip(vecs.reshape(-1, process.dim), masses.reshape(-1, len(process.labels))):
        expected = [np.sum((np.abs(v) ** 2)[process.cells[label]]) for label in process.labels]
        assert row.tobytes() == np.array(expected).tobytes()


def reference_audit(q, c):
    """The audit with every twin value read through ``cylinder_measure``.

    The formulas are those the audit used before its forward sweeps: one
    cylinder per single-set measure, two per symmetric difference, one per
    additivity term. The chained quantum masses of c7 are read one
    ``chain_project`` per (t1, cell, t2) and summed left to right.
    """
    c3_max = 0.0
    for t in q.times:
        occ = occupations(q, t)
        for label in q.labels:
            mu = cylinder_measure(c, [SSet(t, {label})])
            c3_max = max(c3_max, abs(occ[label] - mu))

    full = frozenset(q.labels)
    regions = [frozenset({label}) for label in q.labels] + [full]
    ssets = [SSet(t, r) for t in q.times for r in regions]
    in_regime = agreements = 0
    for a, b in itertools.combinations(ssets, 2):
        rep_q = mutual_typicality(q, a, b, threshold=REGIME_THRESHOLD)
        xor = cylinder_measure(c, [a, SSet(b.time, full - b.region)]) + cylinder_measure(
            c, [SSet(a.time, full - a.region), b]
        )
        rep_mu = mutual_typicality_measure_mu(
            cylinder_measure(c, [a]), cylinder_measure(c, [b]), xor, REGIME_THRESHOLD
        )
        if rep_q.degenerate or rep_mu.degenerate:
            continue
        if rep_q.m_big <= REGIME_THRESHOLD and rep_mu.m_big <= REGIME_THRESHOLD:
            in_regime += 1
            agreements += rep_q.verdict is rep_mu.verdict

    mu_additive, max_defect, candidates = True, 0.0, []
    for t1, t2 in itertools.combinations(q.times, 2):
        rows = [
            _cell_masses(q, chain_project(q, [SSet(t1, {lab})], at_time=t2).amplitudes)
            for lab in q.labels
        ]
        for j, label2 in enumerate(q.labels):
            chained_sum = 0.0
            for row in rows:  # left to right, in label order
                chained_sum += row[j]
            total = occupations(q, t2)[label2]
            defect = abs(total - chained_sum)
            max_defect = max(max_defect, defect)
            candidates.append((t1, t2, label2, total, chained_sum, defect))
            s2c = SSet(t2, {label2})
            mu_sum = sum(cylinder_measure(c, [SSet(t1, {lab}), s2c]) for lab in q.labels)
            if abs(cylinder_measure(c, [s2c]) - mu_sum) > 1e-12:
                mu_additive = False
    # The witness: among the defects within a relative 1e-12 of the largest,
    # the earliest (t1, t2), then the label that sorts first.
    witness = None
    if max_defect > NONADDITIVITY_WITNESS:
        near = [c for c in candidates if c[5] >= max_defect * (1.0 - 1e-12)]
        t1, t2, label2, total, chained_sum, _ = min(near, key=lambda c: c[:3])
        witness = {
            "t1": t1,
            "t2": t2,
            "region2": [label2],
            "quantum_total": total,
            "quantum_termwise_sum": chained_sum,
        }
    return CorrespondenceAudit(
        c3_max, c3_max <= stochastic.MARGINAL_TOL, in_regime, agreements,
        in_regime == agreements, mu_additive, max_defect, witness,
    )


def outcome(audit, q, c):
    """The audit's report, or the type and text of the error it raises."""
    try:
        return audit(q, c).to_dict()
    except Exception as exc:  # compared as data below
        return type(exc).__name__, str(exc)


def random_chain(rng, labels, n_steps):
    """A Markov chain on ``labels`` in shuffled order, with zero entries and
    absorbing states."""
    states = list(rng.permutation(labels))
    n = len(states)

    def row():
        p = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.7)
        if rng.random() < 0.2 or not p.any():
            p = np.eye(n)[rng.integers(n)]  # all mass on one state
        return p / p.sum()

    return StochasticProcessSpec(states, row(), [[row() for _ in range(n)] for _ in range(n_steps)])


@st.composite
def audit_problems(draw):
    """A small Haar structure and a random twin on its labels and step count."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_cells = draw(st.integers(2, 4))
    n_steps = draw(st.integers(0, 4))
    rng = np.random.default_rng(seed)
    dim = n_cells * draw(st.integers(1, 2))
    q = QuantumStructure(
        dim, random_state(rng, dim), [random_unitary(rng, dim) for _ in range(n_steps)],
        equal_cells(dim, n_cells),
    )
    return q, random_chain(rng, list(q.labels), n_steps)


class TestAuditSweeps:
    """The audit's twin values, read from its joint laws, against ``reference_audit``."""

    @settings(max_examples=60, deadline=None)
    @given(audit_problems())
    def test_sweeps_equal_cylinder_measure_exactly(self, problem):
        q, c = problem
        assert outcome(correspondence_audit, q, c) == outcome(reference_audit, q, c)

    def test_accumulated_row_sum_slack_rejected(self):
        # Each row is within the twin's 1e-12 row-sum check, and the full-region
        # mass after one step, 1 + 1.8e-12, within its slack, so the measures
        # pass; the audit rejects the twin on c3 alone.
        slack = 0.5 + 0.9e-12
        c = StochasticProcessSpec(["U", "D"], [slack, 0.5], [[[slack, 0.5], [0.5, slack]]] * 3)
        assert c.occupations(1).sum() == 1.0000000000018
        assert correspondence_audit(build_unruh().structure, c).failed == ("c3",)

    def test_audit_calls_no_cylinder_measure(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the audit reads the twin from its joint laws")

        for name in ("cylinder_measure", "mu_sset", "mu_symmetric_difference", "mu_typicality"):
            monkeypatch.setattr(stochastic, name, forbidden)
        q = near_classical_structure(3, 16)
        audit = correspondence_audit(q, matched_markov_chain(q))
        assert audit.passed and audit.c5_pairs_in_regime > 0


C5_STRUCTURES = [
    pytest.param(lambda: haar_structure(1, 16), id="haar"),
    pytest.param(lambda: near_classical_structure(3, 16), id="near-classical"),
    pytest.param(lambda: build_unruh().structure, id="unruh"),
    pytest.param(lambda: obstacle_variant("U1").structure, id="obstacle-U1"),
]


@pytest.mark.parametrize("make", C5_STRUCTURES)
def test_c5_tables_count_what_the_pair_loop_counts(make):
    # reference_audit judges each c5 pair by its own two reports.
    q = make()
    c = matched_markov_chain(q)
    expected = reference_audit(q, c)
    audit = correspondence_audit(q, c)
    assert audit.c5_pairs_in_regime == expected.c5_pairs_in_regime > 0
    assert audit.to_dict() == expected.to_dict()


def per_branch_twin(q):
    """The twin's initial law and kernels, one branch at a time: mask one
    cell, evolve it one step, read its cell masses, divide by its mass."""
    n = len(q.labels)
    states = [state_at(q, t).amplitudes for t in q.times]
    occs = [_cell_masses(q, psi) for psi in states]
    kernels = []
    for t in range(q.n_steps):
        kernel = np.empty((n, n))
        for i, label in enumerate(q.labels):
            branch = states[t] * q.region_mask([label])
            mass = float(np.vdot(branch, branch).real)
            if mass < 1e-14:
                kernel[i] = occs[t + 1]
                continue
            moved = evolve(q, ProjectedVector(branch, t), t + 1)
            kernel[i] = _cell_masses(q, moved.amplitudes) / mass
        if np.abs(occs[t] @ kernel - occs[t + 1]).max() > stochastic.MARGINAL_TOL:
            kernel = np.tile(occs[t + 1], (n, 1))
        kernels.append(kernel)
    return occs[0], kernels


@pytest.mark.parametrize(
    "make",
    C5_STRUCTURES + [pytest.param(lambda: obstacle_variant("D1").structure, id="obstacle-D1")],
)
def test_twin_kernels_equal_the_per_branch_loop(make):
    q = make()
    initial, kernels = per_branch_twin(q)
    twin = matched_markov_chain(q)
    assert twin.initial.tobytes() == initial.tobytes()
    assert [k.tobytes() for k in twin.kernels] == [k.tobytes() for k in kernels]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([
        lambda s: haar_structure(s, 16),
        lambda s: near_classical_structure(s, 16),
        lambda s: near_classical_structure(s, 16, angle=0.0),  # every transfer kept
        factored_structure,
    ]),
    st.integers(0, 2**16),
)
def test_twin_is_a_function_of_the_two_time_laws(make, seed):
    # A step either keeps the transfer, row i = law(t, t + 1)[i] / law(t, t)[i, i]
    # on live branches, or takes the next occupations on every row; it keeps
    # it exactly when the twin's marginal through it stays within MARGINAL_TOL.
    q = make(seed)
    twin = matched_markov_chain(q)
    assert twin.initial.tobytes() == q.law(0, 0).diagonal().tobytes()
    for t, kernel in enumerate(twin.kernels):
        mass, following = q.law(t, t).diagonal(), q.law(t + 1, t + 1).diagonal()
        transfer = np.array([
            q.law(t, t + 1)[i] / m if m >= 1e-14 else following for i, m in enumerate(mass)
        ])
        kept = np.abs(twin.marginal(t) @ transfer - following).max() <= stochastic.MARGINAL_TOL
        expected = transfer if kept else np.tile(following, (len(mass), 1))
        assert kernel.tobytes() == expected.tobytes(), (t, kept)


class TestCacheIsolation:
    def test_structures_never_share_entries(self):
        rng = np.random.default_rng(3)
        schedule = [random_unitary(rng, 8) for _ in range(3)]
        a = QuantumStructure(8, random_state(rng, 8), schedule, equal_cells(8, 4))
        mirrored = {"c0": [0, 7], "c1": [1, 6], "c2": [2, 5], "c3": [3, 4]}
        b = QuantumStructure(8, random_state(rng, 8), schedule, mirrored)
        assert a._projections is not b._projections
        assert a._masks is not b._masks
        assert a._trajectory is not b._trajectory
        for _ in range(2):  # interleaved, then from the filled caches
            for s in (SSet(2, {"c0"}), SSet(3, {"c1", "c3"})):
                for q in (a, b):
                    np.testing.assert_allclose(
                        project_initials(q, [s])[0].amplitudes,
                        heisenberg_operator(q, s) @ q.psi0,
                        atol=TOL,
                    )
        assert not np.array_equal(a.region_mask({"c0"}), b.region_mask({"c0"}))
        assert occupations(a, 2) != occupations(b, 2)

    def test_processes_never_share_entries(self):
        kernel_a = np.array([[0.9, 0.1], [0.2, 0.8]])
        kernel_b = np.array([[0.5, 0.5], [0.5, 0.5]])
        a = StochasticProcessSpec(["x", "y"], [0.3, 0.7], [kernel_a, kernel_a])
        b = StochasticProcessSpec(["x", "y"], [0.3, 0.7], [kernel_b, kernel_b])
        family = [SSet(0, {"x"}), SSet(2, {"y"})]
        for spec in (a, b, a, b):  # interleaved, then from the filled caches
            expected = dense_cylinder(spec, [(0, {"x"}), (2, {"y"})])
            assert cylinder_measure(spec, family) == pytest.approx(expected, abs=1e-15)
        assert cylinder_measure(a, family) != cylinder_measure(b, family)
        assert a._masks is not b._masks


    def test_threads_filling_one_structure_agree(self):
        reference = haar_structure(8, 16)
        expected = {
            (t, lab): project_initials(reference, [SSet(t, {lab})])[0].amplitudes
            for t in reference.times
            for lab in reference.labels
        }
        shared = haar_structure(8, 16)
        errors = []

        def work(order):
            try:
                for t, lab in order:
                    got = project_initials(shared, [SSet(t, {lab})])[0].amplitudes
                    if not np.array_equal(got, expected[t, lab]):
                        errors.append((t, lab))
            except Exception as exc:  # reported through the assertion below
                errors.append(exc)

        keys = list(expected)
        rng = np.random.default_rng(9)
        threads = [
            threading.Thread(target=work, args=([keys[i] for i in rng.permutation(len(keys))],))
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []


class TestFrozenInputs:
    def test_structure_arrays_are_read_only_copies(self):
        rng = np.random.default_rng(4)
        psi0 = random_state(rng, 4)
        step = random_unitary(rng, 4)
        q = QuantumStructure(4, psi0, [step], {"a": [0, 1], "b": [2, 3]})
        before = project_initials(q, [SSet(1, {"a"})])[0].amplitudes.copy()
        psi0[0] = 0.0  # the caller's arrays are not the structure's
        step[0, 0] = 0.0
        np.testing.assert_array_equal(project_initials(q, [SSet(1, {"a"})])[0].amplitudes, before)
        for arr in (q.psi0, q.schedule[0].matrix, q.cells["a"], q.region_mask({"a"}),
                    state_at(q, 1).amplitudes, project_initials(q, [SSet(1, {"a"})])[0].amplitudes):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_process_arrays_are_read_only(self):
        spec = StochasticProcessSpec(["x", "y"], [0.5, 0.5], [np.eye(2)])
        for arr in (spec.initial, spec.kernels[0], spec.region_mask({"x"})):
            with pytest.raises(ValueError):
                arr[0] = 0
