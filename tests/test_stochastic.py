import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtypicality import (
    QuantumStructure,
    SSet,
    SchemaError,
    StochasticProcessSpec,
    TimeRangeError,
    ValidationError,
    build_beamsplitter_fig1,
    build_unruh,
    cylinder_measure,
    matched_markov_chain,
    mu_sset,
    mu_symmetric_difference,
    mu_typicality,
    occupations,
    process_from_dict,
    process_to_dict,
)
from qtypicality import core
from qtypicality import correspondence_audit as _correspondence_audit
from qtypicality import obstacle_variant


def correspondence_audit(q, c):
    """The audit, with its c7 witness checked against its maximum defect: a
    witness's defect is within a relative 1e-12 of the largest."""
    audit = _correspondence_audit(q, c)
    witness = audit.c7_witness
    if witness is not None:
        gap = abs(witness["quantum_total"] - witness["quantum_termwise_sum"])
        assert audit.c7_max_defect * (1.0 - 1e-12) <= gap <= audit.c7_max_defect
    return audit


IDENTITY2 = np.eye(2)
MIXING2 = np.full((2, 2), 0.5)


@pytest.fixture
def identity_chain():
    return StochasticProcessSpec(["U", "D"], [0.5, 0.5], [IDENTITY2, IDENTITY2])


@pytest.fixture
def mixing_chain():
    return StochasticProcessSpec(["U", "D"], [1.0, 0.0], [MIXING2, MIXING2])


class TestSpecValidation:
    def test_duplicate_labels(self):
        with pytest.raises(ValidationError):
            StochasticProcessSpec(["U", "U"], [0.5, 0.5], [IDENTITY2])

    @pytest.mark.parametrize(
        "states, initial, message",
        [
            (["U", "U"], [0.5, 0.5], "duplicate state labels"),
            (["U", "U"], [1.0], "duplicate state labels"),
            ([], [], "initial distribution is not a probability vector"),
            ([], [1.0], "initial distribution has wrong length"),
            (["U"], [0.5, 0.5], "initial distribution has wrong length"),
            (["U", "D", "X"], [0.5, 0.5], "initial distribution has wrong length"),
        ],
        ids=["duplicate", "duplicate-wrong-length", "empty", "empty-wrong-length",
             "short", "long"],
    )
    def test_bad_states_rejected_before_the_cell_table(self, states, initial, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            StochasticProcessSpec(states, initial, [np.eye(3)])

    def test_bad_initial(self):
        with pytest.raises(ValidationError):
            StochasticProcessSpec(["U", "D"], [0.7, 0.7], [IDENTITY2])
        with pytest.raises(ValidationError):
            StochasticProcessSpec(["U", "D"], [1.5, -0.5], [IDENTITY2])

    def test_bad_kernel(self):
        with pytest.raises(ValidationError):
            StochasticProcessSpec(["U", "D"], [0.5, 0.5], [np.ones((2, 2))])
        with pytest.raises(ValidationError):
            StochasticProcessSpec(["U", "D"], [0.5, 0.5], [np.eye(3)])

    def test_integer_beyond_float_range_is_named(self):
        with pytest.raises(ValidationError, match="initial distribution has an integer entry"):
            StochasticProcessSpec(["a", "b"], [10**400, 0], [])
        with pytest.raises(ValidationError, match="kernel 1 has an integer entry beyond"):
            StochasticProcessSpec(["a", "b"], [1, 0], [IDENTITY2, [[1, 0], [10**400, 0]]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries(self, bad):
        with pytest.raises(ValidationError, match="initial distribution has non-finite"):
            StochasticProcessSpec(["U", "D"], [bad, 0.0], [IDENTITY2])
        kernel = np.array(IDENTITY2, dtype=float)
        kernel[1, 0] = bad
        with pytest.raises(ValidationError, match="kernel 1 has non-finite"):
            StochasticProcessSpec(["U", "D"], [1.0, 0.0], [IDENTITY2, kernel])

    def test_marginal_time_range(self, identity_chain):
        with pytest.raises(TimeRangeError):
            identity_chain.marginal(3)

    @pytest.mark.parametrize("time", [1.5, -0.5, math.nan, math.inf, True, np.bool_(False)])
    def test_non_integral_time_rejected(self, identity_chain, time):
        # 1.5 once raised a raw TypeError from range(), and True read time 1.
        with pytest.raises(ValidationError, match="time index .* is not an integer"):
            identity_chain.check_time(time)
        with pytest.raises(ValidationError, match="time index .* is not an integer"):
            identity_chain.marginal(time)

    @pytest.mark.parametrize("time", [2, 2.0, np.int64(2), np.float64(2.0)])
    def test_integral_time_accepted(self, mixing_chain, time):
        assert mixing_chain.check_time(time) == 2
        assert type(mixing_chain.check_time(time)) is int
        np.testing.assert_array_equal(mixing_chain.marginal(time), [0.5, 0.5])

    @pytest.mark.parametrize("time", [3, -1])
    def test_check_time_range(self, identity_chain, time):
        with pytest.raises(TimeRangeError, match=f"time index {time} outside 0..2"):
            identity_chain.check_time(time)


class TestCylinderMeasure:
    def test_empty_family_is_one(self, identity_chain):
        assert cylinder_measure(identity_chain, []) == 1.0

    def test_identity_kernel_diagonal(self, identity_chain):
        same = [SSet(0, {"U"}), SSet(2, {"U"})]
        crossed = [SSet(0, {"U"}), SSet(2, {"D"})]
        assert cylinder_measure(identity_chain, same) == pytest.approx(0.5)
        assert cylinder_measure(identity_chain, crossed) == 0.0

    def test_mixing_kernel(self, mixing_chain):
        assert mu_sset(mixing_chain, SSet(1, {"U"})) == pytest.approx(0.5)
        assert cylinder_measure(
            mixing_chain, [SSet(1, {"U"}), SSet(2, {"D"})]
        ) == pytest.approx(0.25)

    def test_equal_time_regions_intersect(self, identity_chain):
        measure = cylinder_measure(identity_chain, [SSet(1, {"U", "D"}), SSet(1, {"U"})])
        assert measure == pytest.approx(0.5)

    def test_additivity_over_first_slot(self, mixing_chain):
        s2 = SSet(2, {"U"})
        total = mu_sset(mixing_chain, s2)
        split = sum(
            cylinder_measure(mixing_chain, [SSet(1, {lab}), s2]) for lab in ("U", "D")
        )
        assert total == pytest.approx(split, abs=1e-14)

    def test_kolmogorov_consistency(self, mixing_chain):
        # summing out an intermediate full-space constraint changes nothing
        base = cylinder_measure(mixing_chain, [SSet(0, {"U"}), SSet(2, {"D"})])
        padded = cylinder_measure(
            mixing_chain, [SSet(0, {"U"}), SSet(1, {"U", "D"}), SSet(2, {"D"})]
        )
        assert base == pytest.approx(padded, abs=1e-14)

    def test_time_out_of_range(self, identity_chain):
        with pytest.raises(TimeRangeError):
            cylinder_measure(identity_chain, [SSet(5, {"U"})])

    def test_unknown_state(self, identity_chain):
        with pytest.raises(SchemaError):
            cylinder_measure(identity_chain, [SSet(1, {"X"})])


class TestSymmetricDifference:
    def test_identical_ssets(self, mixing_chain):
        s = SSet(1, {"U"})
        assert mu_symmetric_difference(mixing_chain, s, s) == 0.0

    def test_equal_time_complement(self, mixing_chain):
        sd = mu_symmetric_difference(mixing_chain, SSet(1, {"U"}), SSet(1, {"D"}))
        assert sd == pytest.approx(1.0)

    def test_report_values(self, identity_chain):
        report = mu_typicality(identity_chain, SSet(0, {"U"}), SSet(2, {"U"}))
        assert report.m_big == 0.0
        assert report.norm1_sq == pytest.approx(0.5)


LABELS = ("a", "b", "c", "d")


@st.composite
def twin_tables(draw):
    """A random chain, its states a permutation of the labels, with zero
    entries and absorbing states; row and column s-set lists with repeated
    times, empty, singleton and full regions, and empty sides."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, n_steps = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    labels = LABELS[:n]

    def law():
        p = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.7)
        return p / p.sum() if p.any() else np.eye(n)[rng.integers(n)]

    chain = StochasticProcessSpec(
        draw(st.permutations(labels)), law(), [[law() for _ in range(n)] for _ in range(n_steps)]
    )
    region = st.one_of(
        st.just(frozenset()), st.just(frozenset(labels)),
        st.sampled_from(labels).map(lambda label: frozenset({label})),
        st.frozensets(st.sampled_from(labels)),
    )
    ssets = st.lists(st.builds(SSet, st.integers(0, n_steps), region), max_size=5)
    return chain, draw(ssets), draw(ssets), draw(st.floats(0.01, 0.99))


def report_bits(report):
    return tuple(repr(v) for v in dataclasses.astuple(report))


class TestTwinPairTable:
    """The twin's ``pair_table`` against ``cylinder_measure`` sums, and its
    one-pair helpers against its entries."""

    @settings(max_examples=150, deadline=None)
    @given(twin_tables())
    def test_table_equals_cylinder_sums(self, problem):
        chain, rows, cols, threshold = problem
        table = chain.pair_table(rows, cols)
        assert table.diff_sq.shape == (len(rows), len(cols))
        everything = frozenset(chain.labels)

        def outside(x):
            return SSet(x.time, everything - x.region)

        for masses, ssets in ((table.row_norm_sq, rows), (table.col_norm_sq, cols)):
            for mass, x in zip(masses.tolist(), ssets):
                assert mass == pytest.approx(cylinder_measure(chain, [x]), abs=1e-12)
                assert mass == mu_sset(chain, x)
        for (i, r), (j, c) in itertools.product(enumerate(rows), enumerate(cols)):
            xor = cylinder_measure(chain, [r, outside(c)]) + cylinder_measure(chain, [outside(r), c])
            assert table.diff_sq[i, j] == pytest.approx(xor, abs=1e-12)
            assert table.diff_sq[i, j] == mu_symmetric_difference(chain, r, c)
            one = mu_typicality(chain, r, c, threshold)
            assert report_bits(one) == report_bits(table.report(i, j, threshold))

    @settings(max_examples=50, deadline=None)
    @given(twin_tables())
    def test_table_of_a_list_against_itself_is_symmetric(self, problem):
        chain, rows, _, _ = problem
        diff_sq = chain.pair_table(rows, rows).diff_sq
        assert np.array_equal(diff_sq, diff_sq.T)
        assert not np.diagonal(diff_sq).any()

    @staticmethod
    def random_chain(seed, n, n_steps):
        """A chain of ``n`` states with dense random kernels, and the audit's
        s-sets: every singleton and the full region at every time."""
        rng = np.random.default_rng(seed)
        labels = [f"c{i}" for i in range(n)]
        kernels = [rng.dirichlet(np.ones(n), size=n) for _ in range(n_steps)]
        chain = StochasticProcessSpec(labels, rng.dirichlet(np.ones(n)), kernels)
        regions = [frozenset({label}) for label in labels] + [frozenset(labels)]
        return chain, [SSet(t, r) for t in chain.times for r in regions]

    def test_entries_equal_the_one_pair_reports_across_blocks(self):
        chain, ssets = self.random_chain(3, n=16, n_steps=4)
        rows, cols = ssets[::2], ssets[1::3]
        # Several blocks of rows, the last one short.
        block_rows = core.PAIR_BLOCK_ENTRIES // (len(chain.times) * chain.dim**2)
        assert 1 < block_rows < len(rows) and len(rows) % block_rows
        table = chain.pair_table(rows, cols)
        for (i, r), (j, c) in itertools.product(enumerate(rows), enumerate(cols)):
            assert report_bits(table.report(i, j, 0.3)) == report_bits(mu_typicality(chain, r, c, 0.3))

    def test_working_memory_does_not_grow_with_the_table(self):
        """A 363 x 363 table of a 32-state chain: one block of law products
        per row, where all of them at once would take about 1 GB."""
        chain, ssets = self.random_chain(5, n=32, n_steps=10)
        tracemalloc.start()
        try:
            chain.pair_table(ssets, ssets)
            chain.pair_table(ssets, ssets[::-1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_occupations_are_the_marginals(self, mixing_chain):
        for t in mixing_chain.times:
            assert mixing_chain.occupations(t).tolist() == mixing_chain.marginal(t).tolist()
        assert occupations(mixing_chain, 1) == {"U": 0.5, "D": 0.5}

    def test_laws_are_cached_read_only(self, mixing_chain):
        law = mixing_chain.law(0, 2)
        assert np.shares_memory(law, mixing_chain.law(0, 2))
        assert law.shape == (2, 2) and not law.flags.writeable
        assert not mixing_chain.law(2, 0).flags.writeable
        np.testing.assert_array_equal(mixing_chain.law(2, 0), law.T)

    def test_queries_build_only_the_laws_they_read(self, mixing_chain):
        """Region masses read the marginals alone; a pair builds the laws
        from its earlier time only."""
        mu_sset(mixing_chain, SSet(2, {"U"}))
        mixing_chain.pair_table([SSet(1, {"U"}), SSet(2, {"D"})], [])
        assert mixing_chain._laws == {}
        mu_symmetric_difference(mixing_chain, SSet(2, {"U"}), SSet(1, {"D"}))
        assert list(mixing_chain._laws) == [1] and len(mixing_chain._laws[1]) == 2

    @settings(max_examples=50, deadline=None)
    @given(twin_tables(), st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8))
    def test_laws_do_not_depend_on_request_order(self, problem, warm):
        """Whatever was requested before, a law has the bits of
        ``diag(marginal(s))`` times the kernels from ``s`` to ``t``."""
        chain = problem[0]
        for s, t in warm:
            if max(s, t) <= chain.n_steps:
                chain.law(s, t)
        for s, t in itertools.product(chain.times, repeat=2):
            lo, hi = min(s, t), max(s, t)
            law = functools.reduce(np.matmul, chain.kernels[lo:hi], np.diag(chain.marginal(lo)))
            assert chain.law(s, t).tobytes() == (law if s <= t else law.T).tobytes()


class TestMatchedChain:
    def test_unruh_marginals_match(self):
        structure = build_unruh().structure
        chain = matched_markov_chain(structure)
        for t in structure.times:
            occ = occupations(structure, t)
            marginal = chain.marginal(t)
            for i, label in enumerate(chain.states):
                assert marginal[i] == pytest.approx(occ[label], abs=1e-10)

    def test_beamsplitter_transfer_kernel(self):
        structure = build_beamsplitter_fig1()
        chain = matched_markov_chain(structure)
        # first step splits evenly, second step is which-way deterministic
        np.testing.assert_allclose(chain.kernels[0][0], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(chain.kernels[1], np.eye(2), atol=1e-12)

    def test_fig1_matched_measure_agrees_with_chained_norm(self):
        structure = build_beamsplitter_fig1()
        chain = matched_markov_chain(structure)
        from qtypicality import chain_project

        for arm in ("A", "B"):
            ssets = [SSet(1, {arm}), SSet(2, {arm})]
            assert cylinder_measure(chain, ssets) == pytest.approx(
                chain_project(structure, ssets).norm_sq, abs=1e-12
            )


class TestSharedCellSpace:
    def test_unknown_label_is_named(self, identity_chain):
        with pytest.raises(SchemaError, match=r"^unknown cell label 'X'$"):
            cylinder_measure(identity_chain, [SSet(1, {"U"}), SSet(2, {"X"})])
        with pytest.raises(SchemaError, match=r"^unknown cell label 'X'$"):
            identity_chain.region_mask({"X"})

    @pytest.mark.parametrize(
        "model",
        [lambda: build_unruh().structure, lambda: obstacle_variant("D1").structure,
         build_beamsplitter_fig1],
        ids=["unruh", "obstacle-D1", "fig1"],
    )
    def test_twin_has_the_structure_cell_space(self, model):
        q = model()
        c = matched_markov_chain(q)
        assert c.labels == c.states == q.labels
        assert c.times == q.times and c.n_steps == q.n_steps
        assert c.dim == len(c.labels)
        one_hot = np.eye(c.dim, dtype=bool)
        for i, label in enumerate(c.labels):
            assert c.cells[label].tolist() == [i]
            np.testing.assert_array_equal(c.region_mask({label}), one_hot[i])


class TestCorrespondenceAudit:
    def test_unruh_audit(self):
        structure = build_unruh().structure
        audit = correspondence_audit(structure, matched_markov_chain(structure))
        assert audit.c3_pass and audit.c3_max_error <= 1e-10
        assert audit.c5_pass
        assert audit.c7_mu_additive
        # the interferometer is the canonical nonadditivity witness
        assert audit.c7_witness is not None
        assert audit.c7_max_defect == pytest.approx(0.5, abs=1e-12)
        assert audit.passed

    @pytest.mark.parametrize(
        "model",
        [lambda: build_unruh(with_detector_d2=True), lambda: obstacle_variant("U1"),
         lambda: obstacle_variant("D1")],
        ids=["detector-d2", "obstacle-U1", "obstacle-D1"],
    )
    def test_variant_audits_carry_a_witness(self, model):
        # The module's correspondence_audit checks the witness's two masses.
        structure = model().structure
        audit = correspondence_audit(structure, matched_markov_chain(structure))
        assert audit.c7_witness is not None
        assert audit.passed

    def test_fig1_audit_no_witness(self):
        structure = build_beamsplitter_fig1()
        audit = correspondence_audit(structure, matched_markov_chain(structure))
        assert audit.passed
        assert audit.c7_witness is None

    def test_trivial_structure_fully_classical(self):
        structure = QuantumStructure(
            2,
            [1 / math.sqrt(2), 1 / math.sqrt(2)],
            [np.eye(2, dtype=complex)] * 2,
            {"U": [0], "D": [1]},
        )
        audit = correspondence_audit(structure, matched_markov_chain(structure))
        assert audit.passed
        assert audit.c7_max_defect == pytest.approx(0.0, abs=1e-12)

    def test_label_mismatch_rejected(self):
        structure = build_unruh().structure
        chain = StochasticProcessSpec(["A", "B"], [0.5, 0.5], [IDENTITY2] * 3)
        with pytest.raises(ValidationError):
            correspondence_audit(structure, chain)

    def test_step_count_mismatch_needs_pairing(self):
        # The audit compares the two processes at every time 0..T, so both need T.
        structure = build_unruh().structure
        chain = StochasticProcessSpec(["U", "D"], [0.0, 1.0], [IDENTITY2])
        with pytest.raises(ValidationError, match="structure has 3 steps but its twin has 1"):
            correspondence_audit(structure, chain)

    def test_mismatched_chain_fails_c3(self):
        structure = build_unruh().structure
        wrong = StochasticProcessSpec(["U", "D"], [1.0, 0.0], [IDENTITY2] * 3)
        audit = correspondence_audit(structure, wrong)
        assert not audit.c3_pass
        assert not audit.passed

    def test_audit_serialization(self):
        structure = build_beamsplitter_fig1()
        data = correspondence_audit(structure, matched_markov_chain(structure)).to_dict()
        assert data["passed"] is True
        assert set(data) == {"c3", "c5", "c7", "passed"}


class TestSerialization:
    def test_round_trip(self, mixing_chain):
        restored = process_from_dict(process_to_dict(mixing_chain))
        assert restored.states == mixing_chain.states
        np.testing.assert_allclose(restored.initial, mixing_chain.initial)
        for a, b in itertools.zip_longest(restored.kernels, mixing_chain.kernels):
            np.testing.assert_allclose(a, b)

    def test_missing_key(self):
        with pytest.raises(SchemaError):
            process_from_dict({"states": ["U", "D"], "initial": [0.5, 0.5]})
