import itertools
import math

import numpy as np
import pytest

from qtypicality import (
    QuantumStructure,
    SSet,
    SchemaError,
    StochasticProcessSpec,
    TimeRangeError,
    ValidationError,
    build_beamsplitter_fig1,
    build_unruh,
    correspondence_audit,
    cylinder_measure,
    matched_markov_chain,
    mu_sset,
    mu_symmetric_difference,
    mu_typicality,
    occupations,
    process_from_dict,
    process_to_dict,
)

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
