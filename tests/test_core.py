import json
import math

import numpy as np
import pytest

from qtypicality import (
    FactorUnitary,
    ProjectedVector,
    QuantumStructure,
    SchemaError,
    SSet,
    TimeRangeError,
    ValidationError,
    build_unruh,
    chain_project,
    evolve,
    heisenberg_project,
    occupations,
    state_at,
    structure_from_dict,
    structure_to_dict,
)

from conftest import SPLITTER, chain_oracle, heisenberg_operator, random_structure


@pytest.fixture
def unruh():
    return build_unruh().structure


def psi0_vec(structure):
    return ProjectedVector(structure.psi0, 0)


class TestEvolve:
    def test_identity_at_same_time(self, unruh):
        out = evolve(unruh, psi0_vec(unruh), 0)
        np.testing.assert_array_equal(out.amplitudes, unruh.psi0)
        assert out.at_time == 0

    def test_single_step_matches_hand_value(self, unruh):
        # source in D, first half-silvered mirror: (i|U> + |D>)/sqrt(2)
        out = evolve(unruh, psi0_vec(unruh), 1)
        expected = np.array([1.0j, 1.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_forward_then_backward_is_identity(self, rng):
        structure = random_structure(rng)
        forward = evolve(structure, psi0_vec(structure), 3)
        back = evolve(structure, forward, 0)
        np.testing.assert_allclose(back.amplitudes, structure.psi0, atol=1e-10)

    def test_norm_preserved(self, rng):
        structure = random_structure(rng)
        assert state_at(structure, 3).norm_sq == pytest.approx(1.0, abs=1e-10)

    def test_out_of_range_time(self, unruh):
        with pytest.raises(TimeRangeError):
            evolve(unruh, psi0_vec(unruh), 4)
        with pytest.raises(TimeRangeError):
            evolve(unruh, ProjectedVector(unruh.psi0, -1), 0)


class TestIntegralTimes:
    @pytest.mark.parametrize("time", [1.5, -0.5, math.nan, math.inf, True, np.bool_(False)])
    def test_non_integral_time_rejected(self, unruh, time):
        # 1.5 was once truncated to time 1.
        with pytest.raises(ValidationError, match="time index .* is not an integer"):
            SSet(time, {"U"})
        with pytest.raises(ValidationError, match="time index .* is not an integer"):
            unruh.check_time(time)

    @pytest.mark.parametrize("time", [2, 2.0, np.int64(2), np.float64(2.0)])
    def test_integral_time_accepted(self, unruh, time):
        assert type(SSet(time, {"U"}).time) is int
        assert SSet(time, {"U"}) == SSet(2, {"U"})
        assert unruh.check_time(time) == 2


class TestSSetRegion:
    @pytest.mark.parametrize("region", ["UD", "CLICK", "", b"UD"])
    def test_string_region_rejected(self, region):
        # "UD" once read as {"U", "D"}, and "CLICK" as its letters.
        with pytest.raises(ValidationError, match="region .* is a string"):
            SSet(1, region)

    @pytest.mark.parametrize("region", [["U", "D"], ("U", "D"), {"U", "D"}, frozenset("UD")])
    def test_collection_of_labels_accepted(self, region):
        assert SSet(1, region).region == frozenset({"U", "D"})


class TestHeisenbergProject:
    def test_full_region_is_identity(self, unruh):
        out = heisenberg_project(unruh, SSet(2, {"U", "D"}), psi0_vec(unruh))
        np.testing.assert_allclose(out.amplitudes, unruh.psi0, atol=1e-12)

    def test_u2_has_full_mass(self, unruh):
        out = heisenberg_project(unruh, SSet(2, {"U"}), psi0_vec(unruh))
        assert out.norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_u1_splits_half(self, unruh):
        out = heisenberg_project(unruh, SSet(1, {"U"}), psi0_vec(unruh))
        oracle = heisenberg_operator(unruh, SSet(1, {"U"})) @ unruh.psi0
        assert out.norm_sq == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(out.amplitudes, oracle, atol=1e-12)

    def test_idempotent(self, rng):
        structure = random_structure(rng)
        sset = SSet(2, {structure.labels[0]})
        once = heisenberg_project(structure, sset, psi0_vec(structure))
        twice = heisenberg_project(structure, sset, once)
        np.testing.assert_allclose(twice.amplitudes, once.amplitudes, atol=1e-12)

    def test_unknown_label(self, unruh):
        with pytest.raises(SchemaError):
            heisenberg_project(unruh, SSet(1, {"X"}), psi0_vec(unruh))


class TestChainProject:
    def test_empty_chain_is_psi0(self, unruh):
        out = chain_project(unruh, [])
        np.testing.assert_array_equal(out.amplitudes, unruh.psi0)
        assert out.at_time == 0

    def test_unruh_triple_chain_norm(self, unruh):
        ssets = [SSet(t, {"U"}) for t in (1, 2, 3)]
        out = chain_project(unruh, ssets)
        assert out.norm_sq == pytest.approx(0.125, abs=1e-12)
        np.testing.assert_allclose(
            evolve(unruh, out, 0).amplitudes, chain_oracle(unruh, ssets), atol=1e-12
        )

    def test_auto_sorting_gives_minus_psi_u(self, unruh):
        shuffled = [SSet(3, {"U"}), SSet(2, {"D"}), SSet(1, {"U"})]
        psi_u = chain_project(unruh, [SSet(t, {"U"}) for t in (1, 2, 3)])
        out = chain_project(unruh, shuffled)
        np.testing.assert_allclose(out.amplitudes, -psi_u.amplitudes, atol=1e-12)

    def test_equal_time_ties_intersect(self, unruh):
        out = chain_project(unruh, [SSet(1, {"U", "D"}), SSet(1, {"U"})])
        direct = chain_project(unruh, [SSet(1, {"U"})])
        np.testing.assert_allclose(out.amplitudes, direct.amplitudes, atol=1e-15)

    def test_matches_oracle_on_random_structures(self, rng):
        for _ in range(20):
            structure = random_structure(rng)
            ssets = [
                SSet(int(t), {str(rng.choice(structure.labels))})
                for t in rng.integers(0, 4, size=3)
            ]
            out = chain_project(structure, ssets, at_time=0)
            np.testing.assert_allclose(
                out.amplitudes, chain_oracle(structure, ssets), atol=1e-10
            )


class TestInvariantsAndProperties:
    def test_completeness_at_every_time(self, rng):
        for _ in range(10):
            structure = random_structure(rng)
            for t in structure.times:
                assert sum(occupations(structure, t).values()) == pytest.approx(
                    1.0, abs=1e-10
                )

    def test_equal_time_projections_commute(self, rng):
        structure = random_structure(rng, n_cells=4)
        a, b = SSet(2, {"c0", "c1"}), SSet(2, {"c1", "c2"})
        ab = heisenberg_project(structure, b, heisenberg_project(structure, a, psi0_vec(structure)))
        ba = heisenberg_project(structure, a, heisenberg_project(structure, b, psi0_vec(structure)))
        np.testing.assert_allclose(ab.amplitudes, ba.amplitudes, atol=1e-12)

    def test_disjoint_equal_time_projections_orthogonal(self, rng):
        structure = random_structure(rng, n_cells=4)
        va = heisenberg_project(structure, SSet(1, {"c0"}), psi0_vec(structure))
        vb = heisenberg_project(structure, SSet(1, {"c1"}), psi0_vec(structure))
        assert abs(np.vdot(va.amplitudes, vb.amplitudes)) < 1e-12

    def test_projected_norm_bounded(self, rng):
        structure = random_structure(rng)
        out = heisenberg_project(structure, SSet(1, set(structure.labels)), psi0_vec(structure))
        assert out.norm_sq <= 1.0 + 1e-10


class TestConstructionValidation:
    def test_non_unit_psi0(self):
        with pytest.raises(ValidationError):
            QuantumStructure(2, [1.0, 1.0], [SPLITTER], {"U": [0], "D": [1]})

    def test_non_unitary_step(self):
        bad = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
        with pytest.raises(ValidationError):
            QuantumStructure(2, [1.0, 0.0], [bad], {"U": [0], "D": [1]})

    @pytest.mark.parametrize("value", [1e308, 1.7e308 + 1.7e308j, 1e160])
    def test_huge_finite_step_entry_rejected_without_overflow(self, value):
        # U^dagger U once overflowed in matmul on such an entry.
        bad = SPLITTER.copy()
        bad[0, 0] = value
        with pytest.raises(ValidationError, match="not unitary"):
            QuantumStructure(2, [1.0, 0.0], [bad], {"U": [0], "D": [1]})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_entries_rejected(self, value):
        # A NaN norm once passed the |norm - 1| > tol test.
        with pytest.raises(ValidationError, match="non-finite"):
            QuantumStructure(2, [value, 0.0], [SPLITTER], {"U": [0], "D": [1]})
        bad = SPLITTER.copy()
        bad[0, 1] = value
        with pytest.raises(ValidationError, match="non-finite"):
            QuantumStructure(2, [1.0, 0.0], [bad], {"U": [0], "D": [1]})
        with pytest.raises(ValidationError, match="non-finite"):
            FactorUnitary(bad, index=0, num_factors=1)

    def test_integer_beyond_float_range_is_named(self):
        with pytest.raises(ValidationError, match="psi0 has an integer entry beyond float range"):
            QuantumStructure(2, [10**400, 0], [SPLITTER], {"U": [0], "D": [1]})

    def test_step_integer_beyond_float_range_is_named(self):
        bad = [[10**400, 0], [0, 1]]
        with pytest.raises(ValidationError, match="step matrix has an integer entry beyond"):
            QuantumStructure(2, [1.0, 0.0], [bad], {"U": [0], "D": [1]})

    def test_cells_must_partition(self):
        with pytest.raises(ValidationError):
            QuantumStructure(2, [1.0, 0.0], [SPLITTER], {"U": [0]})
        with pytest.raises(ValidationError):
            QuantumStructure(2, [1.0, 0.0], [SPLITTER], {"U": [0, 1], "D": [1]})

    def test_non_square_dense_step_rejected(self):
        with pytest.raises(ValidationError, match="square"):
            QuantumStructure(2, [1.0, 0.0], [np.ones((2, 3))], {"U": [0], "D": [1]})

    def test_dense_steps_are_one_factor_steps(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m, _ = np.linalg.qr(m)
        structure = QuantumStructure(4, [1.0, 0, 0, 0], [m], {"a": [0, 1], "b": [2, 3]})
        (step,) = structure.schedule
        assert isinstance(step, FactorUnitary)
        assert (step.num_factors, step.dim) == (1, 4)
        np.testing.assert_array_equal(step.matrix, m)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        np.testing.assert_array_equal(step.apply(v), m @ v)
        np.testing.assert_array_equal(step.apply(v, adjoint=True), (v.conj() @ m).conj())

    def test_cell_errors_name_the_cell(self):
        def build(cells):
            QuantumStructure(3, [1.0, 0.0, 0.0], [np.eye(3)], cells)

        with pytest.raises(ValidationError, match="'D'.*out-of-range index 3"):
            build({"U": [0, 1], "D": [2, 3]})
        with pytest.raises(ValidationError, match="'D'.*out-of-range index -1"):
            build({"U": [0, 1, 2], "D": [-1]})
        with pytest.raises(ValidationError, match="'M' claims index 1 twice"):
            build({"U": [0, 1], "M": [2, 1], "D": [1]})
        with pytest.raises(ValidationError, match="'U' claims index 0 twice"):
            build({"U": [0, 0, 1], "D": [2]})
        with pytest.raises(ValidationError, match="cover basis index 1"):
            build({"U": [0], "D": [2]})

    def test_labels_equal_after_str_are_rejected(self):
        # They were once merged into one cell, which then left index 0 uncovered.
        with pytest.raises(ValidationError, match=r"^duplicate cell label '1'$"):
            QuantumStructure(2, [1, 0], [], {1: [0], "1": [1]})

    @pytest.mark.parametrize("index", [1.7, 1.0, True, np.float64(1.0), "1"])
    def test_non_integer_cell_index_rejected(self, index):
        with pytest.raises(ValidationError, match="'D' has a non-integer index"):
            QuantumStructure(2, [1.0, 0.0], [SPLITTER], {"U": [0], "D": [index]})

    @pytest.mark.parametrize(
        "index, kind",
        [
            (True, "a non-integer"),
            (np.bool_(True), "a non-integer"),
            (2.0, "a non-integer"),
            (2**70, "an out-of-range"),
            (-(2**70), "an out-of-range"),
            (np.uint64(2**64 - 1), "an out-of-range"),
        ],
    )
    def test_bad_index_among_good_ones_is_named(self, index, kind):
        # np.array([2, True]) is a valid int array, so types are checked first.
        with pytest.raises(ValidationError, match=f"cell 'D' has {kind} index"):
            QuantumStructure(3, [1.0, 0.0, 0.0], [np.eye(3)], {"U": [0, 1], "D": [2, index]})

    @pytest.mark.parametrize("index, num_factors", [(0.5, 2), (0, 2.5), (True, 2), (0, math.inf)])
    def test_non_integral_factor_rejected(self, index, num_factors):
        # index 0.5 once built a step that failed on first use with a TypeError.
        with pytest.raises(ValidationError, match="factor .* is not an integer"):
            FactorUnitary(np.eye(2), index=index, num_factors=num_factors)

    @pytest.mark.parametrize("dim", [2.7, True, math.nan])
    def test_non_integral_dimension_rejected(self, dim):
        # 2.7 once built a two-dimensional structure.
        with pytest.raises(ValidationError, match="dimension .* is not an integer"):
            QuantumStructure(dim, [1.0, 0.0], [SPLITTER], {"U": [0], "D": [1]})

    def test_integer_like_cell_indices_accepted(self):
        structure = QuantumStructure(
            3, [1.0, 0.0, 0.0], [np.eye(3)],
            {"U": np.array([2, 0]), "E": [], "D": (np.int32(1),)},
        )
        assert structure.labels == ("U", "E", "D")
        assert structure.cells["U"].tolist() == [0, 2]
        assert structure.cells["E"].size == 0
        assert occupations(structure, 0) == {"U": 1.0, "E": 0.0, "D": 0.0}

    def test_factor_unitary_matches_dense(self, rng):
        small = np.array([[0.6, 0.8], [0.8, -0.6]], dtype=complex)
        step = FactorUnitary(small, index=1, num_factors=3)
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        dense = np.kron(np.kron(np.eye(2), small), np.eye(2))
        np.testing.assert_allclose(step.apply(vec), dense @ vec, atol=1e-12)
        np.testing.assert_allclose(
            step.apply(vec, adjoint=True), dense.conj().T @ vec, atol=1e-12
        )


class TestScenarioJSON:
    def test_round_trip(self, unruh, tmp_path):
        data = structure_to_dict(unruh)
        again = structure_from_dict(data)
        np.testing.assert_allclose(again.psi0, unruh.psi0)
        for a, b in zip(again.schedule, unruh.schedule):
            np.testing.assert_allclose(a.matrix, b.matrix)
        assert set(again.labels) == set(unruh.labels)

    @pytest.mark.parametrize("index", [1.7, 1.0, True, "1"])
    def test_non_integer_cell_index_is_schema_error(self, unruh, index):
        data = structure_to_dict(unruh)
        data["cells"]["D"] = [index]
        with pytest.raises(SchemaError, match="'D' has a non-integer index"):
            structure_from_dict(data)

    @pytest.mark.parametrize("dim", [2.7, 2.0, True, "2"])  # the Unruh structure has dim 2
    def test_non_integer_dim_is_schema_error(self, unruh, dim):
        data = structure_to_dict(unruh)
        data["dim"] = dim
        with pytest.raises(SchemaError, match="dim"):
            structure_from_dict(data)

    @pytest.mark.parametrize("psi0", [5, [], [5], [[1.0, 0.0, 0.0]]])
    def test_malformed_psi0_is_schema_error(self, unruh, psi0):
        data = structure_to_dict(unruh)
        data["psi0"] = psi0
        with pytest.raises(SchemaError):
            structure_from_dict(data)

    def test_validates_against_published_schema(self, unruh, repo_root):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(
            (repo_root / "schemas" / "scenario.schema.json").read_text()
        )
        jsonschema.validate(structure_to_dict(unruh), schema)

    def test_malformed_scenario(self):
        with pytest.raises(SchemaError):
            structure_from_dict({"dim": 2, "psi0": [[1, 0]]})

    def test_wrong_matrix_shape(self):
        with pytest.raises(SchemaError):
            structure_from_dict(
                {
                    "dim": 2,
                    "psi0": [[1, 0], [0, 0]],
                    "schedule": [[[[1, 0]]]],
                    "cells": {"U": [0], "D": [1]},
                }
            )

    def test_factored_steps_do_not_serialize(self):
        small = np.eye(2, dtype=complex)
        structure = QuantumStructure(
            4,
            [1, 0, 0, 0],
            [FactorUnitary(small, 0, 2)],
            {"a": [0, 1], "b": [2, 3]},
        )
        with pytest.raises(SchemaError):
            structure_to_dict(structure)
