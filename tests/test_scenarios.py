import math

import numpy as np
import pytest

from qtypicality import (
    SSet,
    ValidationError,
    build_beamsplitter_fig1,
    build_graph,
    build_unruh,
    chain_project,
    exclusion_measure,
    heisenberg_project,
    mutual_typicality,
    nonadditivity_demo,
    obstacle_variant,
    occupations,
)
from qtypicality.core import ProjectedVector, QuantumStructure
from qtypicality.scenarios import BEAM_SPLITTER, NonadditivityWitness

from conftest import chain_oracle

# (t1 arm, t2 arm, t3 arm) -> sign of psi_U / psi_D, straight from the
# eight-entry table of the multi-pass interferometer.
SIGN_TABLE = {
    ("U", "U", "U"): +1,
    ("U", "U", "D"): +1,
    ("D", "U", "U"): +1,
    ("D", "U", "D"): +1,
    ("U", "D", "U"): -1,
    ("U", "D", "D"): +1,
    ("D", "D", "U"): +1,
    ("D", "D", "D"): -1,
}


@pytest.fixture
def model():
    return build_unruh()


def chain(structure, arms):
    return chain_project(
        structure, [SSet(t, {arm}) for t, arm in enumerate(arms, start=1)]
    )


class TestUnruhSignTable:
    def test_all_eight_signs(self, model):
        for (a1, a2, a3), sign in SIGN_TABLE.items():
            reference = model.psi_u if a3 == "U" else model.psi_d
            out = chain(model.structure, (a1, a2, a3))
            np.testing.assert_allclose(
                out.amplitudes, sign * reference.amplitudes, atol=1e-12
            )

    def test_reference_packet_masses(self, model):
        assert model.psi_u.norm_sq == pytest.approx(0.125, abs=1e-12)
        assert model.psi_d.norm_sq == pytest.approx(0.125, abs=1e-12)

    def test_chains_match_dense_oracle(self, model):
        for arms in SIGN_TABLE:
            ssets = [SSet(t, {arm}) for t, arm in enumerate(arms, start=1)]
            out = chain_project(model.structure, ssets, at_time=0)
            np.testing.assert_allclose(
                out.amplitudes, chain_oracle(model.structure, ssets), atol=1e-12
            )

    def test_completeness_at_each_stage(self, model):
        # (U_i + D_i) acting on any in-play projected vector reproduces it
        structure = model.structure
        for prefix in ([], ["U"], ["D"], ["U", "U"], ["D", "U"]):
            vec = chain(structure, prefix) if prefix else ProjectedVector(structure.psi0, 0)
            t = len(prefix) + 1
            both = heisenberg_project(structure, SSet(t, {"U", "D"}), vec)
            np.testing.assert_allclose(both.amplitudes, vec.amplitudes, atol=1e-12)


class TestWhichWayIdentities:
    def test_u1_equals_d3_projection(self, model):
        structure = model.structure
        u1 = heisenberg_project(structure, SSet(1, {"U"}), ProjectedVector(structure.psi0, 0))
        d3 = heisenberg_project(structure, SSet(3, {"D"}), ProjectedVector(structure.psi0, 0))
        np.testing.assert_allclose(u1.amplitudes, d3.amplitudes, atol=1e-12)

    def test_detector_arrival_norms(self, model):
        arrivals = occupations(model.structure, 3)
        assert arrivals["U"] == pytest.approx(0.5, abs=1e-12)
        assert arrivals["D"] == pytest.approx(0.5, abs=1e-12)

    def test_u2_certain(self, model):
        assert exclusion_measure(model.structure, SSet(2, {"U"})) == pytest.approx(
            0.0, abs=1e-12
        )


class TestDetectorVariant:
    @pytest.fixture
    def detector(self):
        return build_unruh(with_detector_d2=True)

    def test_counter_never_clicks(self, detector):
        # interference keeps everything in the U sector at t2
        assert exclusion_measure(
            detector.structure, SSet(2, {"U", "D"})
        ) == pytest.approx(0.0, abs=1e-12)

    def test_u2_still_certain_on_photon_cells(self, detector):
        assert exclusion_measure(detector.structure, SSet(2, {"U"})) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_per_branch_d2_terms_vanish(self, detector):
        for arm in ("U", "D"):
            out = chain(detector.structure, (arm, "D"))
            assert out.norm_sq == pytest.approx(0.0, abs=1e-12)

    def test_which_way_identities_fail(self, detector):
        report = mutual_typicality(detector.structure, SSet(1, {"U"}), SSet(3, {"D"}))
        assert report.m_big >= 0.5


class TestObstacleVariant:
    def test_block_u1(self):
        model = obstacle_variant("U1")
        occ = occupations(model.structure, 3)
        assert occ["D"] == pytest.approx(0.0, abs=1e-12)
        assert occ["U"] == pytest.approx(0.5, abs=1e-12)
        assert occ["BLOCK"] == pytest.approx(0.5, abs=1e-12)

    def test_block_d1_symmetric(self):
        model = obstacle_variant("D1")
        occ = occupations(model.structure, 3)
        assert occ["U"] == pytest.approx(0.0, abs=1e-12)
        assert occ["D"] == pytest.approx(0.5, abs=1e-12)

    def test_bad_arm(self):
        with pytest.raises(ValidationError):
            obstacle_variant("U2")


class TestNonadditivity:
    def test_unruh_witness(self):
        witness = nonadditivity_demo()
        assert witness.combined == pytest.approx(1.0, abs=1e-12)
        assert witness.term_u1 == pytest.approx(0.25, abs=1e-12)
        assert witness.term_d1 == pytest.approx(0.25, abs=1e-12)

    def test_additive_is_the_demos_rule(self):
        assert nonadditivity_demo().additive is False
        assert NonadditivityWitness(0.5, 0.25, 0.25).additive is True
        assert NonadditivityWitness(0.7, 0.25, 0.25).additive is False

    def test_trivial_evolution_is_additive(self):
        structure = QuantumStructure(
            2,
            [1 / math.sqrt(2), 1 / math.sqrt(2)],
            [np.eye(2, dtype=complex)] * 2,
            {"U": [0], "D": [1]},
        )
        s2 = SSet(2, {"U"})
        combined = chain_project(structure, [SSet(1, {"U", "D"}), s2]).norm_sq
        terms = [
            chain_project(structure, [SSet(1, {arm}), s2]).norm_sq
            for arm in ("U", "D")
        ]
        assert combined == pytest.approx(sum(terms), abs=1e-12)

    def test_empty_region_term_is_zero(self):
        structure = build_unruh().structure
        s2 = SSet(2, {"U"})
        with_empty = chain_project(structure, [SSet(1, set()), s2]).norm_sq
        assert with_empty == 0.0


class TestBeamSplitterFig1:
    @pytest.fixture
    def fig1(self):
        return build_beamsplitter_fig1()

    def test_which_way_recovered(self, fig1):
        assert mutual_typicality(fig1, SSet(1, {"A"}), SSet(2, {"A"})).m_big == 0.0

    def test_crossed_pairing_rejected(self, fig1):
        report = mutual_typicality(fig1, SSet(1, {"A"}), SSet(2, {"B"}))
        assert report.m_big == pytest.approx(2.0, abs=1e-12)

    def test_pinhole_exclusion(self, fig1):
        assert exclusion_measure(fig1, SSet(1, {"A"})) == pytest.approx(0.5, abs=1e-12)


class TestGlobalPhaseInvariance:
    def test_phased_schedule_changes_nothing(self):
        model = build_unruh()
        phased = QuantumStructure(
            2,
            model.structure.psi0,
            [BEAM_SPLITTER, np.exp(0.7j) * BEAM_SPLITTER, BEAM_SPLITTER],
            {"U": [0], "D": [1]},
        )
        for s1, s2 in [
            (SSet(1, {"U"}), SSet(3, {"D"})),
            (SSet(1, {"D"}), SSet(3, {"U"})),
            (SSet(1, {"U"}), SSet(2, {"U"})),
        ]:
            original = mutual_typicality(model.structure, s1, s2).m_big
            assert mutual_typicality(phased, s1, s2).m_big == pytest.approx(
                original, abs=1e-12
            )
        base_paths = {
            build_graph(model.structure, model.partition_schedule()).node_names(p)
            for p in build_graph(model.structure, model.partition_schedule()).paths
        }
        phased_graph = build_graph(phased, model.partition_schedule())
        assert {phased_graph.node_names(p) for p in phased_graph.paths} == base_paths
