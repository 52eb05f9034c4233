import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtypicality import (
    SSet,
    ValidationError,
    Verdict,
    build_unruh,
    check_inequality_chain,
    exclusion_measure,
    mutual_typicality,
    mutual_typicality_measure_mu,
)
from qtypicality import core, typicality
from qtypicality.typicality import pair_masses, report_from_masses

from conftest import heisenberg_operator, random_region, random_structure


@pytest.fixture
def unruh():
    return build_unruh().structure


class TestMutualTypicality:
    def test_identical_ssets(self, unruh):
        report = mutual_typicality(unruh, SSet(1, {"U"}), SSet(1, {"U"}), 0.08)
        assert report.m_big == 0.0
        assert report.verdict is Verdict.MUTUALLY_TYPICAL

    def test_unruh_which_way_pair_exact_zero(self, unruh):
        report = mutual_typicality(unruh, SSet(1, {"U"}), SSet(3, {"D"}))
        assert report.m_big == pytest.approx(0.0, abs=1e-12)
        assert report.norm1_sq == pytest.approx(0.5, abs=1e-12)

    def test_detector_variant_destroys_which_way(self):
        structure = build_unruh(with_detector_d2=True).structure
        report = mutual_typicality(structure, SSet(1, {"U"}), SSet(3, {"D"}))
        assert report.m_big == pytest.approx(1.0, abs=1e-12)
        assert report.verdict is Verdict.NOT_TYPICAL

    def test_symmetry_and_reflexivity(self, rng):
        for _ in range(10):
            structure = random_structure(rng)
            s1 = SSet(1, random_region(rng, structure))
            s2 = SSet(3, random_region(rng, structure))
            ab = mutual_typicality(structure, s1, s2)
            ba = mutual_typicality(structure, s2, s1)
            assert ab.m_big == ba.m_big
            assert mutual_typicality(structure, s1, s1).m_big == 0.0

    def test_equal_time_disjoint_never_typical(self, rng):
        for _ in range(10):
            structure = random_structure(rng, n_cells=4)
            r = mutual_typicality(structure, SSet(2, {"c0"}), SSet(2, {"c1", "c2"}))
            if not r.degenerate:
                assert r.m_big >= 1.0 - 1e-12

    def test_equal_time_reduces_to_symmetric_difference_mass(self, rng):
        # the equal-time form of the measure is the probabilistic one
        for _ in range(10):
            structure = random_structure(rng, n_cells=4)
            r1, r2 = {"c0", "c1"}, {"c1", "c2"}
            report = mutual_typicality(structure, SSet(2, r1), SSet(2, r2))
            symm = (r1 | r2) - (r1 & r2)
            mass = 1.0 - exclusion_measure(structure, SSet(2, symm))
            assert report.m_big * max(report.norm1_sq, report.norm2_sq) == pytest.approx(
                mass, abs=1e-12
            )

    def test_degenerate_pair(self, rng):
        structure = build_unruh().structure
        # D2 is interference-dead: both projections vanish
        report = mutual_typicality(structure, SSet(2, {"D"}), SSet(2, {"D"}))
        assert report.verdict is Verdict.DEGENERATE
        assert math.isnan(report.m_big)

    def test_bad_threshold(self, unruh):
        with pytest.raises(ValidationError):
            mutual_typicality(unruh, SSet(1, {"U"}), SSet(2, {"U"}), threshold=1.5)


def report_bits(report):
    """The report's fields with each float as its exact repr."""
    return tuple(repr(v) for v in dataclasses.astuple(report))


def all_ssets(structure):
    return [SSet(t, {label}) for t in structure.times for label in structure.labels] + [
        SSet(t, set(structure.labels)) for t in structure.times
    ]


class TestPairMasses:
    def test_entries_equal_the_one_pair_reports_across_blocks(self, rng):
        structure = random_structure(rng, dim=64, n_steps=4, n_cells=16)
        ssets = all_ssets(structure)
        rows, cols = ssets[::2], ssets[1::3]
        # Several blocks of rows, the last one short.
        block_rows = typicality.PAIR_BLOCK_ENTRIES // (len(cols) * structure.dim)
        assert 1 < block_rows < len(rows) and len(rows) % block_rows
        table = pair_masses(structure, rows, cols)
        assert (len(table.diff_sq), len(table.diff_sq[0])) == (len(rows), len(cols))
        for i, j in itertools.product(range(len(rows)), range(len(cols))):
            one = mutual_typicality(structure, rows[i], cols[j], 0.3)
            assert report_bits(table.report(i, j, 0.3)) == report_bits(one)

    def test_norms_are_the_projections_norms(self, rng):
        structure = random_structure(rng, dim=16, n_cells=5)
        ssets = all_ssets(structure)
        table = pair_masses(structure, ssets, ssets[:3])
        expected = [core.project_initial(structure, s).norm_sq for s in ssets]
        assert table.row_norm_sq == expected
        assert table.col_norm_sq == expected[:3]

    def test_self_table_is_symmetric_with_zero_diagonal(self, rng):
        structure = random_structure(rng, dim=64, n_steps=4, n_cells=16)
        ssets = all_ssets(structure)
        diff_sq = pair_masses(structure, ssets, ssets).diff_sq
        for i, j in itertools.product(range(len(ssets)), repeat=2):
            assert diff_sq[i][j] == diff_sq[j][i]
        assert all(diff_sq[i][i] == 0.0 for i in range(len(ssets)))

    def test_measure_matches_the_dense_difference(self, rng):
        structure = random_structure(rng, dim=16, n_cells=5)
        ssets = all_ssets(structure)
        table = pair_masses(structure, ssets, ssets)
        psi0 = structure.psi0
        vecs = [heisenberg_operator(structure, s) @ psi0 for s in ssets]
        for i, j in itertools.product(range(len(ssets)), repeat=2):
            diff = vecs[i] - vecs[j]
            assert table.diff_sq[i][j] == pytest.approx(np.vdot(diff, diff).real, abs=1e-12)

    def test_zero_projection_row_is_degenerate(self, unruh):
        # D2 is interference-dead: its projection vanishes at every time.
        rows = [SSet(2, {"D"}), SSet(1, {"U"})]
        cols = [SSet(2, {"D"}), SSet(3, {"D"})]
        table = pair_masses(unruh, rows, cols)
        assert table.row_norm_sq[0] < typicality.DEGENERATE_NORM_TOL
        assert table.report(0, 0, 0.08).verdict is Verdict.DEGENERATE
        assert table.report(0, 1, 0.08).verdict is Verdict.NOT_TYPICAL
        assert math.isinf(table.report(0, 1, 0.08).m_small)
        assert table.report(1, 1, 0.08).verdict is Verdict.MUTUALLY_TYPICAL
        for i, j in itertools.product(range(2), repeat=2):
            one = mutual_typicality(unruh, rows[i], cols[j])
            assert report_bits(table.report(i, j, 0.08)) == report_bits(one)

    def test_empty_sides(self, unruh):
        u1 = SSet(1, {"U"})
        norm = core.project_initial(unruh, u1).norm_sq
        assert pair_masses(unruh, [], [u1]) == ([], [], [norm])
        assert pair_masses(unruh, [u1], []) == ([[]], [norm], [])


class TestExclusionMeasure:
    def test_full_region_zero(self, unruh):
        assert exclusion_measure(unruh, SSet(2, {"U", "D"})) == 0.0

    def test_unruh_dead_sector(self, unruh):
        assert exclusion_measure(unruh, SSet(2, {"U"})) == pytest.approx(0.0, abs=1e-12)

    def test_unruh_detector_section(self, unruh):
        assert exclusion_measure(unruh, SSet(3, {"U"})) == pytest.approx(0.5, abs=1e-12)

    def test_identity_with_full_space_pair(self, rng):
        # ||E(complement) psi(t)||^2 equals M against the full-space s-set
        for _ in range(20):
            structure = random_structure(rng)
            t = int(rng.integers(0, 4))
            region = random_region(rng, structure)
            excl = exclusion_measure(structure, SSet(t, region))
            report = mutual_typicality(
                structure, SSet(t, set(structure.labels)), SSet(t, region)
            )
            assert excl == pytest.approx(report.m_big, abs=1e-12)


class TestInequalityChain:
    def test_zero_measure(self):
        report = report_from_masses(0.0, 0.5, 0.5, 0.08)
        assert check_inequality_chain(report)

    def test_corollary_at_the_worked_bound(self):
        # m_big = 0.08 must imply m_small <= 0.16
        report = report_from_masses(0.08 * 0.5, 0.5, 0.45, 0.08)
        assert report.m_big == pytest.approx(0.08)
        if report.m_big <= 0.08:
            assert report.m_small <= 2 * report.m_big

    def test_holds_on_random_structures(self, rng):
        checked = 0
        for _ in range(100):
            structure = random_structure(rng)
            s1 = SSet(int(rng.integers(0, 4)), random_region(rng, structure))
            s2 = SSet(int(rng.integers(0, 4)), random_region(rng, structure))
            report = mutual_typicality(structure, s1, s2)
            if report.degenerate:
                continue
            # independent oracle for the masses entering the chain
            h1 = heisenberg_operator(structure, s1) @ structure.psi0
            h2 = heisenberg_operator(structure, s2) @ structure.psi0
            diff = h1 - h2
            assert report.m_big == pytest.approx(
                float(np.vdot(diff, diff).real)
                / max(np.vdot(h1, h1).real, np.vdot(h2, h2).real),
                abs=1e-10,
            )
            assert check_inequality_chain(report)
            checked += 1
        assert checked >= 90

    def test_degenerate_rejected(self):
        report = report_from_masses(0.0, 0.0, 0.0, 0.08)
        with pytest.raises(ValidationError):
            check_inequality_chain(report)


class TestMuMeasure:
    def test_identical_measures(self):
        report = mutual_typicality_measure_mu(0.5, 0.5, 0.0)
        assert report.m_big == 0.0
        assert report.verdict is Verdict.MUTUALLY_TYPICAL

    def test_arithmetic_example(self):
        report = mutual_typicality_measure_mu(0.5, 0.4, 0.1)
        assert report.m_big == pytest.approx(0.2)
        assert report.m_small == pytest.approx(0.25)

    def test_triangle_violation(self):
        with pytest.raises(ValidationError):
            mutual_typicality_measure_mu(0.5, 0.4, 0.05)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            mutual_typicality_measure_mu(1.5, 0.4, 1.2)

    @given(
        mu1=st.floats(0.01, 1.0),
        mu2=st.floats(0.01, 1.0),
        frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200)
    def test_chain_without_square_roots(self, mu1, mu2, frac):
        lo, hi = abs(mu1 - mu2), min(mu1 + mu2, 1.0)
        symm = lo + frac * (hi - lo)
        report = mutual_typicality_measure_mu(mu1, mu2, symm)
        assert report.m_big <= report.m_small + 1e-12
        if report.m_big < 1.0:
            assert report.m_small <= report.m_big / (1.0 - report.m_big) + 1e-9
