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
from qtypicality.typicality import PairMasses, mu_pair_masses, report_from_masses

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
    """``QuantumStructure.pair_table`` against the one-pair reports and the
    dense projections."""

    def test_entries_equal_the_one_pair_reports_across_blocks(self, rng):
        structure = random_structure(rng, dim=64, n_steps=4, n_cells=16)
        ssets = all_ssets(structure)
        rows, cols = ssets[::2], ssets[1::3]
        # Several blocks of rows, the last one short.
        block_rows = core.PAIR_BLOCK_ENTRIES // (len(cols) * structure.dim)
        assert 1 < block_rows < len(rows) and len(rows) % block_rows
        table = structure.pair_table(rows, cols)
        assert (len(table.diff_sq), len(table.diff_sq[0])) == (len(rows), len(cols))
        for i, j in itertools.product(range(len(rows)), range(len(cols))):
            one = mutual_typicality(structure, rows[i], cols[j], 0.3)
            assert report_bits(table.report(i, j, 0.3)) == report_bits(one)

    def test_norms_are_the_projections_norms(self, rng):
        structure = random_structure(rng, dim=16, n_cells=5)
        ssets = all_ssets(structure)
        table = structure.pair_table(ssets, ssets[:3])
        expected = [core.project_initials(structure, [s])[0].norm_sq for s in ssets]
        assert table.row_norm_sq.tolist() == expected
        assert table.col_norm_sq.tolist() == expected[:3]

    def test_self_table_is_symmetric_with_zero_diagonal(self, rng):
        structure = random_structure(rng, dim=64, n_steps=4, n_cells=16)
        ssets = all_ssets(structure)
        diff_sq = structure.pair_table(ssets, ssets).diff_sq
        for i, j in itertools.product(range(len(ssets)), repeat=2):
            assert diff_sq[i][j] == diff_sq[j][i]
        assert all(diff_sq[i][i] == 0.0 for i in range(len(ssets)))

    def test_measure_matches_the_dense_difference(self, rng):
        structure = random_structure(rng, dim=16, n_cells=5)
        ssets = all_ssets(structure)
        table = structure.pair_table(ssets, ssets)
        psi0 = structure.psi0
        vecs = [heisenberg_operator(structure, s) @ psi0 for s in ssets]
        for i, j in itertools.product(range(len(ssets)), repeat=2):
            diff = vecs[i] - vecs[j]
            assert table.diff_sq[i][j] == pytest.approx(np.vdot(diff, diff).real, abs=1e-12)

    def test_zero_projection_row_is_degenerate(self, unruh):
        # D2 is interference-dead: its projection vanishes at every time.
        rows = [SSet(2, {"D"}), SSet(1, {"U"})]
        cols = [SSet(2, {"D"}), SSet(3, {"D"})]
        table = unruh.pair_table(rows, cols)
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
        norm = core.project_initials(unruh, [u1])[0].norm_sq
        for rows, cols, shape in (([], [u1], (0, 1)), ([u1], [], (1, 0))):
            table = unruh.pair_table(rows, cols)
            assert table.diff_sq.shape == table.m_big.shape == shape
            assert table.typical(0.08).shape == shape
            assert table.row_norm_sq.tolist() == [norm] * len(rows)
            assert table.col_norm_sq.tolist() == [norm] * len(cols)


def legacy_report(diff_sq, norm1_sq, norm2_sq, threshold):
    """``(m_big, verdict)`` of one pair by the rule in plain Python."""
    hi = max(norm1_sq, norm2_sq)
    if hi < typicality.DEGENERATE_NORM_TOL:
        return math.nan, Verdict.DEGENERATE
    m_big = diff_sq / hi
    return m_big, Verdict.MUTUALLY_TYPICAL if m_big <= threshold else Verdict.NOT_TYPICAL


# Masses around the degenerate bound and plain ones.
MASSES = st.one_of(
    st.sampled_from([0.0, 1e-15, typicality.DEGENERATE_NORM_TOL, 0.25, 0.5, 1.0]),
    st.floats(0.0, 1.0),
)


@st.composite
def mass_tables(draw):
    """A table of masses, empty sides and zero differences included, and a
    threshold that sometimes equals one entry's ``m_big`` exactly."""
    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rows = draw(st.lists(MASSES, min_size=n, max_size=n))
    cols = draw(st.lists(MASSES, min_size=m, max_size=m))
    diff = st.one_of(st.just(0.0), st.floats(0.0, 4.0))
    diff_sq = [draw(st.lists(diff, min_size=m, max_size=m)) for _ in range(n)]
    threshold = draw(st.floats(0.01, 0.99))
    if n and m and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
        hi = max(rows[i], cols[j])
        if hi >= typicality.DEGENERATE_NORM_TOL and 0.0 < diff_sq[i][j] / hi < 1.0:
            threshold = diff_sq[i][j] / hi
    table = PairMasses(np.array(diff_sq).reshape(n, m), np.array(rows), np.array(cols))
    return table, threshold


class TestTableVerdicts:
    """``PairMasses.m_big`` and ``typical`` against the per-pair reports."""

    @settings(max_examples=200, deadline=None)
    @given(mass_tables())
    def test_table_equals_the_pair_reports_bit_for_bit(self, problem):
        table, threshold = problem
        m_big, typical = table.m_big, table.typical(threshold)
        assert m_big.shape == typical.shape == table.diff_sq.shape
        for i, j in itertools.product(*map(range, table.diff_sq.shape)):
            masses = (table.diff_sq[i, j], table.row_norm_sq[i], table.col_norm_sq[j])
            one = report_from_masses(*map(float, masses), threshold)
            assert repr(float(m_big[i, j])) == repr(one.m_big)
            assert bool(typical[i, j]) is (one.verdict is Verdict.MUTUALLY_TYPICAL)
            legacy_m_big, legacy_verdict = legacy_report(*map(float, masses), threshold)
            assert repr(one.m_big) == repr(legacy_m_big)
            assert one.verdict is legacy_verdict

    def test_measure_on_the_threshold_is_typical(self):
        table = PairMasses(np.array([[0.04, 0.04]]), np.array([0.5]), np.array([0.5, 0.3]))
        assert table.m_big.tolist() == [[0.08, 0.08]]
        assert table.typical(0.08).tolist() == [[True, True]]
        assert table.report(0, 0, 0.08).verdict is Verdict.MUTUALLY_TYPICAL

    def test_degenerate_pairs_are_never_typical(self):
        # Row 0 and column 0 are dead; a live row against a dead column is not.
        table = PairMasses(np.zeros((2, 2)), np.array([0.0, 0.5]), np.array([1e-15, 0.5]))
        assert np.isnan(table.m_big[0, 0])
        assert table.m_big[1, 0] == table.m_big[1, 1] == 0.0
        assert table.typical(0.5).tolist() == [[False, True], [True, True]]
        assert table.report(0, 0, 0.5).verdict is Verdict.DEGENERATE

    def test_measure_past_the_float_range_is_infinite(self):
        # The suite turns numpy's overflow warning into an error.
        report = report_from_masses(1.8e294, 1e-14, 0.0, 0.08)
        assert report.verdict is Verdict.NOT_TYPICAL and report.m_big == math.inf
        assert report.to_dict()["m_big"] is None
        table = PairMasses(np.array([[1.8e294, 0.0]]), np.array([1e-14]), np.array([0.0, 1e-14]))
        assert table.m_big.tolist() == [[math.inf, 0.0]]
        assert table.typical(0.08).tolist() == [[False, True]]
        assert table.report(0, 0, 0.08) == report

    def test_threshold_is_checked(self):
        table = PairMasses(np.zeros((1, 1)), np.ones(1), np.ones(1))
        with pytest.raises(ValidationError, match="threshold 1.0 outside"):
            table.typical(1.0)

    def test_arrays_are_read_only(self, unruh):
        table = unruh.pair_table([SSet(1, {"U"})], [SSet(3, {"D"})])
        for arr in table:
            assert not arr.flags.writeable
        table = mu_pair_masses([0.5, 0.5], [0.5, 0.5], [[0.0, 0.0], [0.0, 0.0]])
        for arr in table:
            assert not arr.flags.writeable


def legacy_mu_problem(mu1, mu2, mu_symm_diff):
    """The message of the first measure check a pair fails, as the one-pair
    function words it, or ``None``."""
    for name, value in (("mu1", mu1), ("mu2", mu2), ("mu_symm_diff", mu_symm_diff)):
        if not 0.0 <= value <= 1.0 + 1e-12:
            return f"{name}={value} outside [0, 1]"
    if abs(mu1 - mu2) > mu_symm_diff + 1e-12:
        return f"inconsistent measures: |{mu1} - {mu2}| > {mu_symm_diff}"
    if mu_symm_diff > mu1 + mu2 + 1e-12:
        return f"inconsistent measures: {mu_symm_diff} > {mu1} + {mu2}"
    return None


PERTURBATIONS = ("negative", "above", "edge", "nan", "below_gap", "above_sum")


@st.composite
def mu_tables(draw):
    """Measures of random subsets of a random finite probability space, and
    their symmetric differences, with up to three values perturbed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, atoms = draw(st.integers(2, 5)), draw(st.integers(1, 6))
    p = rng.dirichlet(np.ones(atoms)) * (rng.random(atoms) < 0.8)
    p = p / p.sum() if p.any() else np.eye(atoms)[0]
    sets = rng.random((n, atoms)) < 0.5
    mu = [float(p[s].sum()) for s in sets]
    xor = [[float(p[a ^ b].sum()) for b in sets] for a in sets]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(PERTURBATIONS))
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        value = {
            "negative": -draw(st.floats(1e-300, 1.0)),
            "above": 1.0 + draw(st.sampled_from([1.1e-12, 1e-9, 0.5])),
            "edge": 1.0 + 1e-12,  # on the tolerance: accepted
            "nan": math.nan,
            "below_gap": abs(mu[i] - mu[j]) - draw(st.sampled_from([0.5e-12, 2e-12, 1e-6])),
            "above_sum": mu[i] + mu[j] + draw(st.sampled_from([0.5e-12, 2e-12, 1e-6])),
        }[kind]
        if kind in ("negative", "above", "edge", "nan") and draw(st.booleans()):
            mu[i] = value  # a set's own measure: its row and column
        else:
            xor[i][j] = xor[j][i] = value
    return mu, xor, draw(st.floats(0.01, 0.99))


class TestMuTable:
    """``mu_pair_masses`` against the one-pair checks, pair by pair."""

    @settings(max_examples=200, deadline=None)
    @given(mu_tables())
    def test_raises_what_the_first_failing_pair_raises(self, problem):
        mu, xor, threshold = problem
        pairs = list(itertools.combinations(range(len(mu)), 2))
        problems = [legacy_mu_problem(mu[i], mu[j], xor[i][j]) for i, j in pairs]
        expected = next((msg for msg in problems if msg is not None), None)
        if expected is not None:
            assert "np." not in expected
            with pytest.raises(ValidationError) as err:
                mu_pair_masses(mu, mu, xor)
            assert str(err.value) == expected
            return
        table = mu_pair_masses(mu, mu, xor)
        typical = table.typical(threshold)
        for i, j in pairs:
            one = report_from_masses(xor[i][j], mu[i], mu[j], threshold)
            assert report_bits(table.report(i, j, threshold)) == report_bits(one)
            assert bool(typical[i, j]) is (one.verdict is Verdict.MUTUALLY_TYPICAL)

    @settings(max_examples=200, deadline=None)
    @given(mu_tables())
    def test_one_pair_function_raises_what_the_checks_raise(self, problem):
        mu, xor, threshold = problem
        for i, j in itertools.combinations(range(len(mu)), 2):
            expected = legacy_mu_problem(mu[i], mu[j], xor[i][j])
            if expected is None:
                one = mutual_typicality_measure_mu(mu[i], mu[j], xor[i][j], threshold)
                legacy = report_from_masses(xor[i][j], mu[i], mu[j], threshold)
                assert report_bits(one) == report_bits(legacy)
            else:
                with pytest.raises(ValidationError) as err:
                    mutual_typicality_measure_mu(mu[i], mu[j], xor[i][j], threshold)
                assert str(err.value) == expected

    def test_every_entry_is_checked_in_row_major_order(self):
        # A rectangular table: rows and columns are different sets.
        rows, cols = [0.5, 0.25], [0.5, 0.75]
        table = mu_pair_masses(rows, cols, [[0.0, 0.25], [0.25, 0.5]])
        assert table.diff_sq.shape == (2, 2)
        assert table.report(1, 1, 0.9).m_big == 0.5 / 0.75
        # (1, 0) and (1, 1) both fail; (1, 0) comes first.
        with pytest.raises(ValidationError, match=r"^inconsistent measures: \|0\.25 - 0\.5\| > 0\.2$"):
            mu_pair_masses(rows, cols, [[0.0, 0.25], [0.2, 1.5]])
        # Entries on and below the diagonal are checked too.
        with pytest.raises(ValidationError, match=r"^mu_symm_diff=nan outside"):
            mu_pair_masses(rows, rows, [[0.0, 0.25], [math.nan, 0.0]])


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

    @pytest.mark.parametrize(
        "m_big, m_small, holds",
        [
            (0.5, 0.1, False),  # sqrt(M) > sqrt(m)
            (0.5, 0.5, True),  # at the lower bound
            (0.25, 1.5, False),  # sqrt(m) > sqrt(M) / (1 - sqrt(M)) = 1
            (0.25, 1.0, True),  # at the upper bound
        ],
    )
    def test_each_bound_can_fail(self, m_big, m_small, holds):
        assert check_inequality_chain(chain_report(m_big, m_small)) is holds

    def test_corollary_fails_only_past_a_loose_tolerance(self):
        # m = 1.5 > 2M + tol while both bounds hold within tol = 1.
        report = chain_report(0.08, 1.5)
        assert check_inequality_chain(report, tol=1.0) is False
        assert check_inequality_chain(report) is False  # on the upper bound

    @settings(max_examples=500, deadline=None)
    @given(st.floats(0.0, 0.08), st.floats(0.0, 1.0))
    def test_corollary_follows_from_the_upper_bound(self, m_big, fraction):
        """1/(1 - sqrt(0.08))**2 < 2, so at ``CHAIN_TOL`` the corollary's
        check never decides the verdict: every m up to the upper bound has
        m <= 2M + CHAIN_TOL."""
        tol = typicality.CHAIN_TOL
        root_big = math.sqrt(m_big)
        upper = root_big / (1.0 - root_big) + tol
        m_small = (fraction * upper) ** 2
        root_small = math.sqrt(m_small)
        if root_big <= root_small + tol and root_small <= upper:  # both bounds hold
            assert m_small <= 2.0 * m_big + tol
            assert check_inequality_chain(chain_report(m_big, m_small))


# Squared masses of two vectors of norm at most 1 and of their difference.
MASSES = st.floats(0.0, 4.0) | st.sampled_from([0.0, 5e-324, 1e-14, 1.0])


@settings(max_examples=500, deadline=None)
@given(MASSES, MASSES, MASSES)
def test_lower_bound_holds_exactly_for_built_reports(diff_sq, norm1_sq, norm2_sq):
    """One squared difference over the larger and over the smaller mass:
    rounded division and square root are monotone, so sqrt(M) <= sqrt(m)
    with no tolerance."""
    report = report_from_masses(diff_sq, norm1_sq, norm2_sq, 0.08)
    if not report.degenerate:
        assert math.sqrt(report.m_big) <= math.sqrt(report.m_small)
        if report.m_big >= 1.0:  # the checker reads the lower bound alone
            assert check_inequality_chain(report, tol=0.0)


def chain_report(m_big, m_small):
    """A non-degenerate report with the given measures, for the chain alone."""
    return typicality.TypicalityReport(m_big, m_small, 1.0, 1.0, 0.08, Verdict.NOT_TYPICAL)


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
