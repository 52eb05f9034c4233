import math

import numpy as np
import pytest

from qtypicality import (
    ResourceLimitError,
    ValidationError,
    Verdict,
    free_evolve,
    gaussian_packet,
    packet_support,
    separation_sweep,
    superposition,
    support_condition_check,
)
from qtypicality.wavepacket import (
    MAX_GRID_POINTS,
    SUPPORT_MASS_CUTOFF,
    mask_interval,
    momentum_mean_sq,
    packet_pair,
    position_mean,
    position_var,
    spread_sigma,
)


@pytest.fixture
def packet():
    return gaussian_packet(center=0.0, width_sigma=1.0, momentum=2.0)


class TestGaussianPacket:
    def test_normalized(self, packet):
        assert packet.mass == pytest.approx(1.0, abs=1e-12)

    def test_moments(self, packet):
        assert position_mean(packet) == pytest.approx(0.0, abs=1e-12)
        assert position_var(packet) == pytest.approx(1.0, rel=1e-10)

    def test_offset_center(self):
        shifted = gaussian_packet(center=-5.0, width_sigma=1.5, momentum=0.0)
        assert position_mean(shifted) == pytest.approx(-5.0, abs=1e-10)
        assert position_var(shifted) == pytest.approx(1.5**2, rel=1e-10)

    def test_under_resolved_rejected(self):
        with pytest.raises(ValidationError):
            gaussian_packet(0.0, 0.05, 0.0, n_points=256, length=200.0)

    @pytest.mark.parametrize("n_points", [0, -4])
    def test_no_grid_points_rejected(self, n_points):
        with pytest.raises(ValidationError, match="n_points"):
            gaussian_packet(0.0, 1.0, 0.0, n_points=n_points)

    @pytest.mark.parametrize("n_points", [MAX_GRID_POINTS + 1, 10**9, 10**15])
    def test_grid_past_the_limit_rejected_before_allocation(self, n_points):
        # Values this large would take gigabytes; the guard must come first.
        with pytest.raises(ResourceLimitError, match="grid limit"):
            gaussian_packet(0.0, 1.0, 0.0, n_points=n_points)

    @pytest.mark.parametrize(
        "bad",
        [
            {"width_sigma": math.nan},
            {"width_sigma": math.inf},
            {"length": math.nan},
            {"length": math.inf},
            {"length": -200.0},
            {"center": math.nan},
            {"momentum": math.nan},
            {"momentum": -math.inf},
            {"momentum": 1e308},  # finite, but momentum * x overflows
        ],
    )
    def test_non_finite_or_non_positive_rejected(self, bad):
        kwargs = {"center": 0.0, "width_sigma": 1.0, "momentum": 2.0, **bad}
        name = next(iter(bad)).replace("width_", "")
        with pytest.raises(ValidationError, match=f"^{name} "):
            gaussian_packet(**kwargs)

    def test_too_close_to_boundary_rejected(self):
        with pytest.raises(ValidationError):
            gaussian_packet(center=98.0, width_sigma=1.0, momentum=0.0)

    def test_distant_packets_orthogonal(self):
        a = gaussian_packet(-10.0, 1.0, 0.0)
        b = gaussian_packet(10.0, 1.0, 0.0)
        overlap = abs(np.vdot(a.amplitudes, b.amplitudes) * a.dx)
        assert overlap < 1e-10


class TestFreeEvolution:
    def test_zero_dt_identity(self, packet):
        out = free_evolve(packet, 0.0)
        np.testing.assert_allclose(out.amplitudes, packet.amplitudes, atol=1e-12)

    def test_mass_conserved(self, packet):
        assert free_evolve(packet, 3.0).mass == pytest.approx(1.0, abs=1e-12)

    def test_drift_at_group_velocity(self, packet):
        out = free_evolve(packet, 2.5)
        assert position_mean(out) == pytest.approx(2.0 * 2.5, rel=1e-6)

    def test_spreading_matches_analytic(self, packet):
        out = free_evolve(packet, 3.0)
        assert math.sqrt(position_var(out)) == pytest.approx(
            spread_sigma(1.0, 3.0), rel=1e-6
        )

    def test_energy_conserved(self, packet):
        before = momentum_mean_sq(packet)
        after = momentum_mean_sq(free_evolve(packet, 4.0))
        assert after == pytest.approx(before, rel=1e-12)

    def test_reversibility(self, packet):
        back = free_evolve(free_evolve(packet, 2.0), -2.0)
        np.testing.assert_allclose(back.amplitudes, packet.amplitudes, atol=1e-10)
        assert back.time == pytest.approx(0.0)

    def test_boundary_flag_raised_on_seam_contact(self):
        mover = gaussian_packet(80.0, 1.0, 5.0)
        out = free_evolve(mover, 5.0)  # drifts ~25 units, past the seam at 100
        assert out.boundary_flag

    def test_boundary_flag_clear_in_interior(self, packet):
        assert not free_evolve(packet, 1.0).boundary_flag

    @pytest.mark.parametrize("dt", [1e305, math.inf, math.nan])
    def test_non_finite_phase_rejected(self, packet, dt):
        with pytest.raises(ValidationError, match="evolution phase"):
            free_evolve(packet, dt)


class TestSupport:
    def test_contains_bulk_of_mass(self, packet):
        lo, hi = packet_support(packet)
        masked = mask_interval(packet, (lo, hi))
        assert masked.mass == pytest.approx(1.0, abs=2e-6)
        assert 4.0 < hi - lo < 12.0

    def test_grows_with_cutoff_tightening(self, packet):
        loose = packet_support(packet, mass_cutoff=1e-3)
        tight = packet_support(packet, mass_cutoff=1e-9)
        assert tight[0] < loose[0] < loose[1] < tight[1]

    def test_mask_interval_masses_partition(self, packet):
        inside = mask_interval(packet, (-1.0, 1.0)).mass
        outside = (
            mask_interval(packet, (-100.0, -1.0)).mass
            + mask_interval(packet, (1.0, 100.0)).mass
        )
        assert inside + outside == pytest.approx(1.0, abs=1e-12)


class TestSupportCondition:
    def test_single_packet_follows_itself(self, packet):
        later = free_evolve(packet, 0.5)
        report = support_condition_check(
            packet, packet_support(packet), later, packet_support(later)
        )
        assert report.m_big < 1e-5
        assert report.verdict is Verdict.MUTUALLY_TYPICAL

    def test_equal_time_disjoint_halves(self, packet):
        # disjoint masks of the same symmetric state: diff mass is the sum
        # of the two half-masses, so the measure sits at (m1+m2)/max = 2
        report = support_condition_check(
            packet, (-100.0, 0.0), packet, (0.0, 100.0)
        )
        assert report.m_big * max(report.norm1_sq, report.norm2_sq) == pytest.approx(
            report.norm1_sq + report.norm2_sq, abs=1e-12
        )
        assert report.verdict is Verdict.NOT_TYPICAL

    def test_disjoint_branches_not_typical(self):
        left = gaussian_packet(-10.0, 1.0, -2.0)
        right = gaussian_packet(10.0, 1.0, 2.0)
        both = superposition(left, right)
        later = free_evolve(both, 0.5)
        # left branch at t1 against the right branch's support at t2
        report = support_condition_check(
            both,
            packet_support(left),
            later,
            packet_support(free_evolve(right, 0.5)),
        )
        assert report.verdict is Verdict.NOT_TYPICAL

    def test_mismatched_grids_rejected(self, packet):
        other = gaussian_packet(0.0, 1.0, 0.0, n_points=2048, length=200.0)
        with pytest.raises(ValidationError):
            support_condition_check(packet, (-5, 5), other, (-5, 5))


def per_call_sweep(separations_sigma, sigma, momentum, n_points, length):
    """``separation_sweep``'s rows by the public calls, each evolution
    building its own phase."""
    if momentum == 0.0:
        raise ValidationError("momentum must be nonzero: packets must separate")
    rows = []
    dt = sigma / momentum
    for s in separations_sigma:
        left, right = packet_pair(s, sigma, momentum, n_points, length)
        both_t1 = superposition(left, right)
        both_t2 = free_evolve(both_t1, dt)
        support_t1 = packet_support(left, SUPPORT_MASS_CUTOFF)
        support_t2 = packet_support(free_evolve(left, dt), SUPPORT_MASS_CUTOFF)
        report = support_condition_check(both_t1, support_t1, both_t2, support_t2)
        rows.append((float(s), report.m_big))
    return rows


def sweep_outcome(sweep, *args):
    """The rows ``sweep(*args)`` returns, or the type and text of its error."""
    try:
        return sweep(*args)
    except ValidationError as exc:
        return type(exc), str(exc)


class TestSeparationSweep:
    @pytest.mark.parametrize("args", [
        ((4.0, 6.0, 8.0, 10.0), 1.0, 2.0, 4096, 200.0),
        ((3.0, 5.5, 12.0), 0.7, -3.0, 1024, 80.0),
        ((1.0, 2.0, 4.0), 1.0, 1e-5, 256, 20.0),
    ])
    def test_rows_equal_the_per_call_path_exactly(self, args):
        assert separation_sweep(*args) == per_call_sweep(*args)

    # 1e-306 drifts the packets by sigma in dt = 1e306, whose phase overflows.
    @pytest.mark.parametrize("separations", [(4.0, 6.0), (4.0, math.nan), (math.nan, 4.0)])
    def test_non_finite_phase_raises_where_the_per_call_path_does(self, separations):
        args = (separations, 1.0, 1e-306, 4096, 200.0)
        outcome = sweep_outcome(separation_sweep, *args)
        assert outcome == sweep_outcome(per_call_sweep, *args)
        assert outcome[1] == (
            "separation nan must be finite" if math.isnan(separations[0])
            else f"evolution phase for dt {1.0 / 1e-306} is not finite"
        )

    def test_monotone_decrease_and_far_limit(self):
        rows = separation_sweep()
        values = [m for _, m in rows]
        assert values == sorted(values, reverse=True)
        assert all(m < 0.01 for s, m in rows if s >= 8.0)
        assert rows[0][1] > 0.1  # overlapping branches clearly fail

    def test_custom_separations(self):
        rows = separation_sweep(separations_sigma=(12.0,))
        assert rows[0][1] < 1e-4

    def test_zero_momentum_rejected(self):
        with pytest.raises(ValidationError, match="momentum"):
            separation_sweep(momentum=0.0)

    @pytest.mark.parametrize("separation", [math.nan, math.inf])
    def test_non_finite_separation_rejected(self, separation):
        with pytest.raises(ValidationError, match="separation"):
            separation_sweep(separations_sigma=(4.0, separation))
