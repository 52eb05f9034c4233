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
from qtypicality.cli import main
from qtypicality.wavepacket import (
    MAX_GRID_POINTS,
    SUPPORT_MASS_CUTOFF,
    GridState,
    _free_phase,
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


class TestGridState:
    def test_non_integral_point_count_rejected(self):
        # packet_support once read this with a bare IndexError.
        with pytest.raises(ValidationError, match="n_points 4096.5"):
            GridState(4096.5, 200.0, np.ones(4097, complex), 0.0)

    def test_amplitude_count_must_match(self):
        # free_evolve once failed on it with a broadcast ValueError.
        with pytest.raises(ValidationError, match=r"shape \(10,\) do not fit 4096"):
            GridState(4096, 200.0, np.ones(10, complex), 0.0)

    @pytest.mark.parametrize("n_points", [0, -1, True, np.int64(8), "8", None])
    def test_point_count_must_be_a_positive_int(self, n_points):
        with pytest.raises(ValidationError, match="n_points"):
            GridState(n_points, 200.0, np.ones(8, complex), 0.0)

    @pytest.mark.parametrize("amplitudes", [np.ones((2, 4), complex), np.ones(9, complex),
                                            np.complex128(1.0)])
    def test_amplitudes_must_be_one_per_point(self, amplitudes):
        with pytest.raises(ValidationError, match="amplitudes"):
            GridState(8, 200.0, amplitudes, 0.0)

    @pytest.mark.parametrize("length", [0.0, -1.0, math.inf, math.nan, "200", None])
    def test_length_must_be_finite_and_positive(self, length):
        with pytest.raises(ValidationError, match="length"):
            GridState(8, length, np.ones(8, complex), 0.0)

    def test_a_valid_grid_is_kept_as_given(self, packet):
        state = GridState(packet.n_points, packet.length, packet.amplitudes, 1.5, True)
        assert state.amplitudes is packet.amplitudes
        assert (state.n_points, state.length, state.time, state.boundary_flag) == (
            4096, 200.0, 1.5, True)


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

    @pytest.mark.parametrize("n_points", [4096.5, "4096", None, True, math.nan])
    def test_non_integral_grid_size_rejected(self, n_points):
        # 4096.5 once gave a state of 4,097 amplitudes on a 4096.5-point dx.
        with pytest.raises(ValidationError, match="n_points .* is not an integer"):
            gaussian_packet(0.0, 1.0, 0.0, n_points=n_points)

    @pytest.mark.parametrize("n_points", [256.0, np.int64(256), np.float64(256.0)])
    def test_integral_grid_size_read_as_int(self, n_points):
        state = gaussian_packet(0.0, 1.0, 2.0, n_points=n_points, length=40.0)
        assert type(state.n_points) is int
        same = gaussian_packet(0.0, 1.0, 2.0, 256, 40.0)
        assert state.amplitudes.tobytes() == same.amplitudes.tobytes()

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


def reference_support(state, mass_cutoff=SUPPORT_MASS_CUTOFF):
    """``packet_support`` from the moment functions: the mean from
    ``position_mean``, the density from ``density() * dx / mass``."""
    center = position_mean(state)
    density = state.density() * state.dx / state.mass
    radii = np.abs(state.x - center)
    order = np.argsort(radii)
    cumulative = np.cumsum(density[order])
    stop = int(np.searchsorted(cumulative, 1.0 - mass_cutoff)) + 1
    radius = float(radii[order[min(stop, state.n_points - 1)]])
    return (center - radius, center + radius)


# A packet masked far outside its bulk: the masked mass underflows to 0.0.
def massless_state():
    return mask_interval(gaussian_packet(0.0, 1.0, 1.0), (50.0, 60.0))


class TestNoMass:
    @pytest.mark.parametrize(
        "function", [packet_support, position_mean, position_var, momentum_mean_sq],
    )
    @pytest.mark.parametrize("state", [
        massless_state,
        lambda: GridState(16, 4.0, np.full(16, np.nan + 0j), 0.0),
    ], ids=["zero", "nan"])
    def test_measure_of_a_state_without_mass_is_rejected(self, function, state):
        with pytest.raises(ValidationError, match=f"^{function.__name__}: the state has no mass"):
            function(state())

    @pytest.mark.parametrize(
        "function", [packet_support, position_mean, position_var, momentum_mean_sq],
    )
    @pytest.mark.parametrize("amplitude", [np.inf, 1e200], ids=["inf", "square-overflows"])
    def test_measure_of_a_state_without_finite_mass_is_rejected(self, function, amplitude):
        # Under the suite's RuntimeWarning filter: the mass is checked before
        # any product that would warn. An infinite amplitude makes the
        # spectrum NaN, which momentum_mean_sq reports as no mass.
        state = GridState(16, 4.0, np.full(16, amplitude + 0j), 0.0)
        message = f"^{function.__name__}: the state has (infinite|no) mass"
        with pytest.raises(ValidationError, match=message):
            function(state)

    def test_cancelling_superposition_is_rejected(self, packet):
        opposite = GridState(packet.n_points, packet.length, -packet.amplitudes, packet.time)
        with pytest.raises(ValidationError, match="^superposition: the state has no mass"):
            superposition(packet, opposite)


class TestSupportBits:
    """``packet_support`` computes each moment once; its intervals keep the
    bits of the moment functions'."""

    @pytest.mark.parametrize("cutoff", [SUPPORT_MASS_CUTOFF, 1e-3, 1e-9])
    def test_packet_fixture(self, packet, cutoff):
        later = free_evolve(packet, 3.0)
        for state in (packet, later):
            assert packet_support(state, cutoff) == reference_support(state, cutoff)

    def test_offset_and_superposed_packets(self):
        shifted = gaussian_packet(center=-5.0, width_sigma=1.5, momentum=0.0)
        both = superposition(gaussian_packet(-10.0, 1.0, -2.0), gaussian_packet(10.0, 1.0, 2.0))
        for state in (shifted, both, free_evolve(both, 0.5)):
            assert packet_support(state) == reference_support(state)

    @pytest.mark.parametrize("args", [
        (4.0, 1.0, 2.0, 4096, 200.0),
        (5.5, 0.7, -3.0, 1024, 80.0),
        (2.0, 1.0, 1e-5, 256, 20.0),
    ])
    def test_both_packets_of_a_sweep_pair(self, args):
        dt = args[1] / args[2]
        for state in packet_pair(*args):
            for moment in (state, free_evolve(state, dt)):
                assert packet_support(moment) == reference_support(moment)


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


def fresh(call, *args):
    """``call(*args)`` with the phase memo emptied first, so that the one
    evolution it runs builds its own phase."""
    _free_phase.cache_clear()
    return call(*args)


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
        both_t2 = fresh(free_evolve, both_t1, dt)
        support_t1 = packet_support(left, SUPPORT_MASS_CUTOFF)
        support_t2 = packet_support(fresh(free_evolve, left, dt), SUPPORT_MASS_CUTOFF)
        report = fresh(support_condition_check, both_t1, support_t1, both_t2, support_t2)
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

    def test_aliased_momentum_rejected(self):
        # pi/dx is 64.3 on the default grid: a packet at momentum 100 drifts
        # to <x> = -1.43 instead of +5.0, and its sweep is not monotone.
        with pytest.raises(ValidationError, match="^momentum 100.0 aliases"):
            separation_sweep(momentum=100.0)

    @pytest.mark.parametrize("separation", [math.nan, math.inf])
    def test_non_finite_separation_rejected(self, separation):
        with pytest.raises(ValidationError, match="separation"):
            separation_sweep(separations_sigma=(4.0, separation))


class TestNyquistMargin:
    """A packet keeps 6 momentum widths 1/(2 sigma) from pi/dx."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_the_margin_is_the_boundary(self, sign):
        limit = math.pi / (200.0 / 4096) - 3.0
        gaussian_packet(0.0, 1.0, sign * (limit - 1e-12))
        with pytest.raises(ValidationError, match=f"^momentum {sign * limit} aliases"):
            gaussian_packet(0.0, 1.0, sign * limit)

    def test_the_margin_grows_as_sigma_shrinks(self):
        # sigma = 0.25 is within the resolution limit of 4 dx = 0.195, and
        # its 3 / sigma = 12 leaves momenta up to 52.3.
        gaussian_packet(0.0, 0.25, 52.0)
        with pytest.raises(ValidationError, match="aliases"):
            gaussian_packet(0.0, 0.25, 53.0)

    def test_a_packet_below_the_margin_drifts_as_it_should(self):
        packet = gaussian_packet(0.0, 1.0, 60.0)
        assert position_mean(free_evolve(packet, 0.05)) == pytest.approx(3.0, abs=1e-9)


class TestPhaseMemo:
    @pytest.mark.parametrize("grid", [(4096, 200.0), (1024, 80.0)])
    @pytest.mark.parametrize("dt", [0.5, -0.5, 0.0, -0.0])
    def test_cached_phase_is_the_computed_phase_read_only(self, grid, dt):
        _free_phase.cache_clear()
        cached = _free_phase(*grid, dt)
        assert _free_phase(*grid, dt) is cached
        assert cached.tobytes() == _free_phase.__wrapped__(*grid, dt).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0.0

    def test_signed_zero_dt_shares_one_key(self):
        # exp(-i k^2 dt / 2) has the same bits for dt = 0.0 and -0.0.
        _free_phase.cache_clear()
        zero = _free_phase(4096, 200.0, 0.0)
        assert _free_phase(4096, 200.0, -0.0) is zero
        assert zero.tobytes() == _free_phase.__wrapped__(4096, 200.0, -0.0).tobytes()

    def test_memo_holds_one_phase(self):
        _free_phase.cache_clear()
        _free_phase(4096, 200.0, 0.5)
        _free_phase(1024, 80.0, 0.5)
        assert _free_phase.cache_info().currsize == 1

    def test_default_sweep_builds_its_phase_once(self):
        _free_phase.cache_clear()
        separation_sweep()
        info = _free_phase.cache_info()
        assert (info.misses, info.hits) == (1, 11)

    def test_second_sweep_report_has_the_same_bytes(self, capsys):
        # The second request reads the phase the first one kept.
        _free_phase.cache_clear()
        reports = []
        for _ in range(2):
            assert main(["wavepacket"]) == 0
            reports.append(capsys.readouterr().out)
        assert _free_phase.cache_info().misses == 1
        assert reports[0] == reports[1]
