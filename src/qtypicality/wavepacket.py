"""Gaussian packets on a 1-D periodic grid under exact free evolution.

Demonstrates the approximate support conditions of the mode-level model in
a genuine continuum-like setting: two branch packets separate, and the
mutual typicality between a branch's supports at two times drops with the
separation. Units have hbar = m = 1; evolution is spectral (momentum-space
phase multiplication) and therefore exactly unitary on the grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .typicality import DEFAULT_THRESHOLD, TypicalityReport, report_from_masses

SUPPORT_MASS_CUTOFF = 1e-6
SEAM_POINTS = 3
SEAM_MASS_FLAG = 1e-6
# 64 MB per complex grid array; a sweep holds several at once.
MAX_GRID_POINTS = 2**22


@dataclass(frozen=True)
class GridState:
    """Complex amplitudes on a periodic grid over [-length/2, length/2)."""

    n_points: int
    length: float
    amplitudes: np.ndarray
    time: float
    boundary_flag: bool = False

    @property
    def dx(self) -> float:
        return self.length / self.n_points

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.n_points) - self.n_points // 2) * self.dx

    @property
    def mass(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.dx)

    def density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _same_grid(a: GridState, b: GridState) -> None:
    if a.n_points != b.n_points or a.length != b.length:
        raise ValidationError("grid states live on different grids")


def gaussian_packet(
    center: float,
    width_sigma: float,
    momentum: float,
    n_points: int = 4096,
    length: float = 200.0,
) -> GridState:
    """Normalized Gaussian with position spread ``width_sigma``.

    The density is N(center, width_sigma^2); the momentum enters as a plane
    wave factor. The packet must be resolvable (sigma >= 4 dx) and sit at
    least 6 sigma away from the periodic seam.
    """
    if n_points < 1:
        raise ValidationError(f"n_points {n_points} must be at least 1")
    if n_points > MAX_GRID_POINTS:
        raise ResourceLimitError(f"n_points {n_points} exceeds the grid limit {MAX_GRID_POINTS}")
    for name, value in (("sigma", width_sigma), ("length", length)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValidationError(f"{name} {value} must be finite and positive")
    for name, value in (("center", center), ("momentum", momentum)):
        if not math.isfinite(value):
            raise ValidationError(f"{name} {value} must be finite")
    dx = length / n_points
    if width_sigma < 4.0 * dx:
        raise ValidationError(f"sigma {width_sigma} below resolution limit {4 * dx}")
    if abs(center) > length / 2.0 - 6.0 * width_sigma:
        raise ValidationError("packet closer than 6 sigma to the boundary")
    x = (np.arange(n_points) - n_points // 2) * dx
    if not math.isfinite(momentum * float(x[0])):  # x[0] has the largest |x|
        raise ValidationError(f"momentum {momentum} gives a non-finite plane-wave phase")
    amp = np.exp(-((x - center) ** 2) / (4.0 * width_sigma**2) + 1j * momentum * x)
    amp /= math.sqrt(float(np.sum(np.abs(amp) ** 2) * dx))
    return GridState(n_points, float(length), amp, 0.0)


def superposition(a: GridState, b: GridState) -> GridState:
    """Normalized equal-weight superposition of two states at the same time."""
    _same_grid(a, b)
    if a.time != b.time:
        raise ValidationError("superposing states at different times")
    amp = a.amplitudes + b.amplitudes
    amp = amp / math.sqrt(float(np.sum(np.abs(amp) ** 2) * a.dx))
    return GridState(a.n_points, a.length, amp, a.time)


def _free_phase(state: GridState, dt: float) -> np.ndarray:
    """The momentum-space phase ``exp(-i k^2 dt / 2)`` on ``state``'s grid."""
    k = 2.0 * math.pi * np.fft.fftfreq(state.n_points, d=state.dx)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.exp(-0.5j * k**2 * dt)
    if not np.isfinite(phase).all():  # k**2 * dt overflowed, or dt is not finite
        raise ValidationError(f"evolution phase for dt {dt} is not finite")
    return phase


def free_evolve(state: GridState, dt: float) -> GridState:
    """Exact free-particle evolution by ``dt`` (negative dt runs backward)."""
    return _evolve_by_phase(state, dt, _free_phase(state, dt))


def _evolve_by_phase(state: GridState, dt: float, phase: np.ndarray) -> GridState:
    """``free_evolve(state, dt)`` given ``_free_phase`` of the same grid and ``dt``."""
    amp = np.fft.ifft(np.fft.fft(state.amplitudes) * phase)
    seam = np.r_[0:SEAM_POINTS, state.n_points - SEAM_POINTS : state.n_points]
    seam_mass = float(np.sum(np.abs(amp[seam]) ** 2) * state.dx)
    return GridState(
        state.n_points,
        state.length,
        amp,
        state.time + dt,
        boundary_flag=seam_mass >= SEAM_MASS_FLAG,
    )


def position_mean(state: GridState) -> float:
    return float(np.sum(state.x * state.density()) * state.dx / state.mass)


def position_var(state: GridState) -> float:
    mean = position_mean(state)
    return float(
        np.sum((state.x - mean) ** 2 * state.density()) * state.dx / state.mass
    )


def momentum_mean_sq(state: GridState) -> float:
    k = 2.0 * math.pi * np.fft.fftfreq(state.n_points, d=state.dx)
    spectrum = np.abs(np.fft.fft(state.amplitudes)) ** 2
    return float(np.sum(k**2 * spectrum) / np.sum(spectrum))


def spread_sigma(sigma0: float, t: float) -> float:
    """Analytic free-Gaussian width sigma(t) = sigma0 sqrt(1 + (t/2 sigma0^2)^2)."""
    return sigma0 * math.sqrt(1.0 + (t / (2.0 * sigma0**2)) ** 2)


def packet_support(
    state: GridState, mass_cutoff: float = SUPPORT_MASS_CUTOFF
) -> tuple:
    """Smallest centered interval holding all but ``mass_cutoff`` of the mass.

    Centered on the packet's mean position; the cutoff operationalizes the
    otherwise informal notion of a packet's support.
    """
    center = position_mean(state)
    density = state.density() * state.dx / state.mass
    radii = np.abs(state.x - center)
    order = np.argsort(radii)
    cumulative = np.cumsum(density[order])
    stop = int(np.searchsorted(cumulative, 1.0 - mass_cutoff)) + 1
    radius = float(radii[order[min(stop, state.n_points - 1)]])
    return (center - radius, center + radius)


def mask_interval(state: GridState, interval: tuple) -> GridState:
    """Zero the amplitudes outside [lo, hi); the grid realization of E(Delta)."""
    lo, hi = interval
    keep = (state.x >= lo) & (state.x < hi)
    return GridState(
        state.n_points, state.length, state.amplitudes * keep, state.time
    )


def support_condition_check(
    state_t1: GridState,
    region1: tuple,
    state_t2: GridState,
    region2: tuple,
    threshold: float = DEFAULT_THRESHOLD,
) -> TypicalityReport:
    """Mutual typicality of (t1, region1) and (t2, region2) for one evolution.

    Evolves the masked earlier state to the later time and compares it with
    the masked later state, exactly the support condition of the
    non-overlapping packet picture.
    """
    _same_grid(state_t1, state_t2)
    dt = state_t2.time - state_t1.time
    moved = free_evolve(mask_interval(state_t1, region1), dt)
    return _support_report(moved, state_t2, region2, threshold)


def _support_report(
    moved: GridState, state_t2: GridState, region2: tuple, threshold: float
) -> TypicalityReport:
    """The report of ``support_condition_check`` given its evolved masked
    earlier state ``moved``."""
    fixed = mask_interval(state_t2, region2)
    diff = moved.amplitudes - fixed.amplitudes
    diff_sq = float(np.sum(np.abs(diff) ** 2) * moved.dx)
    return report_from_masses(diff_sq, moved.mass, fixed.mass, threshold)


def packet_pair(
    separation_sigma: float, sigma: float, momentum: float, n_points: int, length: float
) -> tuple:
    """The packets ``(left, right)``, centred ``separation_sigma * sigma``
    apart, with momenta ``-momentum`` and ``momentum``."""
    if not math.isfinite(separation_sigma):
        raise ValidationError(f"separation {separation_sigma} must be finite")
    half = 0.5 * separation_sigma * sigma
    # Built first, so an error names the momentum as given.
    right = gaussian_packet(half, sigma, momentum, n_points, length)
    return gaussian_packet(-half, sigma, -momentum, n_points, length), right


def separation_sweep(
    separations_sigma=(4.0, 6.0, 8.0, 10.0),
    sigma: float = 1.0,
    momentum: float = 2.0,
    n_points: int = 4096,
    length: float = 200.0,
    mass_cutoff: float = SUPPORT_MASS_CUTOFF,
):
    """Branch-support typicality versus packet separation.

    For each separation s (in units of sigma) two counter-propagating
    packets start s*sigma apart; the left-moving branch's support is read
    off the isolated packet at both times, and the mutual typicality of the
    two supports is computed on the full two-packet state. Returns
    (separation, m_big) rows.

    Every packet lives on one grid and every evolution runs for one ``dt``,
    so all evolutions after the first share one phase. The first is a
    ``free_evolve`` call, which raises for a non-finite phase, and is the
    evolution that the benchmark's tracer wraps and counts.
    """
    if momentum == 0.0:
        raise ValidationError("momentum must be nonzero: packets must separate")
    rows = []
    dt = sigma / momentum  # each packet drifts by one sigma
    phase = None
    for s in separations_sigma:
        left, right = packet_pair(s, sigma, momentum, n_points, length)
        both_t1 = superposition(left, right)
        if phase is None:
            both_t2 = free_evolve(both_t1, dt)
            phase = _free_phase(both_t1, dt)
        else:
            both_t2 = _evolve_by_phase(both_t1, dt, phase)
        support_t1 = packet_support(left, mass_cutoff)
        support_t2 = packet_support(_evolve_by_phase(left, dt, phase), mass_cutoff)
        # support_condition_check(both_t1, support_t1, both_t2, support_t2),
        # whose evolution time both_t2.time - both_t1.time is dt.
        moved = _evolve_by_phase(mask_interval(both_t1, support_t1), dt, phase)
        report = _support_report(moved, both_t2, support_t2, DEFAULT_THRESHOLD)
        rows.append((float(s), report.m_big))
    return rows
