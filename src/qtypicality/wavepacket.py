"""Gaussian packets on a 1-D periodic grid under exact free evolution.

Demonstrates the approximate support conditions of the mode-level model in
a genuine continuum-like setting: two branch packets separate, and the
mutual typicality between a branch's supports at two times drops with the
separation. Units have hbar = m = 1; evolution is spectral (momentum-space
phase multiplication) and therefore exactly unitary on the grid.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import _as_int
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

    def __post_init__(self):
        """Check the grid in O(1): a positive int point count, one amplitude
        per point, and a finite positive length."""
        n, length = self.n_points, self.length
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValidationError(f"n_points {n!r} must be an int of at least 1")
        if np.shape(self.amplitudes) != (n,):
            raise ValidationError(
                f"amplitudes of shape {np.shape(self.amplitudes)} do not fit {n} grid points")
        if not (isinstance(length, (int, float)) and math.isfinite(length) and length > 0.0):
            raise ValidationError(f"length {length!r} must be finite and positive")

    @property
    def dx(self) -> float:
        return self.length / self.n_points

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.n_points) - self.n_points // 2) * self.dx

    @property
    def mass(self) -> float:
        return float(np.sum(self.density()) * self.dx)

    def density(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # a square past float range reads inf
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
    least 6 sigma from the periodic seam and 6 momentum widths 1/(2 sigma)
    from the Nyquist wavenumber pi/dx, past which it aliases.
    """
    n_points = _as_int(n_points, "n_points")
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
    if abs(momentum) + 3.0 / width_sigma >= math.pi / dx:
        raise ValidationError(f"momentum {momentum} aliases: |k| + 3/sigma >= pi/dx {math.pi / dx}")
    amp = np.exp(-((x - center) ** 2) / (4.0 * width_sigma**2) + 1j * momentum * x)
    amp /= math.sqrt(float(np.sum(np.abs(amp) ** 2) * dx))
    return GridState(n_points, float(length), amp, 0.0)


def superposition(a: GridState, b: GridState) -> GridState:
    """Normalized equal-weight superposition of two states at the same time."""
    _same_grid(a, b)
    if a.time != b.time:
        raise ValidationError("superposing states at different times")
    amp = a.amplitudes + b.amplitudes
    amp = amp / math.sqrt(_positive(float(np.sum(np.abs(amp) ** 2) * a.dx), "superposition"))
    return GridState(a.n_points, a.length, amp, a.time)


@functools.lru_cache(maxsize=1)
def _free_phase(n_points: int, length: float, dt: float) -> np.ndarray:
    """The momentum-space phase ``exp(-i k^2 dt / 2)`` on the grid of
    ``n_points`` points over ``length``, read-only.

    Memoized on ``(n_points, length, dt)``, so every evolution of a sweep
    (one grid, one ``dt``) shares one phase. Only the last key is kept: the
    memo holds at most one complex grid array, 64 KB at 4,096 points and
    64 MB at ``MAX_GRID_POINTS``. ``dt`` of 0.0 and -0.0 share a key; their
    phases have the same bits.
    """
    k = 2.0 * math.pi * np.fft.fftfreq(n_points, d=length / n_points)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.exp(-0.5j * k**2 * dt)
    if not np.isfinite(phase).all():  # k**2 * dt overflowed, or dt is not finite
        raise ValidationError(f"evolution phase for dt {dt} is not finite")
    phase.flags.writeable = False
    return phase


def free_evolve(state: GridState, dt: float) -> GridState:
    """Exact free-particle evolution by ``dt`` (negative dt runs backward)."""
    phase = _free_phase(state.n_points, state.length, dt)
    amp = np.fft.ifft(np.fft.fft(state.amplitudes) * phase)
    # The points at both ends, summed in index order.
    seam = np.concatenate((amp[:SEAM_POINTS], amp[state.n_points - SEAM_POINTS:]))
    seam_mass = float(np.sum(np.abs(seam) ** 2) * state.dx)
    return GridState(
        state.n_points,
        state.length,
        amp,
        state.time + dt,
        boundary_flag=seam_mass >= SEAM_MASS_FLAG,
    )


def _positive(mass: float, where: str) -> float:
    """``mass``; ``ValidationError`` naming ``where`` unless it is positive and finite."""
    if not 0.0 < mass < math.inf:
        kind = "infinite" if mass > 0.0 else "no"
        raise ValidationError(f"{where}: the state has {kind} mass ({mass})")
    return mass


def position_mean(state: GridState) -> float:
    mass = _positive(state.mass, "position_mean")
    return float(np.sum(state.x * state.density()) * state.dx / mass)


def position_var(state: GridState) -> float:
    mass = _positive(state.mass, "position_var")
    mean = position_mean(state)
    return float(np.sum((state.x - mean) ** 2 * state.density()) * state.dx / mass)


def momentum_mean_sq(state: GridState) -> float:
    k = 2.0 * math.pi * np.fft.fftfreq(state.n_points, d=state.dx)
    with np.errstate(over="ignore", invalid="ignore"):  # infinite amplitudes give nan
        spectrum = np.abs(np.fft.fft(state.amplitudes)) ** 2
    mass = _positive(np.sum(spectrum), "momentum_mean_sq")
    return float(np.sum(k**2 * spectrum) / mass)


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
    # position_mean, density() and mass, with |amp|^2 and x computed once.
    x, density, dx = state.x, state.density(), state.dx
    mass = _positive(float(np.sum(density) * dx), "packet_support")
    center = float(np.sum(x * density) * dx / mass)
    density = density * dx / mass
    radii = np.abs(x - center)
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
):
    """Branch-support typicality versus packet separation.

    For each separation s (in units of sigma) two counter-propagating
    packets start s*sigma apart; the left-moving branch's support, all but
    ``SUPPORT_MASS_CUTOFF`` of its mass, is read off the isolated packet at
    both times, and the mutual typicality of the two supports is computed on
    the full two-packet state. Returns (separation, m_big) rows.
    """
    if momentum == 0.0:
        raise ValidationError("momentum must be nonzero: packets must separate")
    rows = []
    dt = sigma / momentum  # each packet drifts by one sigma
    for s in separations_sigma:
        left, right = packet_pair(s, sigma, momentum, n_points, length)
        both_t1 = superposition(left, right)
        both_t2 = free_evolve(both_t1, dt)
        support_t1 = packet_support(left)
        support_t2 = packet_support(free_evolve(left, dt))
        report = support_condition_check(both_t1, support_t1, both_t2, support_t2)
        rows.append((float(s), report.m_big))
    return rows
