"""Carrier-space states on a periodic grid and the translation channel.

Pure states are unit-norm wavefunctions on a power-of-two position grid;
translations act spectrally (FFT phase multiplication), so they are exactly
unitary. A mixed translation, i.e. a probability density on the group,
acts as a mixture-of-unitaries channel and produces a convex combination
of translated copies of the input state. Every copy of one input term
shares that term's spectrum, and every copy at one offset shares that
offset's phase, so the channel costs one forward FFT per input term, one
half-spectrum exponential per offset and one inverse FFT per output term.

Sign convention: ``translate(psi, a)`` returns ``psi(x + a)``, so the
density peak of a packet translated by ``a`` sits at ``x = -a``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DomainError,
    GridMismatchError,
    NormalizationError,
    ResourceLimitError,
    finite,
    integer,
    positive,
    probability_weights,
)
from .group_algebra import DiracComponent, GaussianComponent, GroupDensity
from .textio import csv_table

NORM_TOL = 1e-9
DENSITY_INTEGRAL_TOL = 1e-8
DEFAULT_QUAD_ORDER = 64
TERM_CAP = 4096

# Half-width, in standard deviations, of the node comb used to discretize
# Gaussian smearing. 8 sigma truncates below 1.3e-15 of the mass and keeps
# the rectangle-rule aliasing error under 1e-8 at 64 nodes.
COMB_HALF_WIDTH = 8.0


@dataclass(frozen=True)
class PositionGrid:
    """Periodic position grid with points x_j = -L/2 + j * dx."""

    n_points: int
    extent: float

    def __post_init__(self) -> None:
        n = integer("n_points", self.n_points)
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "extent", positive("extent", self.extent))
        if n < 64 or n & (n - 1):
            raise DomainError(f"n_points must be a power of two >= 64, got {n}")

    @property
    def spacing(self) -> float:
        return self.extent / self.n_points

    def points(self) -> np.ndarray:
        return -0.5 * self.extent + self.spacing * np.arange(self.n_points)

    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.spacing)

    def integrate(self, values: np.ndarray) -> float:
        """Integral over the box: on a periodic grid the trapezoid rule is sum * dx."""
        return float(np.sum(values)) * self.spacing

    def norm(self, amps: np.ndarray) -> float:
        """Grid L2 norm of complex amplitudes."""
        return math.sqrt(self.integrate(np.abs(amps) ** 2))


@dataclass(frozen=True)
class WaveFunction:
    """Unit-norm complex amplitudes on a position grid."""

    grid: PositionGrid
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.grid.n_points,):
            raise ValueError("amplitudes must match the grid size")
        nrm = self.grid.norm(amps)
        if not abs(nrm - 1.0) <= NORM_TOL:
            raise NormalizationError(f"wavefunction norm is {nrm!r}, expected 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return self.grid.norm(self.amplitudes)


@dataclass(frozen=True)
class PureMixture:
    """Convex combination of wavefunctions sharing one grid."""

    grid: PositionGrid
    terms: tuple[tuple[float, WaveFunction], ...]

    def __post_init__(self) -> None:
        terms = tuple((float(w), psi) for w, psi in self.terms)
        object.__setattr__(self, "terms", terms)
        probability_weights("mixture weights", [w for w, _ in terms], NORM_TOL)
        if any(psi.grid != self.grid for _, psi in terms):
            raise GridMismatchError("all terms must share the mixture grid")


def pure_state(psi: WaveFunction) -> PureMixture:
    """Wrap a wavefunction as a single-term mixture."""
    return PureMixture(psi.grid, ((1.0, psi),))


@dataclass(frozen=True)
class PositionDensity:
    """Probability density of position on a grid; integrates to one."""

    grid: PositionGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.shape != (self.grid.n_points,):
            raise ValueError("values must match the grid size")
        if not np.all(values >= -1e-12):
            raise NormalizationError("density values must be nonnegative")
        area = self.grid.integrate(values)
        if not abs(area - 1.0) <= DENSITY_INTEGRAL_TOL:
            raise NormalizationError(f"density integrates to {area!r}, expected 1")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _normalized(grid: PositionGrid, amps: np.ndarray) -> WaveFunction:
    nrm = grid.norm(amps)
    if nrm < 1e-150:
        raise DomainError("amplitudes vanish; cannot normalize")
    return WaveFunction(grid, amps / nrm)


def gaussian_wavepacket(grid: PositionGrid, alpha: float, center: float = 0.0) -> WaveFunction:
    """Gaussian packet exp(-(x-center)^2 / 4 alpha^2), grid-normalized.

    The position density of the packet is a Gaussian of variance alpha^2.
    """
    alpha = positive("alpha", alpha)
    if 8.0 * alpha >= grid.extent:
        raise DomainError(
            f"packet width {alpha} does not fit the box: need 8*alpha < extent={grid.extent}"
        )
    # alpha * alpha underflows to 0 or overflows to inf (where alpha**2 would raise)
    width = positive(f"4*alpha^2 (alpha={alpha})", 4.0 * alpha * alpha)
    x = grid.points()
    return _normalized(grid, np.exp(-((x - center) ** 2) / width).astype(complex))


def _translated(
    grid: PositionGrid, psis: Sequence[WaveFunction], shifts: Iterable[float]
) -> Iterator[WaveFunction]:
    """psi(x + a) for every shift a (outer) and state psi (inner), lazily.

    Every shift is checked before any transform. Each state then costs one
    forward FFT, each shift one exponential over the n//2 + 1 wavenumbers of
    non-negative index, and each output one inverse FFT; a zero shift yields
    the states themselves. ``fftfreq`` is antisymmetric, k[n-j] = -k[j]
    exactly, so the upper half of the phase is the conjugate of the lower
    half, bit for bit the exponential of ``ik * a``.
    """
    shifts = [finite("translation parameter", a) for a in shifts]
    widest = max(map(abs, shifts))
    if widest >= 0.5 * grid.extent:
        raise DomainError(
            f"translation parameter |a|={widest} is too large for the periodic box"
            f" of extent {grid.extent}"
        )
    half = grid.n_points // 2
    ik = 1j * grid.wavenumbers()[: half + 1]
    spectra = [np.fft.fft(psi.amplitudes) for psi in psis]
    phase = np.empty(grid.n_points, dtype=complex)
    for a in shifts:
        if a == 0.0:
            yield from psis
            continue
        np.exp(ik * a, out=phase[: half + 1])
        np.conjugate(phase[half - 1 : 0 : -1], out=phase[half + 1 :])
        for spectrum in spectra:
            row = phase * spectrum
            yield WaveFunction(grid, np.fft.ifft(row, out=row))


def translate(psi: WaveFunction, a: float) -> WaveFunction:
    """Exact spectral translation: returns the state with values psi(x + a)."""
    return next(_translated(psi.grid, [psi], [a]))


def _gaussian_comb(comp: GaussianComponent, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform node comb discretizing a Gaussian smearing component."""
    if order < 16:
        raise DomainError(f"quad_order must be >= 16 for Gaussian components, got {order}")
    sd = math.sqrt(comp.variance)
    nodes = comp.mean + sd * np.linspace(-COMB_HALF_WIDTH, COMB_HALF_WIDTH, order)
    weights = np.exp(-((nodes - comp.mean) ** 2) / (2.0 * comp.variance))
    return nodes, weights / weights.sum()


def act_mixed(
    rho_R: GroupDensity, state: PureMixture, quad_order: int = DEFAULT_QUAD_ORDER
) -> PureMixture:
    """Mixed translation channel: average of unitary translations under rho_R.

    Dirac components contribute one translated copy per input term; Gaussian
    components are discretized by ``quad_order`` nodes on a uniform comb over
    mean +- 8 sigma with Gaussian weights, which keeps the position-density
    error of the discretization below 1e-8 at the default order. A sharp
    translation is the Dirac case, ``act_mixed(make_delta(a), state)``.
    ``quad_order`` must be an integer, even for a Dirac-only density. The
    output size is checked against ``TERM_CAP`` before any comb is built,
    and every offset before any FFT. The cost is one forward FFT per input
    term, one half-spectrum exponential per offset and one inverse FFT per
    output term; outputs are ordered offset-major, term-minor.
    """
    quad_order = integer("quad_order", quad_order)
    n_offsets = sum(1 if isinstance(c, DiracComponent) else quad_order for _, c in rho_R.components)
    n_out = n_offsets * len(state.terms)
    if n_out > TERM_CAP:
        raise ResourceLimitError(
            f"mixed translation would produce {n_out} terms, cap is {TERM_CAP}"
        )

    offsets: list[tuple[float, float]] = []
    for w, comp in rho_R.components:
        if isinstance(comp, DiracComponent):
            offsets.append((w, comp.location))
        else:
            nodes, node_weights = _gaussian_comb(comp, quad_order)
            offsets.extend(zip(w * node_weights, nodes))

    weights = [wa * wt for wa, _ in offsets for wt, _ in state.terms]
    shifted = _translated(state.grid, [psi for _, psi in state.terms], [a for _, a in offsets])
    new_terms = list(zip(weights, shifted, strict=True))
    total = math.fsum(w for w, _ in new_terms)
    return PureMixture(state.grid, tuple((w / total, psi) for w, psi in new_terms))


def position_density(state: PureMixture) -> PositionDensity:
    """Weighted sum of term densities |psi_i(x)|^2."""
    values = np.zeros(state.grid.n_points)
    for w, psi in state.terms:
        values += w * np.abs(psi.amplitudes) ** 2
    return PositionDensity(state.grid, values)


def purity(state: PureMixture) -> float:
    """Tr rho^2 = sum_ij w_i w_j |<psi_i|psi_j>|^2 from the Gram matrix of term overlaps.

    The Gram matrix is formed in real arithmetic: Re G = V V^T with V the
    amplitudes viewed as interleaved floats (one symmetric rank-k update),
    and Im G = X Y^T - (X Y^T)^T with X, Y the real and imaginary parts
    (one real product), so no conjugated copy is made.
    """
    weights = np.array([w for w, _ in state.terms])
    amps = np.stack([psi.amplitudes for _, psi in state.terms])
    floats = amps.view(float)
    re = floats @ floats.T
    xy = amps.real @ amps.imag.T
    im = xy - xy.T
    return float(weights @ (re * re + im * im) @ weights) * state.grid.spacing**2


def two_gaussian_superposition(
    grid: PositionGrid, alpha: float, a2: float, sign: int = +1
) -> WaveFunction:
    """Normalized sum or difference of Gaussians centered at 0 and a2."""
    if sign not in (+1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    alpha = positive("alpha", alpha)
    if sign == -1 and a2 == 0.0:
        raise DomainError("difference of coincident Gaussians is the zero function")
    x = grid.points()
    amps = np.exp(-(x**2) / (4.0 * alpha**2)) + sign * np.exp(
        -((x - a2) ** 2) / (4.0 * alpha**2)
    )
    return _normalized(grid, amps.astype(complex))


def coherently_translated(
    smear: GaussianComponent,
    psi: WaveFunction,
    quad_order: int = DEFAULT_QUAD_ORDER,
) -> WaveFunction:
    """Coherent (amplitude-level) Gaussian smearing of a wavefunction.

    Returns the normalized quadrature of integral da rho(a) psi(x + a); this
    is a pure state, unlike the output of :func:`act_mixed`, and its density
    is always narrower than the channel output for the same smearing width.
    """
    nodes, weights = _gaussian_comb(smear, integer("quad_order", quad_order))
    amps = np.zeros(psi.grid.n_points, dtype=complex)
    for w, shifted in zip(weights, _translated(psi.grid, [psi], nodes)):
        amps += w * shifted.amplitudes
    return _normalized(psi.grid, amps)


def density_distance(d1: PositionDensity, d2: PositionDensity) -> tuple[float, float]:
    """Sup-norm and L1 distance between two densities."""
    if d1.grid != d2.grid:
        raise GridMismatchError("densities live on different grids")
    gap = np.abs(d1.values - d2.values)
    return float(gap.max()), d1.grid.integrate(gap)


@functools.lru_cache(maxsize=4)
def _x_cells(grid: PositionGrid) -> tuple[str, ...]:
    """The grid's points as CSV cells, formatted once per grid.

    Holds at most 4 grids of about 70 B per point each (0.6 MB at n = 8192).
    """
    return tuple(map(repr, grid.points().tolist()))


def position_density_csv(density: PositionDensity) -> str:
    """CSV export with header ``x,density``, shortest-roundtrip floats."""
    cells = map(repr, density.values.tolist())
    return csv_table(["x", "density"], zip(_x_cells(density.grid), cells))


def density_mean(density: PositionDensity) -> float:
    """First moment of a position density."""
    x = density.grid.points()
    return density.grid.integrate(x * density.values)


def density_variance(density: PositionDensity) -> float:
    """Second central moment of a position density."""
    x = density.grid.points()
    mean = density_mean(density)
    return density.grid.integrate((x - mean) ** 2 * density.values)
