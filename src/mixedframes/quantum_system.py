"""Carrier-space states on a periodic grid and the translation channel.

Pure states are unit-norm wavefunctions on a power-of-two position grid;
translations act spectrally (FFT phase multiplication), so they are exactly
unitary. A mixed translation, i.e. a probability density on the group,
acts as a mixture-of-unitaries channel and produces a convex combination
of translated copies of the input state.

Sign convention: ``translate(psi, a)`` returns ``psi(x + a)``, so the
density peak of a packet translated by ``a`` sits at ``x = -a``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    GridMismatchError,
    NormalizationError,
    ResourceLimitError,
)
from .group_algebra import DiracComponent, GaussianComponent, GroupDensity
from .textio import columns_csv

NORM_TOL = 1e-9
DENSITY_INTEGRAL_TOL = 1e-8
DEFAULT_QUAD_ORDER = 64
DEFAULT_TERM_CAP = 4096

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
        n = int(self.n_points)
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "extent", float(self.extent))
        if n < 64 or n & (n - 1):
            raise ValueError(f"n_points must be a power of two >= 64, got {n}")
        if not (self.extent > 0.0 and math.isfinite(self.extent)):
            raise ValueError(f"extent must be positive and finite, got {self.extent}")

    @property
    def spacing(self) -> float:
        return self.extent / self.n_points

    def points(self) -> np.ndarray:
        return -0.5 * self.extent + self.spacing * np.arange(self.n_points)

    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.spacing)


@dataclass(frozen=True)
class WaveFunction:
    """Unit-norm complex amplitudes on a position grid."""

    grid: PositionGrid
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.grid.n_points,):
            raise ValueError("amplitudes must match the grid size")
        nrm = math.sqrt(float(np.sum(np.abs(amps) ** 2)) * self.grid.spacing)
        if abs(nrm - 1.0) > NORM_TOL:
            raise NormalizationError(f"wavefunction norm is {nrm!r}, expected 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return math.sqrt(float(np.sum(np.abs(self.amplitudes) ** 2)) * self.grid.spacing)


@dataclass(frozen=True)
class PureMixture:
    """Convex combination of wavefunctions sharing one grid."""

    grid: PositionGrid
    terms: tuple[tuple[float, WaveFunction], ...]

    def __post_init__(self) -> None:
        terms = tuple((float(w), psi) for w, psi in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise NormalizationError("a mixture needs at least one term")
        for w, psi in terms:
            if not math.isfinite(w) or w <= 0.0:
                raise NormalizationError(f"mixture weights must be positive, got {w}")
            if psi.grid != self.grid:
                raise GridMismatchError("all terms must share the mixture grid")
        total = math.fsum(w for w, _ in terms)
        if abs(total - 1.0) > NORM_TOL:
            raise NormalizationError(f"mixture weights sum to {total!r}, expected 1")


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
        if np.any(values < -1e-12):
            raise NormalizationError("density values must be nonnegative")
        area = float(np.trapezoid(values, dx=self.grid.spacing))
        if abs(area - 1.0) > DENSITY_INTEGRAL_TOL:
            raise NormalizationError(f"density integrates to {area!r}, expected 1")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _normalized(grid: PositionGrid, amps: np.ndarray) -> WaveFunction:
    nrm = math.sqrt(float(np.sum(np.abs(amps) ** 2)) * grid.spacing)
    if nrm < 1e-150:
        raise DomainError("amplitudes vanish; cannot normalize")
    return WaveFunction(grid, amps / nrm)


def gaussian_wavepacket(grid: PositionGrid, alpha: float, center: float = 0.0) -> WaveFunction:
    """Gaussian packet exp(-(x-center)^2 / 4 alpha^2), grid-normalized.

    The position density of the packet is a Gaussian of variance alpha^2.
    """
    alpha = float(alpha)
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    if 8.0 * alpha >= grid.extent:
        raise DomainError(
            f"packet width {alpha} does not fit the box: need 8*alpha < extent={grid.extent}"
        )
    x = grid.points()
    return _normalized(grid, np.exp(-((x - center) ** 2) / (4.0 * alpha**2)).astype(complex))


def translate(psi: WaveFunction, a: float) -> WaveFunction:
    """Exact spectral translation: returns the state with values psi(x + a)."""
    a = float(a)
    if not math.isfinite(a):
        raise DomainError(f"translation parameter must be finite, got {a}")
    if abs(a) >= 0.5 * psi.grid.extent:
        raise DomainError(
            f"|a|={abs(a)} is too large for the periodic box of extent {psi.grid.extent}"
        )
    if a == 0.0:
        return psi
    k = psi.grid.wavenumbers()
    shifted = np.fft.ifft(np.exp(1j * k * a) * np.fft.fft(psi.amplitudes))
    return WaveFunction(psi.grid, shifted)


def act_pure(a: float, state: PureMixture) -> PureMixture:
    """Sharp translation channel: translate every term, weights unchanged."""
    return PureMixture(state.grid, tuple((w, translate(psi, a)) for w, psi in state.terms))


def _gaussian_comb(comp: GaussianComponent, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform node comb discretizing a Gaussian smearing component."""
    sd = math.sqrt(comp.variance)
    nodes = comp.mean + sd * np.linspace(-COMB_HALF_WIDTH, COMB_HALF_WIDTH, order)
    weights = np.exp(-((nodes - comp.mean) ** 2) / (2.0 * comp.variance))
    return nodes, weights / weights.sum()


def act_mixed(
    rho_R: GroupDensity,
    state: PureMixture,
    quad_order: int = DEFAULT_QUAD_ORDER,
    term_cap: int = DEFAULT_TERM_CAP,
) -> PureMixture:
    """Mixed translation channel: average of unitary translations under rho_R.

    Dirac components contribute one translated copy per input term; Gaussian
    components are discretized by ``quad_order`` nodes on a uniform comb over
    mean +- 8 sigma with Gaussian weights, which keeps the position-density
    error of the discretization below 1e-8 at the default order.
    """
    offsets: list[tuple[float, float]] = []
    for w, comp in rho_R.components:
        if isinstance(comp, DiracComponent):
            offsets.append((w, comp.location))
        else:
            if quad_order < 16:
                raise DomainError(
                    f"quad_order must be >= 16 for Gaussian components, got {quad_order}"
                )
            nodes, node_weights = _gaussian_comb(comp, quad_order)
            offsets.extend(zip(w * node_weights, nodes))

    n_out = len(offsets) * len(state.terms)
    if n_out > term_cap:
        raise ResourceLimitError(
            f"mixed translation would produce {n_out} terms, cap is {term_cap}"
        )

    new_terms: list[tuple[float, WaveFunction]] = []
    for wa, a in offsets:
        for wt, psi in state.terms:
            new_terms.append((wa * wt, translate(psi, a)))
    total = math.fsum(w for w, _ in new_terms)
    return PureMixture(state.grid, tuple((w / total, psi) for w, psi in new_terms))


def position_density(state: PureMixture) -> PositionDensity:
    """Weighted sum of term densities |psi_i(x)|^2."""
    values = np.zeros(state.grid.n_points)
    for w, psi in state.terms:
        values += w * np.abs(psi.amplitudes) ** 2
    return PositionDensity(state.grid, values)


def purity(state: PureMixture) -> float:
    """Tr rho^2 from the Gram matrix of pairwise term overlaps."""
    weights = np.array([w for w, _ in state.terms])
    amps = np.stack([psi.amplitudes for _, psi in state.terms])
    gram = (amps.conj() @ amps.T) * state.grid.spacing
    return float(weights @ (np.abs(gram) ** 2) @ weights)


def two_gaussian_superposition(
    grid: PositionGrid, alpha: float, a2: float, sign: int = +1
) -> WaveFunction:
    """Normalized sum or difference of Gaussians centered at 0 and a2."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    alpha = float(alpha)
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
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
    if quad_order < 16:
        raise DomainError(f"quad_order must be >= 16, got {quad_order}")
    nodes, weights = _gaussian_comb(smear, quad_order)
    amps = np.zeros(psi.grid.n_points, dtype=complex)
    for w, a in zip(weights, nodes):
        amps += w * translate(psi, a).amplitudes
    return _normalized(psi.grid, amps)


def density_distance(d1: PositionDensity, d2: PositionDensity) -> tuple[float, float]:
    """Sup-norm and trapezoid L1 distance between two densities."""
    if d1.grid != d2.grid:
        raise GridMismatchError("densities live on different grids")
    gap = np.abs(d1.values - d2.values)
    return float(gap.max()), float(np.trapezoid(gap, dx=d1.grid.spacing))


def position_density_csv(density: PositionDensity) -> str:
    """CSV export with header ``x,density``, shortest-roundtrip floats."""
    return columns_csv(["x", "density"], [density.grid.points(), density.values])


def wavefunction_csv(psi: WaveFunction) -> str:
    """CSV export with header ``x,re,im``."""
    amps = psi.amplitudes
    return columns_csv(["x", "re", "im"], [psi.grid.points(), amps.real, amps.imag])


def density_mean(density: PositionDensity) -> float:
    """First moment of a position density."""
    x = density.grid.points()
    return float(np.trapezoid(x * density.values, dx=density.grid.spacing))


def density_variance(density: PositionDensity) -> float:
    """Second central moment of a position density."""
    x = density.grid.points()
    mean = density_mean(density)
    return float(np.trapezoid((x - mean) ** 2 * density.values, dx=density.grid.spacing))
