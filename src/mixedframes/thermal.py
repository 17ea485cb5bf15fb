"""Smeared time translations in the momentum basis and thermal states.

Sharp time translations multiply momentum eigenstates by a phase, so every
momentum-diagonal state is invariant under them. Smearing the translation
over energies with width 1/beta turns a sharp-momentum ensemble into a
Maxwell-Boltzmann distribution at temperature T = hbar / (k_B beta): the
thermal state appears as a consequence of the smearing alone.
"""

from __future__ import annotations

import math

import numpy as np

from .analytic import gaussian_kernel
from .errors import DomainError, Frozen, NormalizationError, finite, integer, positive

GRID_NORM_TOL = 1e-9


class PhysicalConstants(Frozen):
    """hbar and the Boltzmann constant; defaults are natural units."""

    def __init__(self, hbar: float = 1.0, k_boltzmann: float = 1.0) -> None:
        positive("hbar", hbar)
        positive("k_boltzmann", k_boltzmann)
        self._set(hbar, k_boltzmann)


NATURAL_UNITS = PhysicalConstants()


class ThermalParameters(Frozen):
    """Smearing width beta (units of time), particle mass, unit constants."""

    def __init__(self, beta: float, mass: float, constants: PhysicalConstants = NATURAL_UNITS) -> None:
        positive("beta", beta)
        positive("mass", mass)
        self._set(beta, mass, constants)
        positive(f"m*hbar/beta of {self}", self.momentum_variance)

    @property
    def momentum_variance(self) -> float:
        """Variance m hbar / beta of the momentum smearing density."""
        return self.mass * self.constants.hbar / self.beta


class MomentumGrid(Frozen):
    """Uniform momentum grid, symmetric about ``center`` (0 by default)."""

    def __init__(self, n_points: int, p_max: float, center: float = 0.0) -> None:
        n = integer("n_points", n_points)
        if n < 2:
            raise DomainError(f"n_points must be at least 2, got {n}")
        positive("p_max", p_max)
        finite("center", center)
        self._set(n, p_max, center)
        positive(f"spacing 2*p_max/(n_points-1) of {self}", self.spacing)
        finite(f"outermost point |center|+p_max of {self}", abs(center) + p_max)

    @property
    def spacing(self) -> float:
        return 2.0 * self.p_max / (self.n_points - 1)

    def points(self) -> np.ndarray:
        # exactly mirror-symmetric offsets, so even densities sample evenly
        offsets = (np.arange(self.n_points) - (self.n_points - 1) / 2.0) * self.spacing
        return self.center + offsets

    def integrate(self, values: np.ndarray) -> float:
        """Rectangle-rule integral sum * dp, the rule the mixture weights are normalized by."""
        return float(np.sum(values)) * self.spacing


class MomentumMixture(Frozen, eq=False):
    """Diagonal mixed state over a momentum grid; weights integrate to one."""

    def __init__(self, grid: MomentumGrid, weights: np.ndarray) -> None:
        weights = np.array(weights, dtype=float)
        if weights.shape != (grid.n_points,):
            raise ValueError("weights must match the grid size")
        if not np.all(weights >= 0.0):
            raise NormalizationError("weights must be nonnegative")
        total = grid.integrate(weights)
        if not abs(total - 1.0) <= GRID_NORM_TOL:
            raise NormalizationError(f"weights integrate to {total!r}, expected 1")
        weights.setflags(write=False)
        self._set(grid, weights)


def energy_smearing_density(tp: ThermalParameters, E_grid: np.ndarray) -> np.ndarray:
    """Density of the kinetic energy E = p^2 / 2m under the momentum smearing.

    Both momentum branches +-p map to the same energy, so the density is
    sqrt(beta / (pi E hbar)) exp(-E beta / hbar); it integrates to one over
    E > 0 (integrable singularity at E = 0).
    """
    E = np.asarray(E_grid, dtype=float)
    if np.any(E <= 0.0) or not np.all(np.isfinite(E)):
        raise DomainError("energies must be strictly positive and finite")
    hbar = tp.constants.hbar
    with np.errstate(over="ignore", invalid="ignore"):
        density = np.sqrt(tp.beta / (np.pi * E * hbar)) * np.exp(-E * tp.beta / hbar)
    if not np.all(np.isfinite(density)):  # the peak sqrt(beta / E) near E = 0 overflowed
        raise DomainError(f"energy density overflows at beta={tp.beta!r}: temperature too low")
    return density


def momentum_smearing_density(tp: ThermalParameters, p_grid: np.ndarray) -> np.ndarray:
    """Gaussian momentum density with variance m hbar / beta, centered at 0."""
    p = np.asarray(p_grid, dtype=float)
    hbar = tp.constants.hbar
    coeff = positive(f"beta/(2 m hbar) of {tp}", tp.beta / (2.0 * tp.mass * hbar))
    # an exponent that overflows to inf gives exp(-inf) = 0, the right value
    with np.errstate(over="ignore"):
        exponent = coeff * p * p
    return np.sqrt(coeff / np.pi) * np.exp(-exponent)


def energy_momentum_consistency(tp: ThermalParameters) -> float:
    """Change-of-variables identity between the two smearing densities.

    Verifies rho_E(E(p)) * |dE/dp| = rho_p(p) + rho_p(-p) with E = p^2 / 2m,
    dE/dp = p/m, at 32 momenta (p = 0 excluded: the Jacobian vanishes
    there). Returns the maximum pointwise relative error.
    """
    sd = math.sqrt(tp.momentum_variance)
    p = np.linspace(0.05 * sd, 6.0 * sd, 32)
    energies = p**2 / (2.0 * tp.mass)
    lhs = energy_smearing_density(tp, energies) * (p / tp.mass)
    rhs = momentum_smearing_density(tp, p) + momentum_smearing_density(tp, -p)
    return float(np.max(np.abs(lhs - rhs) / rhs))


def beta_of_temperature(T: float, constants: PhysicalConstants = NATURAL_UNITS) -> float:
    """beta = hbar / (k_B T); the product and the quotient can underflow or overflow."""
    kt = positive(f"k_B*T (T={T})", constants.k_boltzmann * positive("temperature", T))
    return positive(f"hbar/(k_B*T) (T={T})", constants.hbar / kt)


def temperature_of_beta(beta: float, constants: PhysicalConstants = NATURAL_UNITS) -> float:
    """T = hbar / (k_B beta); inverse of :func:`beta_of_temperature`."""
    kb = positive(f"k_B*beta (beta={beta})", constants.k_boltzmann * positive("beta", beta))
    return positive(f"hbar/(k_B*beta) (beta={beta})", constants.hbar / kb)


def maxwell_boltzmann_density(
    p_grid: np.ndarray,
    T: float,
    mass: float,
    constants: PhysicalConstants = NATURAL_UNITS,
) -> np.ndarray:
    """1-D Maxwell-Boltzmann momentum distribution at temperature T."""
    T, mass = positive("temperature", T), positive("mass", mass)
    mkt = mass * constants.k_boltzmann * T
    # the product and its reciprocal can underflow or overflow
    norm = positive("1/(2 pi m k_B T)", 1.0 / positive("2 pi m k_B T", 2.0 * np.pi * mkt))
    return np.sqrt(norm) * gaussian_kernel(np.asarray(p_grid, dtype=float), 0.0, mkt)


def thermal_state(tp: ThermalParameters, p_grid: MomentumGrid) -> MomentumMixture:
    """Momentum-diagonal state with the smearing density as its weights."""
    if p_grid.center != 0.0:
        raise DomainError("thermal states live on a grid centered at zero momentum")
    sd = math.sqrt(tp.momentum_variance)
    if p_grid.p_max < 8.0 * sd:
        raise DomainError(
            f"grid p_max={p_grid.p_max} truncates the thermal state: need >= {8.0 * sd}"
        )
    weights = momentum_smearing_density(tp, p_grid.points())
    weights = weights / positive(f"thermal weight on {p_grid}", p_grid.integrate(weights))
    return MomentumMixture(p_grid, weights)


def time_translate_diagonal(
    state: MomentumMixture, t0: float, tp: ThermalParameters
) -> MomentumMixture:
    """Apply a sharp time translation to a momentum-diagonal state.

    The phases exp(i E t0 / hbar) are applied on both sides of the diagonal
    and cancel, so the result always equals the input; the cancellation is
    carried out numerically rather than assumed. A phase ``E t0 / hbar`` that
    overflows at the largest energy raises :class:`DomainError`.
    """
    t0 = finite("t0", t0)
    p = state.grid.points()
    # Python floats from the largest |p|, before p**2: inf without a numpy warning
    pm = float(np.max(np.abs(p)))
    finite(f"phase E*t0/hbar at t0={t0!r}", pm * pm / (2.0 * tp.mass) * abs(t0) / tp.constants.hbar)
    energies = p**2 / (2.0 * tp.mass)
    phases = np.exp(1j * energies * t0 / tp.constants.hbar)
    new_weights = np.real(phases * state.weights * np.conj(phases))
    return MomentumMixture(state.grid, new_weights)


def grid_purity_proxy(state: MomentumMixture) -> float:
    """Sum of squared weights times the grid spacing; increases with beta."""
    return state.grid.integrate(state.weights**2)
