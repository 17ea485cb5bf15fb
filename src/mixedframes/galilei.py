"""Galilei transformations in 1+1 dimensions on the discretized line.

The generators are realized with the canonical commutator [x, p] = i hbar:
position is diagonal, momentum acts spectrally (p = -i hbar d/dx), the
Hamiltonian is p^2/2m and the boost generator is K = m x - t p at a fixed
instant t. A sharp boost by velocity v maps the momentum eigenstate |p> to
|p + m v>; the boost factorizes as a position phase, a momentum-space phase
and a global phase, which dense matrix exponentials verify on the grid.

Phase bookkeeping: :func:`boost_pure_label` records the eigenstate phase
-t (v p - m v^2 / 2) / hbar, which follows the momentum-kernel convention
<x|p> = exp(-i p x / hbar). The spectral grid realization above carries an
extra p-independent global phase relative to that label (exp(-i t m v^2 /
hbar)), so grid checks compare phase differences between momentum modes,
which are convention-free; see :func:`relative_boost_phase`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .analytic import norm_pdf
from .errors import DomainError, GridMismatchError, NumericError, ResourceLimitError
from . import group_algebra as ga
from .quantum_system import PositionGrid, WaveFunction, _normalized
from .thermal import MomentumGrid, MomentumMixture

DENSE_SIZE_CAP = 2048
TWO_PI = 2.0 * math.pi

# A boost density is a group density over the velocity parameter; boosts in
# 1+1 dimensions compose additively in v, so the translation algebra applies.
BoostDensity = ga.GroupDensity


@dataclass(frozen=True)
class GalileiParams:
    """Mass, the fixed boost instant t, and hbar."""

    mass: float
    time: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        if not math.isfinite(self.time):
            raise ValueError(f"time must be finite, got {self.time}")
        if not (self.hbar > 0.0 and math.isfinite(self.hbar)):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")


@dataclass(frozen=True)
class MomentumEigenLabel:
    """Momentum eigenvalue plus an accumulated phase, canonical in [0, 2 pi)."""

    momentum: float
    phase: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "phase", float(self.phase) % TWO_PI)


class OperatorGrid:
    """Dense Hermitian position/momentum/Hamiltonian/boost matrices.

    The dense matrices exist as verification oracles (size-capped); fast
    spectral application methods are provided for state-level checks, where
    dense matrix products would drown small residuals in roundoff.
    """

    def __init__(self, grid: PositionGrid, params: GalileiParams):
        if grid.n_points > DENSE_SIZE_CAP:
            raise ResourceLimitError(
                f"dense operators are capped at {DENSE_SIZE_CAP} points, got {grid.n_points}"
            )
        self.grid = grid
        self.params = params
        self._x = grid.points()
        self._k = grid.wavenumbers()
        n = grid.n_points
        fourier = np.fft.fft(np.eye(n), axis=0)
        hbar = params.hbar
        self.x_op = np.diag(self._x.astype(complex))
        self.p_op = np.fft.ifft((hbar * self._k)[:, None] * fourier, axis=0)
        self.h_op = np.fft.ifft(
            ((hbar * self._k) ** 2 / (2.0 * params.mass))[:, None] * fourier, axis=0
        )
        self.k_op = params.mass * self.x_op - params.time * self.p_op
        for op in (self.x_op, self.p_op, self.h_op, self.k_op):
            op.setflags(write=False)
        worst = max(self.hermiticity_residuals().values())
        if worst > 1e-10:
            raise NumericError(f"operator assembly lost Hermiticity: residual {worst}")

    def hermiticity_residuals(self) -> dict[str, float]:
        """Frobenius norm of the anti-Hermitian part (bounds the spectral norm)."""
        out = {}
        for name, op in (("x", self.x_op), ("p", self.p_op), ("h", self.h_op), ("k", self.k_op)):
            out[name] = float(np.linalg.norm(op - op.conj().T)) / 2.0
        return out

    def apply_x(self, amps: np.ndarray) -> np.ndarray:
        return self._x * amps

    def apply_p(self, amps: np.ndarray) -> np.ndarray:
        return np.fft.ifft(self.params.hbar * self._k * np.fft.fft(amps))

    def apply_h(self, amps: np.ndarray) -> np.ndarray:
        kinetic = (self.params.hbar * self._k) ** 2 / (2.0 * self.params.mass)
        return np.fft.ifft(kinetic * np.fft.fft(amps))

    def apply_k(self, amps: np.ndarray) -> np.ndarray:
        return self.params.mass * self.apply_x(amps) - self.params.time * self.apply_p(amps)


def build_operators(grid: PositionGrid, params: GalileiParams) -> OperatorGrid:
    """Assemble the dense operator set for the given grid and parameters."""
    return OperatorGrid(grid, params)


def _grid_norm(amps: np.ndarray, dx: float) -> float:
    return math.sqrt(float(np.sum(np.abs(amps) ** 2)) * dx)


def commutator_residuals(
    ops: OperatorGrid, test_states: list[WaveFunction]
) -> dict[str, float]:
    """Bracket residuals on test states, applied spectrally.

    For each bracket the residual is max over states of
    ||(AB - BA) psi - rhs psi|| / ||psi||. Test states should be supported
    in the central half of the box: the position operator is not periodic,
    so boundary mass leaks into the spectral derivative.
    """
    if not test_states:
        raise ValueError("at least one test state is required")
    m = ops.params.mass
    hbar = ops.params.hbar
    dx = ops.grid.spacing

    checks = {
        "x_p": lambda f: ops.apply_x(ops.apply_p(f)) - ops.apply_p(ops.apply_x(f)) - 1j * hbar * f,
        "p_h": lambda f: ops.apply_p(ops.apply_h(f)) - ops.apply_h(ops.apply_p(f)),
        "k_p": lambda f: ops.apply_k(ops.apply_p(f)) - ops.apply_p(ops.apply_k(f)) - 1j * hbar * m * f,
        "k_h": lambda f: ops.apply_k(ops.apply_h(f)) - ops.apply_h(ops.apply_k(f)) - 1j * hbar * ops.apply_p(f),
        "m_k": lambda f: m * ops.apply_k(f) - ops.apply_k(m * f),
    }
    residuals: dict[str, float] = {}
    for name, bracket in checks.items():
        worst = 0.0
        for psi in test_states:
            if psi.grid != ops.grid:
                raise GridMismatchError("test state grid does not match the operators")
            amps = psi.amplitudes
            worst = max(worst, _grid_norm(bracket(amps), dx) / _grid_norm(amps, dx))
        residuals[name] = worst
    return residuals


def boost_pure_label(v: float, p: float, params: GalileiParams) -> MomentumEigenLabel:
    """Sharp boost on a momentum eigenstate: momentum p + m v plus a phase.

    The recorded phase is -t (v p - m v^2 / 2) / hbar; see the module note
    on conventions for how it relates to the spectral grid realization.
    """
    if not (math.isfinite(v) and math.isfinite(p)):
        raise ValueError("boost velocity and momentum must be finite")
    phase = -params.time * (v * p - params.mass * v**2 / 2.0) / params.hbar
    return MomentumEigenLabel(p + params.mass * v, phase)


def apply_boost_factored(v: float, psi: WaveFunction, params: GalileiParams) -> WaveFunction:
    """Apply the factored boost: position phase, momentum-space phase, global phase."""
    x = psi.grid.points()
    k = psi.grid.wavenumbers()
    m, t, hbar = params.mass, params.time, params.hbar
    shifted = np.fft.ifft(np.exp(-1j * t * v * k) * np.fft.fft(psi.amplitudes))
    amps = np.exp(1j * m * v * x / hbar) * shifted * np.exp(-1j * t * m * v**2 / (2.0 * hbar))
    return WaveFunction(psi.grid, amps)


def bch_residual(
    v: float, psi: WaveFunction, ops: OperatorGrid, params: GalileiParams
) -> float:
    """Gap between the dense boost exponential and its factored form.

    The left side is expm(i v K / hbar) applied as a dense matrix; the right
    side is the sequential factored application. Returns the grid L2 norm of
    the difference.
    """
    if psi.grid != ops.grid:
        raise GridMismatchError("state grid does not match the operators")
    unitary = expm(1j * v / params.hbar * ops.k_op)
    lhs = unitary @ psi.amplitudes
    if not np.all(np.isfinite(lhs)):
        raise NumericError("matrix exponential did not converge")
    rhs = apply_boost_factored(v, psi, params).amplitudes
    return _grid_norm(lhs - rhs, psi.grid.spacing)


def momentum_bump(
    grid: PositionGrid, p_center: float, params: GalileiParams, rel_width: float = 0.05
) -> WaveFunction:
    """Normalizable stand-in for a momentum eigenstate: a narrow spectral bump."""
    k = grid.wavenumbers()
    k_max = math.pi / grid.spacing
    width = rel_width * k_max
    k_center = p_center / params.hbar
    if abs(k_center) > 0.5 * k_max:
        raise DomainError(f"bump momentum {p_center} is outside half the spectral band")
    spectrum = np.exp(-((k - k_center) ** 2) / (4.0 * width**2)).astype(complex)
    return _normalized(grid, np.fft.ifft(spectrum))


def relative_boost_phase(
    original: WaveFunction,
    boosted: WaveFunction,
    p_from: float,
    p_to: float,
    params: GalileiParams,
) -> float:
    """Phase picked up by the Fourier mode that moved from p_from to p_to."""
    if original.grid != boosted.grid:
        raise GridMismatchError("states live on different grids")
    k = original.grid.wavenumbers()
    i_from = int(np.argmin(np.abs(k - p_from / params.hbar)))
    i_to = int(np.argmin(np.abs(k - p_to / params.hbar)))
    before = np.fft.fft(original.amplitudes)[i_from]
    after = np.fft.fft(boosted.amplitudes)[i_to]
    if abs(before) < 1e-12:
        raise DomainError(f"original state has no weight at momentum {p_from}")
    return float(np.angle(after / before))


def boost_mixed(
    rho_R: ga.GroupDensity,
    p: float,
    params: GalileiParams,
    v_grid: np.ndarray,
) -> MomentumMixture:
    """Mixed boost channel on a momentum eigenstate |p>.

    Pushes the velocity density through v -> p + m v onto the momentum grid
    spanned by ``v_grid`` (weights pick up the 1/m Jacobian) and renormalizes.
    Gaussian components are evaluated pointwise; Dirac components become
    single-bin point masses and must lie on the grid. ``v_grid`` must hold
    all but 1e-12 of the mass.
    """
    v = np.asarray(v_grid, dtype=float)
    dv = ga.uniform_step(v, "v_grid")
    if ga.mass_within(rho_R, float(v[0]), float(v[-1])) < 1.0 - 1e-12:
        raise DomainError("v_grid truncates more than 1e-12 of the boost density")

    m = params.mass
    q = p + m * v
    dq = m * dv
    weights = np.zeros_like(q)
    for w, comp in rho_R.components:
        if isinstance(comp, ga.DiracComponent):
            weights[ga.dirac_bin(comp.location, v, dv)] += w / dq
        else:
            weights += (w / m) * norm_pdf(v, comp.mean, comp.variance)

    weights /= float(np.sum(weights)) * dq
    grid = MomentumGrid(
        n_points=q.size,
        p_max=(q[-1] - q[0]) / 2.0,
        center=float((q[0] + q[-1]) / 2.0),
    )
    return MomentumMixture(grid, weights)

