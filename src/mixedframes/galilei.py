"""Galilei transformations in 1+1 dimensions on the discretized line.

The generators are realized with the canonical commutator [x, p] = i hbar:
position is diagonal, momentum acts spectrally (p = -i hbar d/dx), the
Hamiltonian is p^2/2m and the boost generator is K = m x - t p at a fixed
instant t. A sharp boost by velocity v maps the momentum eigenstate |p> to
|p + m v>; the boost factorizes as a position phase, a momentum-space phase
that is the translation by -t v, and a global phase. :func:`bch_residual`
checks that identity on the grid against the exponential exp(i v K / hbar)
itself, applied to the state as a Chebyshev series in K (Tal-Ezer &
Kosloff, J. Chem. Phys. 81, 3967, 1984).

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

from .errors import DomainError, GridMismatchError, ResourceLimitError, finite, positive
from . import group_algebra as ga
from .quantum_system import PositionGrid, WaveFunction, _normalized, translate
from .thermal import MomentumGrid, MomentumMixture

DENSE_SIZE_CAP = 2048
TWO_PI = 2.0 * math.pi


# The boost oracle needs no dense exponential. expm stays for the dense cross-check
# test and because perfbench/tracer.py and perfbench/selftest.py trace galilei.expm;
# scipy loads on the first call, so importing the package loads no scipy module.
def expm(a: np.ndarray) -> np.ndarray:
    from scipy.linalg import expm as dense_expm

    return dense_expm(a)


@dataclass(frozen=True)
class GalileiParams:
    """Mass, the fixed boost instant t, and hbar."""

    mass: float
    time: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        positive("mass", self.mass)
        finite("time", self.time)
        positive("hbar", self.hbar)


@dataclass(frozen=True)
class MomentumEigenLabel:
    """Momentum eigenvalue plus an accumulated phase, canonical in [0, 2 pi)."""

    momentum: float
    phase: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "phase", float(self.phase) % TWO_PI)


class OperatorGrid:
    """Position, momentum, Hamiltonian and boost generators on a grid.

    Each generator has one realization, its spectral map ``apply_*``, which
    acts on a state in O(n log n) and holds no matrix. Every check applies
    these maps; the boost exponential in :func:`bch_residual` is a series in
    ``apply_k``. Dense matrices are built only by
    :meth:`hermiticity_residuals`, which is size-capped.
    """

    def __init__(self, grid: PositionGrid, params: GalileiParams):
        self.grid = grid
        self.params = params
        self._x = grid.points()
        self._k = grid.wavenumbers()

    def _dense(self, apply) -> np.ndarray:
        """Matrix of a spectral map, which acts along the last axis: apply(I) is its transpose."""
        return apply(np.eye(self.grid.n_points)).T

    def hermiticity_residuals(self) -> dict[str, float]:
        """Anti-Hermitian part of each generator's dense matrix, built from its map."""
        if self.grid.n_points > DENSE_SIZE_CAP:
            raise ResourceLimitError(
                f"dense operators are capped at {DENSE_SIZE_CAP} points, got {self.grid.n_points}"
            )
        maps = {"x": self.apply_x, "p": self.apply_p, "h": self.apply_h, "k": self.apply_k}
        return {name: _anti_hermitian(self._dense(apply)) for name, apply in maps.items()}

    def apply_x(self, amps: np.ndarray) -> np.ndarray:
        return self._x * amps

    def apply_p(self, amps: np.ndarray) -> np.ndarray:
        return np.fft.ifft(self.params.hbar * self._k * np.fft.fft(amps))

    def apply_h(self, amps: np.ndarray) -> np.ndarray:
        kinetic = (self.params.hbar * self._k) ** 2 / (2.0 * self.params.mass)
        return np.fft.ifft(kinetic * np.fft.fft(amps))

    def apply_k(self, amps: np.ndarray) -> np.ndarray:
        return self.params.mass * self.apply_x(amps) - self.params.time * self.apply_p(amps)


def _anti_hermitian(op: np.ndarray) -> float:
    """Frobenius norm of the anti-Hermitian part (bounds the spectral norm)."""
    return float(np.linalg.norm(op - op.conj().T)) / 2.0


def build_operators(grid: PositionGrid, params: GalileiParams) -> OperatorGrid:
    """The operator set for the given grid and parameters."""
    return OperatorGrid(grid, params)


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
            worst = max(worst, ops.grid.norm(bracket(amps)) / ops.grid.norm(amps))
        residuals[name] = worst
    return residuals


def boost_pure_label(v: float, p: float, params: GalileiParams) -> MomentumEigenLabel:
    """Sharp boost on a momentum eigenstate: momentum p + m v plus a phase.

    The recorded phase is -t (v p - m v^2 / 2) / hbar; see the module note
    on conventions for how it relates to the spectral grid realization.
    """
    v, p = finite("boost velocity", v), finite("momentum", p)
    phase = -params.time * (v * p - params.mass * v**2 / 2.0) / params.hbar
    return MomentumEigenLabel(p + params.mass * v, phase)


def apply_boost_factored(v: float, psi: WaveFunction, params: GalileiParams) -> WaveFunction:
    """Apply the factored boost: position phase, momentum-space phase, global phase.

    The momentum-space phase exp(-i t v p / hbar) is the translation by -t v,
    so |t v| must stay below half the box, as for :func:`translate`.
    """
    x = psi.grid.points()
    m, t, hbar = params.mass, params.time, params.hbar
    shifted = translate(psi, -t * v).amplitudes
    amps = np.exp(1j * m * v * x / hbar) * shifted * np.exp(-1j * t * m * v**2 / (2.0 * hbar))
    return WaveFunction(psi.grid, amps)


def bch_residual(v: float, psi: WaveFunction, ops: OperatorGrid) -> float:
    """Gap between the boost exponential and its factored form.

    The left side is exp(i v K / hbar) applied to the state by
    :func:`apply_boost_exponential`, which does not assume the factorization;
    the right side is :func:`apply_boost_factored`. Returns the grid L2 norm
    of the difference.
    """
    lhs = apply_boost_exponential(v, psi, ops).amplitudes
    rhs = apply_boost_factored(v, psi, ops.params).amplitudes
    return psi.grid.norm(lhs - rhs)


def apply_boost_exponential(v: float, psi: WaveFunction, ops: OperatorGrid) -> WaveFunction:
    """exp(i v K / hbar) applied to the state, matrix-free.

    With R = m max|x| + |t| hbar max|k|, a bound on the spectrum of the
    Hermitian K = m x - t p, the series exp(i z y) = J_0(z) + 2 sum_n i^n
    J_n(z) T_n(y) in y = K / R and z = v R / hbar converges on the spectrum;
    each Chebyshev term T_n(y) psi costs one ``apply_k`` by the three-term
    recurrence. The series stops at the first n > |z| with |J_n(z)| < 1e-17,
    past which the Bessel coefficients decay faster than geometrically.

    A momentum kick |m v| / hbar beyond the grid band max|k| raises
    :class:`DomainError` before the series starts: the kicked state does not
    fit the grid, so the identity has no meaning there, and the series
    length grows with |v|.
    """
    if psi.grid != ops.grid:
        raise GridMismatchError("state grid does not match the operators")
    m, t, hbar = ops.params.mass, ops.params.time, ops.params.hbar
    k_max = float(np.max(np.abs(ops._k)))
    radius = m * float(np.max(np.abs(ops._x))) + abs(t) * hbar * k_max
    with np.errstate(over="ignore", invalid="ignore"):
        z = v * radius / hbar
    if not math.isfinite(z):
        raise DomainError(f"boost phase v*R/hbar is not finite for v={v!r} and R={radius!r}")
    if abs(m * v) / hbar > k_max:
        raise DomainError(
            f"boost momentum |m*v|/hbar for v={v!r} and mass={m!r} exceeds the grid band {k_max!r}"
        )
    from scipy.special import jv

    prev, curr = None, psi.amplitudes
    total = jv(0, z) * curr
    n = 0
    while True:
        n += 1
        coeff = jv(n, z)
        if n > abs(z) and abs(coeff) < 1e-17:
            break
        y_curr = ops.apply_k(curr) / radius
        prev, curr = curr, y_curr if prev is None else 2.0 * y_curr - prev
        total += 2.0 * 1j ** (n % 4) * coeff * curr
    return WaveFunction(psi.grid, total)


def momentum_bump(grid: PositionGrid, p_center: float, params: GalileiParams) -> WaveFunction:
    """Normalizable stand-in for a momentum eigenstate: a spectral bump 5% of the band wide."""
    k = grid.wavenumbers()
    k_max = math.pi / grid.spacing
    width = 0.05 * k_max
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
    The density is sampled by :func:`group_algebra.sample_on_grid`, so Dirac
    components must lie on the grid. ``v_grid`` must hold all but 1e-12 of
    the mass.
    """
    v = np.asarray(v_grid, dtype=float)
    m = params.mass
    weights = ga.sample_on_grid(rho_R, v) / m
    if ga.mass_within(rho_R, float(v[0]), float(v[-1])) < 1.0 - 1e-12:
        raise DomainError("v_grid truncates more than 1e-12 of the boost density")

    with np.errstate(over="ignore", invalid="ignore"):
        q = p + m * v
    if not (np.all(np.isfinite(q)) and np.all(np.diff(q) > 0.0)):
        raise DomainError(f"p={p!r} and mass={m!r} leave no increasing, finite momenta p + m*v")
    dq = m * (v[1] - v[0])
    weights /= float(np.sum(weights)) * dq
    # halves first: q[0] + q[-1] can overflow where each half cannot
    grid = MomentumGrid(n_points=q.size, p_max=q[-1] / 2.0 - q[0] / 2.0,
                        center=float(q[0] / 2.0 + q[-1] / 2.0))
    return MomentumMixture(grid, weights)

