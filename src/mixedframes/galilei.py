"""Galilei transformations in 1+1 dimensions on the discretized line.

The generators are realized with the canonical commutator [x, p] = i hbar:
position is diagonal, momentum acts spectrally (p = -i hbar d/dx), the
Hamiltonian is p^2/2m and the boost generator is K = m x - t p at a fixed
instant t. A sharp boost by velocity v maps the momentum eigenstate |p> to
|p + m v>; the boost factorizes as a position phase, a momentum-space phase
that is the translation by -t v, and a global phase. :func:`bch_residual`
checks that identity on the grid against the exponential exp(i v K / hbar)
itself, applied to the state as a Chebyshev series in K (Tal-Ezer &
Kosloff, J. Chem. Phys. 81, 3967, 1984) whose Bessel coefficients come from
one FFT (Jacobi-Anger). The Hermiticity check reads each generator's matrix
one column block at a time and keeps at most a quarter of it; no n x n array
is made. Nothing here needs scipy except :func:`expm`.

Phase bookkeeping: :func:`boost_pure_label` records the eigenstate phase
-t (v p - m v^2 / 2) / hbar, which follows the momentum-kernel convention
<x|p> = exp(-i p x / hbar). The spectral grid realization above carries an
extra p-independent global phase relative to that label (exp(-i t m v^2 /
hbar)), so grid checks compare phase differences between momentum modes,
which are convention-free; see :func:`relative_boost_phase`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, Frozen, GridMismatchError, ResourceLimitError, finite, positive
from . import group_algebra as ga
from .analytic import gaussian_kernel
from .quantum_system import PositionGrid, WaveFunction, _normalized, translate
from .thermal import GRID_NORM_TOL, MomentumGrid, MomentumMixture

# bounds the n^2 / 4 complex entries the Hermiticity check keeps alive: 16 MiB at 2048
DENSE_SIZE_CAP = 2048
BOOST_SERIES_CAP = 100_000  # |z| = |v| R / hbar, about the boost series' term count
DENSE_BLOCK = 32  # rows of the identity per apply, and the side of the Hermiticity check's tiles
TWO_PI = 2.0 * math.pi


# The boost oracle needs no dense exponential. expm stays for the dense cross-check
# test and because perfbench/tracer.py and perfbench/selftest.py trace galilei.expm;
# it needs scipy (the ``test`` extra), which loads on the first call only.
def expm(a: np.ndarray) -> np.ndarray:
    from scipy.linalg import expm as dense_expm

    return dense_expm(a)


class GalileiParams(Frozen):
    """Mass, the fixed boost instant t, and hbar."""

    def __init__(self, mass: float, time: float, hbar: float = 1.0) -> None:
        positive("mass", mass)
        finite("time", time)
        positive("hbar", hbar)
        self._set(mass, time, hbar)


class MomentumEigenLabel(Frozen):
    """Momentum eigenvalue plus an accumulated phase, canonical in [0, 2 pi)."""

    def __init__(self, momentum: float, phase: float) -> None:
        self._set(momentum, float(phase) % TWO_PI)


class OperatorGrid:
    """Position, momentum, Hamiltonian and boost generators on a grid.

    Each generator has one realization, its spectral map ``apply_*``, which
    acts on a state in O(n log n) and holds no matrix. Every check applies
    these maps; the boost exponential in :func:`bch_residual` is a series in
    ``apply_k``. Only :meth:`hermiticity_residuals`, which is size-capped,
    reads matrix entries, one tile at a time.
    """

    def __init__(self, grid: PositionGrid, params: GalileiParams):
        self.grid = grid
        self.params = params
        self._x = grid.points()
        self._k = grid.wavenumbers()
        self._p = params.hbar * self._k  # momentum and kinetic energy multipliers, formed once
        self._kinetic = self._p ** 2 / (2.0 * params.mass)

    def hermiticity_residuals(self) -> dict[str, float]:
        """Anti-Hermitian part of each generator's dense matrix, read from its map by
        :func:`_anti_hermitian`; no n x n array is made."""
        n = self.grid.n_points
        if n > DENSE_SIZE_CAP:
            raise ResourceLimitError(f"dense operators are capped at {DENSE_SIZE_CAP} points, got {n}")
        maps = {"x": self.apply_x, "p": self.apply_p, "h": self.apply_h, "k": self.apply_k}
        return {name: _anti_hermitian(apply, n) for name, apply in maps.items()}

    def apply_x(self, amps: np.ndarray) -> np.ndarray:
        return self._x * amps

    def apply_p(self, amps: np.ndarray) -> np.ndarray:
        return np.fft.ifft(self._p * np.fft.fft(amps))

    def apply_h(self, amps: np.ndarray) -> np.ndarray:
        return np.fft.ifft(self._kinetic * np.fft.fft(amps))

    def apply_k(self, amps: np.ndarray) -> np.ndarray:
        return self.params.mass * self.apply_x(amps) - self.params.time * self.apply_p(amps)


def _anti_hermitian(apply, n: int) -> float:
    """Frobenius norm of (A - A^H) / 2 (it bounds the spectral norm) for the matrix A of
    ``apply``, a map acting along the last axis, so that apply(I) is the transpose of A.

    A arrives one column block of ``DENSE_BLOCK`` identity rows per apply. A tile A[I, J]
    above the diagonal pairs with the stored tile A[J, I] as A[I, J] - A[J, I]^H and counts
    twice, since IEEE subtraction is sign-symmetric; a diagonal tile pairs with itself.
    The tiles below the diagonal wait in one list per row block, dropped when that row
    block is reached, so at most n^2 / 4 entries are alive. Each tile's squared moduli are
    summed by ``np.sum`` and the tile sums by ``math.fsum``. No BLAS call is made, so the
    bits do not depend on the BLAS thread count.
    """
    b = DENSE_BLOCK
    waiting: list[list[np.ndarray]] = [[] for _ in range(0, n, b)]  # waiting[0]: next row block
    sums = []
    for j in range(0, n, b):
        column = apply(np.eye(min(b, n - j), n, k=j)).T  # A[:, j:j + b]
        for i, lower in zip(range(0, j, b), waiting.pop(0)):
            sums.append(2.0 * _square_sum(column[i:i + b] - lower.conj().T))
        diagonal = column[j:j + b]
        sums.append(_square_sum(diagonal - diagonal.conj().T))
        for i, row in zip(range(j + b, n, b), waiting):
            row.append(column[i:i + b].copy())
    return math.sqrt(math.fsum(sums)) / 2.0


def _square_sum(tile: np.ndarray) -> float:
    return float(np.sum(tile.real ** 2 + tile.imag ** 2))


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
    t, m, hbar = params.time, params.mass, params.hbar
    # v * v is inf where v**2 raises OverflowError; v**2 keeps the phase's rounding
    finite(f"boost phase t*(v*p - m*v*v/2)/hbar at v={v!r}", t * (v * p - m * (v * v) / 2.0) / hbar)
    phase = -t * (v * p - m * v**2 / 2.0) / hbar
    return MomentumEigenLabel(p + m * v, phase)


def apply_boost_factored(v: float, psi: WaveFunction, params: GalileiParams) -> WaveFunction:
    """Apply the factored boost: position phase, momentum-space phase, global phase.

    The momentum-space phase exp(-i t v p / hbar) is the translation by -t v,
    so |t v| must stay below half the box, as for :func:`translate`.
    """
    x = psi.grid.points()
    m, t, hbar = params.mass, params.time, params.hbar
    # v * v is inf where v**2 raises OverflowError; v**2 keeps the phase's rounding
    finite(f"boost phase t*m*v*v/(2*hbar) at v={v!r}", t * m * (v * v) / (2.0 * hbar))
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
    recurrence. The coefficients i^n J_n(z) come from :func:`_bessel_coefficients`.

    A momentum kick |m v| / hbar beyond the grid band max|k| raises
    :class:`DomainError` before the series starts: the kicked state does not
    fit the grid, so the identity has no meaning there. The series takes
    about |z| terms, so |z| above ``BOOST_SERIES_CAP`` raises
    :class:`ResourceLimitError` before the coefficients or the series are formed.
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
    if abs(z) > BOOST_SERIES_CAP:
        raise ResourceLimitError(f"boost series for v={v!r} and mass={m!r} needs about "
                                 f"{abs(z):.3g} terms (|v|*R/hbar), above the cap {BOOST_SERIES_CAP}")
    coeffs = _bessel_coefficients(z)
    prev, curr = None, psi.amplitudes
    total = coeffs[0] * curr
    for coeff in coeffs[1:]:
        y_curr = ops.apply_k(curr) / radius
        prev, curr = curr, y_curr if prev is None else 2.0 * y_curr - prev
        total += 2.0 * coeff * curr
    return WaveFunction(psi.grid, total)


def _bessel_coefficients(z: float) -> np.ndarray:
    """i^n J_n(z) for n = 0, 1, ... up to where the boost series stops.

    By Jacobi-Anger, exp(i z cos theta) = sum_n i^n J_n(z) e^{i n theta} (DLMF 10.12),
    so one FFT of M samples gives them. Past n = |z| + 12.4 |z|^(1/3), Debye's
    asymptotics put |J_n(z)| below 1e-18, so M = 2^ceil(log2(2|z| + 26 |z|^(1/3) + 128))
    keeps aliasing below that. The rounding of z cos theta leaves about eps sqrt|z| in
    each coefficient, so the table stops at the first n > |z| with |J_n| < 1e-15
    max(1, sqrt|z|); past n = |z| the coefficients fall faster than geometrically.
    """
    size = 2 ** math.ceil(math.log2(2.0 * abs(z) + 26.0 * abs(z) ** (1.0 / 3.0) + 128.0))
    table = np.fft.fft(np.exp(1j * z * np.cos(TWO_PI * np.arange(size) / size)))[: size // 2] / size
    n = np.arange(size // 2)
    stop = np.flatnonzero((n > abs(z)) & (np.abs(table) < 1e-15 * max(1.0, math.sqrt(abs(z)))))[0]
    return table[:stop]


def momentum_bump(grid: PositionGrid, p_center: float, params: GalileiParams) -> WaveFunction:
    """Normalizable stand-in for a momentum eigenstate: a spectral bump 5% of the band wide."""
    k = grid.wavenumbers()
    k_max = math.pi / grid.spacing
    width = 0.05 * k_max
    k_center = p_center / params.hbar
    if abs(k_center) > 0.5 * k_max:
        raise DomainError(f"bump momentum {p_center} is outside half the spectral band")
    spectrum = gaussian_kernel(k, k_center, 2.0 * width**2).astype(complex)
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
    # the weights integrate to one over steps dq, the grid over its own spacing: a |p| far
    # above the spread rounds the ends of p + m*v apart from the span of the steps
    if not abs(grid.spacing / dq - 1.0) <= 0.5 * GRID_NORM_TOL:
        raise DomainError(f"p={p!r} is too large for the momentum step m*dv={float(dq)!r}: rounding "
                          f"p + m*v changes the grid spacing to {float(grid.spacing)!r}")
    return MomentumMixture(grid, weights)

