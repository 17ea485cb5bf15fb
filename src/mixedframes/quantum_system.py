"""Carrier-space states on a periodic grid and the translation channel.

Pure states are unit-norm wavefunctions on a power-of-two position grid;
translations act spectrally (FFT phase multiplication), so they are exactly
unitary. A mixed translation, i.e. a probability density on the group,
acts as a mixture-of-unitaries channel and produces a convex combination
of translated copies of the input state. ``act_mixed`` checks its offsets
and returns them with the input terms and the weights, and runs no
transform. Every copy of one input term shares that term's spectrum, and
every copy at one offset shares that offset's phase, so a pass over the
output's rows costs one forward FFT per input term, a half-spectrum cos
and sin per offset (at n = 4096, longer than a row's inverse FFT) and one
inverse FFT per output term, batched ``ROW_BLOCK`` rows to a block; it
holds one block, and rows are kept only once ``terms`` is read.
``smeared_pair`` takes one pass for a component's mixed density and coherent packet.

In the momentum basis the channel multiplies the density matrix by the
characteristic function of its offsets, rho_out(k, k') = rho_in(k, k')
chi(k - k'): the dephasing that makes a state pure in one frame mixed in
another. So Tr rho_out^2 = (dx/n)^2 sum_d S(d) |chi(d dk)|^2, S(d) the
weight of |rho_in|^2 on the d-th off-diagonal, at one length-2n FFT
correlation per pair of input terms. Every pass over the output
accumulates chi at d = 0..n-1 from the phases it forms, and ``purity``
of every channel output reads chi with the input spectra, or first runs a
pass with no inverse FFT; a mixture built directly takes the Gram matrix.
At the Nyquist lag d = n/2, |chi| is read at k = -(n/2) dk, where
``fftfreq`` puts that wavenumber.

Sign convention: ``translate(psi, a)`` returns ``psi(x + a)``, so the
density peak of a packet translated by ``a`` sits at ``x = -a``.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

from .errors import (
    DomainError,
    Frozen,
    GridMismatchError,
    NormalizationError,
    ResourceLimitError,
    finite,
    integer,
    positive,
    probability_weights,
)
from .analytic import gaussian_kernel
from .group_algebra import Component, GroupDensity, make_delta
from .textio import csv_table

NORM_TOL = 1e-9
DENSITY_INTEGRAL_TOL = 1e-8
DEFAULT_QUAD_ORDER = 64
TERM_CAP = 4096
# Output rows formed by one batched inverse FFT: 8 rows of n = 8192 are 1 MiB.
ROW_BLOCK = 8

# Half-width, in standard deviations, of the node comb used to discretize
# Gaussian smearing. 8 sigma truncates below 1.3e-15 of the mass and keeps
# the rectangle-rule aliasing error under 1e-8 at 64 nodes.
COMB_HALF_WIDTH = 8.0
COMB_MIN_ORDER = 16  # fewest nodes of a Gaussian's comb


class PositionGrid(Frozen):
    """Periodic position grid with points x_j = -L/2 + j * dx."""

    def __init__(self, n_points: int, extent: float) -> None:
        n = integer("n_points", n_points)
        extent = positive("extent", extent)
        if n < 64 or n & (n - 1):
            raise DomainError(f"n_points must be a power of two >= 64, got {n}")
        self._set(n, extent)

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


def _checked_density(grid: PositionGrid, amps: np.ndarray) -> np.ndarray:
    """|amps|^2 of a row or a block of rows, once each row's grid norm is 1 within NORM_TOL."""
    density = np.abs(amps) ** 2
    for total in np.ravel(density.sum(axis=-1)).tolist():
        nrm = math.sqrt(total * grid.spacing)
        if not abs(nrm - 1.0) <= NORM_TOL:
            raise NormalizationError(f"wavefunction norm is {nrm!r}, expected 1")
    return density


class WaveFunction(Frozen, eq=False):
    """Unit-norm complex amplitudes on a position grid."""

    def __init__(self, grid: PositionGrid, amplitudes: np.ndarray) -> None:
        amps = np.array(amplitudes, dtype=complex)
        if amps.shape != (grid.n_points,):
            raise ValueError("amplitudes must match the grid size")
        _checked_density(grid, amps)
        amps.setflags(write=False)
        self._set(grid, amps)

    def norm(self) -> float:
        return self.grid.norm(self.amplitudes)


class PureMixture(Frozen, eq=False):
    """Convex combination of wavefunctions sharing one grid."""

    def __init__(self, grid: PositionGrid, terms: tuple[tuple[float, WaveFunction], ...]) -> None:
        terms = tuple((float(w), psi) for w, psi in terms)
        probability_weights("mixture weights", [w for w, _ in terms], NORM_TOL)
        if any(psi.grid != grid for _, psi in terms):
            raise GridMismatchError("all terms must share the mixture grid")
        self._set(grid, terms)


def pure_state(psi: WaveFunction) -> PureMixture:
    """Wrap a wavefunction as a single-term mixture."""
    return PureMixture(psi.grid, ((1.0, psi),))


class PositionDensity(Frozen, eq=False):
    """Probability density of position on a grid; integrates to one."""

    def __init__(self, grid: PositionGrid, values: np.ndarray) -> None:
        values = np.array(values, dtype=float)
        if values.shape != (grid.n_points,):
            raise ValueError("values must match the grid size")
        if not np.all(values >= -1e-12):
            raise NormalizationError("density values must be nonnegative")
        area = grid.integrate(values)
        if not abs(area - 1.0) <= DENSITY_INTEGRAL_TOL:
            raise NormalizationError(f"density integrates to {area!r}, expected 1")
        values.setflags(write=False)
        self._set(grid, values)


def _normalized(grid: PositionGrid, amps: np.ndarray) -> WaveFunction:
    nrm = grid.norm(amps)
    if nrm < 1e-150:
        raise DomainError("amplitudes vanish; cannot normalize")
    return WaveFunction(grid, amps / nrm)


def _packet_profile(grid: PositionGrid, alpha: float, center: float) -> np.ndarray:
    """Unnormalized Gaussian exp(-(x-center)^2 / 4 alpha^2) on the grid points."""
    alpha = positive("alpha", alpha)
    center = finite("center", center)
    if 8.0 * alpha >= grid.extent:
        raise DomainError(
            f"packet width {alpha} does not fit the box: need 8*alpha < extent={grid.extent}"
        )
    # alpha * alpha underflows to 0 or overflows to inf (where alpha**2 would raise)
    return gaussian_kernel(grid.points(), center, positive(f"2*alpha^2 (alpha={alpha})", 2.0 * alpha * alpha))


def gaussian_wavepacket(grid: PositionGrid, alpha: float, center: float = 0.0) -> WaveFunction:
    """Gaussian packet exp(-(x-center)^2 / 4 alpha^2), grid-normalized.

    The position density of the packet is a Gaussian of variance alpha^2.
    """
    return _normalized(grid, _packet_profile(grid, alpha, center).astype(complex))


class ChannelOutput(Frozen, eq=False):
    """A mixture of translated copies of the ``inputs`` terms, formed on demand.

    Output term j at offset i is input term j translated by ``shifts[i]``, of
    weight ``weights[i * len(inputs.terms) + j]``: offset-major, term-minor.
    A pass forms rows by the block (``_blocks``, flattened by ``_rows``); only
    ``terms`` keeps them. Every pass over the offsets accumulates ``chi`` for
    :func:`purity` and stores it at its end, the same bits from every pass,
    from the half-spectrum phases exp(i k_j a), j = 0..n/2, w the
    ``offset_weights``: ``chi[0] = sum w exp(i k_j a)`` and
    ``chi[1] = sum w exp(-i n dk a) exp(i k_j a)``. Since ``fftfreq`` puts
    k = -(n/2) dk at j = n/2, chi[0][j] is chi(j dk) for j < n/2 and
    chi[0][n/2] has the modulus of chi(n/2 dk); chi[1][j] = chi(-(n - j) dk)
    covers d = n - j > n/2.
    """

    def __init__(
        self,
        inputs: PureMixture | ChannelOutput,
        shifts: tuple[float, ...],
        offset_weights: tuple[float, ...],
        weights: tuple[float, ...],
    ) -> None:
        self._set(inputs, shifts, offset_weights, weights)
        object.__setattr__(self, "chi", [])

    @property
    def grid(self) -> PositionGrid:
        return self.inputs.grid

    @functools.cached_property
    def spectra(self) -> np.ndarray:
        """The forward FFT of every input term, one per row."""
        return np.fft.fft([psi.amplitudes for _, psi in self.inputs.terms])

    @functools.cached_property
    def terms(self) -> tuple[tuple[float, WaveFunction], ...]:
        # rows come first, so the pass runs to its end and fills chi
        rows = self._rows()
        return tuple((w, WaveFunction(self.grid, row)) for row, w in zip(rows, self.weights))

    def _rows(self) -> Iterator[np.ndarray]:
        """Every output row in order, valid until the next block."""
        for _, block in self._blocks():
            yield from block.reshape(-1, self.grid.n_points)

    def _blocks(self, inverse: bool = True) -> Iterator[tuple[tuple[float, ...], np.ndarray]]:
        """Each block's offsets and rows, shape (offsets, input terms, n); none if not ``inverse``.

        Up to ``ROW_BLOCK`` rows, in buffers the next block overwrites, take one cos, one sin
        and one inverse FFT call; a zero offset's rows hold the inputs. The angle over the
        n//2 + 1 wavenumbers of non-negative index is Im(ik * a), ``a * k`` + 0.0 but at the
        Nyquist index (Re(ik) = -0.0 there), so the phases are ``np.exp(ik * a)`` bit for bit
        where both reach libm, and k[n-j] = -k[j] makes the upper half their conjugate. chi
        takes each scalar first: numpy rounds ``phase * c`` to other bits than ``c * phase``.
        """
        n, half = self.grid.n_points, self.grid.n_points // 2
        k = self.grid.wavenumbers()[: half + 1]
        wrap = -2j * np.pi * n / self.grid.extent
        chi = np.zeros((2, half + 1), dtype=complex)
        scratch = np.empty(half + 1, dtype=complex)
        amps = [psi.amplitudes for _, psi in self.inputs.terms]
        per = min(len(self.shifts), max(1, ROW_BLOCK // len(amps)))  # offsets per block
        phase_buffer = np.empty((per, n), dtype=complex)
        row_buffer = np.empty((per, len(amps), n), dtype=complex)
        for start in range(0, len(self.shifts), per):
            shifts = self.shifts[start : start + per]
            phases = phase_buffer[: len(shifts)]
            low = phases[:, : half + 1]
            spare = phases[:, half + 1 :].view(float)  # unused until the conjugate fills it
            angle = np.multiply(np.array(shifts)[:, None], k, out=spare[:, : half + 1])
            angle[:, :half] += 0.0
            np.cos(angle, out=low.real)
            np.sin(angle, out=low.imag)
            for w, a, phase in zip(self.offset_weights[start:], shifts, low):
                chi[0] += np.multiply(w, phase, out=scratch)
                chi[1] += np.multiply(w * np.exp(wrap * a), phase, out=scratch)
            if inverse:
                np.conjugate(phases[:, half - 1 : 0 : -1], out=phases[:, half + 1 :])
                block = np.multiply(phases[:, None], self.spectra, out=row_buffer[: len(shifts)])
                np.fft.ifft(block, out=block)
                if 0.0 in shifts:
                    block[np.equal(shifts, 0.0)] = amps
                yield shifts, block
        self.chi[:] = chi


def translate(psi: WaveFunction, a: float) -> WaveFunction:
    """Exact spectral translation: returns the state with values psi(x + a)."""
    return act_mixed(make_delta(a), pure_state(psi)).terms[0][1]


def _node_comb(comp: Component, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Node comb of one component: a Dirac is its one node, a Gaussian ``order`` uniform nodes."""
    if comp.variance == 0.0:
        return np.array([comp.mean]), np.array([1.0])
    if order < COMB_MIN_ORDER:
        raise DomainError(
            f"quad_order must be >= {COMB_MIN_ORDER} for Gaussian components, got {order}"
        )
    sd = math.sqrt(comp.variance)
    # the kernel divides squares up to (8 sigma)^2 by 2 sigma^2: both must stay finite
    if math.isinf(2.0 * COMB_HALF_WIDTH**2 * comp.variance):
        raise DomainError(f"Gaussian variance {comp.variance!r} is too wide for the node comb")
    nodes = comp.mean + sd * np.linspace(-COMB_HALF_WIDTH, COMB_HALF_WIDTH, order)
    weights = gaussian_kernel(nodes, comp.mean, comp.variance)
    return nodes, weights / weights.sum()


def act_mixed(
    rho_R: GroupDensity, state: PureMixture | ChannelOutput, quad_order: int = DEFAULT_QUAD_ORDER
) -> ChannelOutput:
    """Mixed translation channel: average of unitary translations under rho_R.

    Every component's offsets come from its node comb: a Dirac's one node;
    a Gaussian's ``quad_order`` nodes uniform over mean +- 8 sigma with Gaussian
    weights, which keeps the position-density error of the discretization
    below 1e-8 at the default order. A sharp translation is the Dirac case,
    ``act_mixed(make_delta(a), state)``.
    ``quad_order`` must be an integer, even for a Dirac-only density. The
    output size is checked against ``TERM_CAP`` before any comb is built,
    and every offset before any transform. No transform runs here: the
    :class:`ChannelOutput` holds the input terms, the offsets and the
    weights, ordered offset-major, term-minor, and keeps no row unless its
    ``terms`` are read; the module note gives the cost of a pass over its rows.
    """
    quad_order = integer("quad_order", quad_order)
    n_offsets = sum(1 if c.variance == 0.0 else quad_order for _, c in rho_R.components)
    n_out = n_offsets * len(state.terms)
    if n_out > TERM_CAP:
        raise ResourceLimitError(
            f"mixed translation would produce {n_out} terms, cap is {TERM_CAP}"
        )

    offsets: list[tuple[float, float]] = []
    for w, comp in rho_R.components:
        nodes, node_weights = _node_comb(comp, quad_order)
        offsets.extend(zip(w * node_weights, nodes))
    shifts = tuple(float(a) for _, a in offsets)
    widest = max(map(abs, shifts))
    if widest >= 0.5 * state.grid.extent:
        raise DomainError(
            f"translation parameter |a|={widest} is too large for the periodic box"
            f" of extent {state.grid.extent}"
        )
    weights = [wa * wt for wa, _ in offsets for wt, _ in state.terms]
    total = math.fsum(weights)
    offset_weights = tuple(w / total for w, _ in offsets)
    return ChannelOutput(state, shifts, offset_weights, tuple(float(w / total) for w in weights))


def position_density(state: PureMixture | ChannelOutput) -> PositionDensity:
    """Weighted sum of term densities |psi_i(x)|^2, each term's norm checked.

    A channel output's densities and norms come a block at a time and are
    added row by row, in order, keeping no row: one pass (see the module note).
    """
    n = state.grid.n_points
    if isinstance(state, ChannelOutput):
        weights, blocks = state.weights, (block for _, block in state._blocks())
    else:
        weights, blocks = [w for w, _ in state.terms], (psi.amplitudes for _, psi in state.terms)
    densities = (row for b in blocks for row in _checked_density(state.grid, b).reshape(-1, n))
    values = np.zeros(n)
    for w, density in zip(weights, densities, strict=True):
        values += w * density
    return PositionDensity(state.grid, values)


def _dephased_purity(out: ChannelOutput) -> float:
    """(dx/n)^2 sum_d S(d) |chi(d dk)|^2 over the differences d = -(n-1)..n-1.

    S(d) = sum_st v_s v_t corr(conj(u_s) u_t)(d), the lag-d autocorrelation
    of the products of the fftshifted input spectra u; the sum over each
    pair and its transpose is real and even in d. When no pass has run, one
    runs that forms the phases and no inverse FFT.
    """
    if not out.chi:
        next(out._blocks(inverse=False), None)  # yields nothing: runs the whole pass
    n, half = out.grid.n_points, out.grid.n_points // 2
    low, high = out.chi
    chi = np.concatenate([low, high[half - 1 : 0 : -1]])
    chi_sq = chi.real**2 + chi.imag**2
    spectra = np.fft.fftshift(out.spectra, axes=-1)
    v = [w for w, _ in out.inputs.terms]
    power = np.zeros(2 * n)
    for s in range(len(spectra)):
        for t in range(s, len(spectra)):
            corr = np.fft.fft(spectra[s].conj() * spectra[t], 2 * n)
            both = 1.0 if s == t else 2.0
            power += (both * v[s] * v[t]) * (corr.real**2 + corr.imag**2)
    # on a real array the forward transform scaled by 1/m has the inverse's real part, bit for bit
    lag = np.fft.fft(power, norm="forward").real[:n]
    return float(2.0 * (lag @ chi_sq) - lag[0] * chi_sq[0]) * (out.grid.spacing / n) ** 2


def purity(state: PureMixture | ChannelOutput) -> float:
    """Tr rho^2 of a mixture: one path for a channel output, one for any other.

    A channel output from :func:`act_mixed` is rho_in(k, k') chi(k - k') in
    the momentum basis, so Tr rho^2 = (dx/n)^2 sum_d S(d) |chi(d dk)|^2 with
    S(d) = sum_{k - k' = d dk} |rho_in(k, k')|^2 from one FFT correlation of
    length 2n per pair of input terms; chi reaches |d| = n - 1, and its
    modulus at the Nyquist lag d = n/2 comes from k = -(n/2) dk, where
    ``fftfreq`` puts that wavenumber. chi comes from the output's last pass
    over its offsets, or from one run without inverse FFTs, and no row is
    built; the cost grows with the square of the input terms, whatever the
    number of offsets. Any other mixture uses sum_ij w_i w_j
    |<psi_i|psi_j>|^2 from one complex Gram product of the term amplitudes.
    A grid spacing outside [1e-100, 1e100] raises :class:`DomainError`.
    """
    dx = state.grid.spacing
    # the sums reach (n/dx)^2 2n and dx^2: inside the float range for every n below 1e35
    if not 1e-100 <= dx <= 1e100:
        raise DomainError(f"purity needs a grid spacing in [1e-100, 1e100], got {dx!r}")
    if isinstance(state, ChannelOutput):
        return _dephased_purity(state)
    weights = np.array([w for w, _ in state.terms])
    amps = np.stack([psi.amplitudes for _, psi in state.terms])
    gram = amps.conj() @ amps.T
    return float(weights @ (gram.real**2 + gram.imag**2) @ weights) * dx**2


def two_gaussian_superposition(
    grid: PositionGrid, alpha: float, a2: float, sign: int = +1
) -> WaveFunction:
    """Normalized sum or difference of the packet profiles centered at 0 and a2."""
    if sign not in (+1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    if sign == -1 and a2 == 0.0:
        raise DomainError("difference of coincident Gaussians is the zero function")
    amps = _packet_profile(grid, alpha, 0.0) + sign * _packet_profile(grid, alpha, a2)
    return _normalized(grid, amps.astype(complex))


def smeared_pair(
    smear: Component, psi: WaveFunction, quad_order: int
) -> tuple[PositionDensity, WaveFunction]:
    """One component as a channel (mixed density) and coherently (packet), a Dirac the sharp pair,
    in one pass over the rows ``b[:, 0]`` of ``act_mixed`` on one input term, each norm-checked once:
    |row|^2 under the channel's weights in :func:`position_density`'s order, the row under the comb's."""
    out = act_mixed(GroupDensity(((1.0, smear),)), pure_state(psi), quad_order)
    values, amps = np.zeros(psi.grid.n_points), np.zeros(psi.grid.n_points, dtype=complex)
    rows = (pair for _, b in out._blocks() for pair in zip(b[:, 0], _checked_density(psi.grid, b)[:, 0]))
    for w, c, (row, density) in zip(out.weights, _node_comb(smear, quad_order)[1], rows, strict=True):
        values += w * density
        amps += c * row
    return PositionDensity(psi.grid, values), _normalized(psi.grid, amps)


def coherently_translated(
    smear: Component, psi: WaveFunction, quad_order: int = DEFAULT_QUAD_ORDER
) -> WaveFunction:
    """Coherent (amplitude-level) smearing of a wavefunction: :func:`smeared_pair`'s packet.

    Returns the normalized quadrature of integral da rho(a) psi(x + a), a pure
    state unlike the output of :func:`act_mixed`; a Gaussian's density is always
    narrower than the channel output's for the same width, a Dirac's is translated.
    """
    return smeared_pair(smear, psi, quad_order)[1]


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
