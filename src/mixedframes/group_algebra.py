"""States on the group of 1-D translations and their convolution algebra.

A state is a probability density over the group parameter ``a``, stored
symbolically as a finite mixture of point masses (Dirac) and Gaussians.
Every operation reads a component as ``(mean, variance)``: a Dirac is the
Gaussian of variance 0, whose mean is its location. The mixture family is
closed under the convolution product, so products, the identity
``delta_0`` and the reflection ``a -> -a`` are all exact: they merge only
identical components. The one tolerance is in the comparison,
:func:`density_gap`, which matches components that rounding has moved apart.
Pure states (single Dirac components) are invertible under convolution;
everything else only forms a semigroup, which the banded characteristic-
function test below makes decidable.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable, Iterable, Sequence

import numpy as np

from .analytic import norm_pdf
from .errors import DomainError, Frozen, QuadratureError, finite, positive, probability_weights

WEIGHT_TOL = 1e-12
MATCH_TOL = 1e-10
SCAN_POINTS = 20001
REFINE_MAX_ROUNDS = 64  # halving a bracket of two scan steps down to 1e-7 of a step takes 25
QUAD_NODES = 10  # Gauss-Legendre nodes per panel of evaluate's adaptive rule
QUAD_MAX_SPLITS = 200


class DiracComponent(Frozen):
    """Point mass delta(a - location), read as mean ``location`` and variance 0.0."""

    _fields = ("location",)
    variance = 0.0

    def __init__(self, location: float) -> None:
        finite("Dirac location", location)
        object.__setattr__(self, "location", location)

    @property
    def mean(self) -> float:
        return self.location


class GaussianComponent(Frozen):
    """Normal density with the given mean and variance (sigma squared)."""

    _fields = ("mean", "variance")

    def __init__(self, mean: float, variance: float) -> None:
        finite("Gaussian mean", mean)
        positive("Gaussian variance", variance)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)


Component = DiracComponent | GaussianComponent
WeightedComponent = tuple[float, Component]


class GroupDensity(Frozen):
    """Normalized probability density on the translation group.

    ``components`` is an ordered list of ``(weight, component)`` pairs with
    positive weights summing to one.
    """

    _fields = ("components",)

    def __init__(self, components: tuple[WeightedComponent, ...]) -> None:
        comps = tuple((float(w), c) for w, c in components)
        probability_weights("component weights", [w for w, _ in comps], WEIGHT_TOL)
        for _, comp in comps:
            if not isinstance(comp, (DiracComponent, GaussianComponent)):
                raise TypeError(f"unsupported component type {type(comp).__name__}")
        object.__setattr__(self, "components", comps)


def _canonical(triples: Iterable[tuple[float, float, float]]) -> tuple[WeightedComponent, ...]:
    """Components of ``(weight, mean, variance)`` triples, merged and in canonical order.

    A triple is keyed ``(is_gaussian, mean, variance)``, with ``-0.0`` read as
    ``0.0``, and becomes a Dirac when its variance is 0.0. Only equal keys
    merge, so canonicalisation commutes exactly with :func:`convolve`,
    :func:`antipode` and :func:`mix`; components that differ in the last bit
    stay apart for :func:`density_gap` to match.
    """
    weights: dict[tuple[bool, float, float], float] = {}
    for w, mean, var in triples:
        key = (var > 0.0, mean + 0.0, var)
        weights[key] = weights.get(key, 0.0) + w
    return tuple(
        (w, GaussianComponent(mean, var) if gaussian else DiracComponent(mean))
        for (gaussian, mean, var), w in sorted(weights.items())
    )


def make_delta(a0: float) -> GroupDensity:
    """Pure state: the point mass at group parameter ``a0``."""
    return GroupDensity(((1.0, DiracComponent(float(a0))),))


def make_gaussian(mean: float, variance: float) -> GroupDensity:
    """Mixed state: a single Gaussian density."""
    return GroupDensity(((1.0, GaussianComponent(float(mean), float(variance))),))


def mix(parts: Sequence[tuple[float, GroupDensity]]) -> GroupDensity:
    """Convex combination of densities; weights must sum to one."""
    parts = list(parts)
    probability_weights("mixture weights", [w for w, _ in parts], WEIGHT_TOL)
    flattened = [(w * u, c.mean, c.variance) for w, rho in parts for u, c in rho.components]
    return GroupDensity(_canonical(flattened))


def evaluate(rho: GroupDensity, f: Callable[[float], float]) -> float:
    """Expectation of a bounded continuous test function under the density.

    Dirac components evaluate ``f`` pointwise. A Gaussian component is
    integrated over mean +- 10 sigma by adaptive composite Gauss-Legendre
    quadrature (Gander & Gautschi, BIT 40, 2000), calling ``f`` one float at
    a time: a panel whose ``QUAD_NODES``-point rule differs from the sum over
    its two halves by more than its width's share of the tolerance is split,
    otherwise its halves are kept. The tolerance is 1e-10 relative to the
    integral of ``|f|`` times the density (1e-13 at least), so a kink such as
    exp(-|a|) is resolved by splits around it. Raises :class:`QuadratureError`
    on a non-finite value or after ``QUAD_MAX_SPLITS`` splits of one component.
    """
    nodes, weights = _legendre_nodes(QUAD_NODES)
    total = 0.0
    for w, comp in rho.components:
        if comp.variance == 0.0:
            total += w * f(comp.mean)
            continue

        def rule(a: float, b: float) -> np.ndarray:
            x = (a + b) / 2.0 + (b - a) / 2.0 * nodes
            values = np.array([f(t) for t in x.tolist()], dtype=float)  # f takes one float
            return (b - a) / 2.0 * weights * values * norm_pdf(x, comp.mean, comp.variance)

        sd = math.sqrt(comp.variance)
        lo, hi = comp.mean - 10.0 * sd, comp.mean + 10.0 * sd
        first = rule(lo, hi)
        tol = max(1e-13, 1e-10 * float(np.sum(np.abs(first)))) / (hi - lo)
        todo, kept, splits = [(lo, hi, float(np.sum(first)))], [], 0
        while todo:
            a, b, whole = todo.pop()
            mid = (a + b) / 2.0
            left, right = float(np.sum(rule(a, mid))), float(np.sum(rule(mid, b)))
            if abs(left + right - whole) <= tol * (b - a):
                kept.append(left + right)
                continue
            splits += 1
            if splits > QUAD_MAX_SPLITS or not math.isfinite(left + right):
                raise QuadratureError(f"quadrature failed after {splits} splits for component {comp}")
            todo += [(a, mid, left), (mid, b, right)]
        total += w * math.fsum(kept)
    return total


@functools.cache
def _legendre_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]; numpy.polynomial loads on the first call."""
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False  # one copy serves every caller
    return nodes, weights


def convolve(rho1: GroupDensity, rho2: GroupDensity) -> GroupDensity:
    """Convolution product of two group states.

    Closed-form rules: locations add, variances add (a Dirac has variance 0),
    and mixtures distribute bilinearly with weight products.
    """
    return GroupDensity(_canonical(
        (w1 * w2, c1.mean + c2.mean, c1.variance + c2.variance)
        for w1, c1 in rho1.components for w2, c2 in rho2.components
    ))


def antipode(rho: GroupDensity) -> GroupDensity:
    """Reflection a -> -a; inverts pure states, and only those."""
    return GroupDensity(_canonical((w, -c.mean, c.variance) for w, c in rho.components))


def characteristic_function(rho: GroupDensity, p: np.ndarray) -> np.ndarray:
    """chi(p) = integral of rho(a) exp(-i a p) da at every dual point ``p``.

    Each component adds ``w exp(-i mean p - variance p^2 / 2)``; a Dirac is the
    variance-0 case, whose decay ``0.5 * 0.0 * p * p`` is +0.0 even where
    ``p * p`` overflows. The exponentials of all components are one
    components x points array, and their weighted rows are added in component
    order. Any array of finite points is accepted; the one input check is that
    the largest phase ``mean * p`` is finite, which also rejects NaN and
    infinite points with :class:`DomainError`.
    """
    p = np.asarray(p, dtype=float)
    _largest_phase(rho, float(np.abs(p).max(initial=0.0)))
    return _chi(_columns(rho), p)


def _largest_phase(rho: GroupDensity, widest: float) -> float:
    """``max |mean| * widest``, or :class:`DomainError` unless it is finite."""
    far = max(abs(c.mean) for _, c in rho.components)
    phase = far * widest  # Python floats: inf or NaN without a numpy warning
    if not math.isfinite(phase):  # the message is formatted only to raise
        finite(f"phase location*p at location {far!r} and |p| {widest!r}", phase)
    return phase


def _columns(rho: GroupDensity) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weights, phase factors ``-1j * mean`` and decay factors ``0.5 * variance``
    of the components, one entry per component, for :func:`_chi`."""
    weights, means, variances = np.array([(w, c.mean, c.variance) for w, c in rho.components]).T
    return weights, -1j * means, 0.5 * variances


def _chi(columns: tuple[np.ndarray, np.ndarray, np.ndarray], p: np.ndarray, scale: float = 0.0):
    """chi at float points ``p`` whose phases are finite, from :func:`_columns`.

    With a nonzero ``scale`` ``s``, also ``s chi'`` and ``s^2 chi''`` at ``p``
    from the same exponentials: the derivatives in the unit ``s``, which keeps
    them in range at any scale of ``p``. Where a decayed term's rate overflows
    they are NaN, and the caller ignores the warning.
    """
    weights, phases, decays = (x.reshape((-1,) + (1,) * p.ndim) for x in columns)
    terms = phases * p
    # a decay that overflows to inf gives exp(-inf) = 0, the right value
    with np.errstate(over="ignore"):
        terms.real -= decays * p * p
        np.exp(terms, out=terms)
    terms *= weights
    values = np.zeros(p.shape, dtype=complex)
    for row in terms:
        values += row
    if not scale:
        return values
    rates = (phases - 2.0 * decays * p) * scale  # s d/dp of each exponent, s (-i mean - variance p)
    variances = 2.0 * decays * scale * scale  # 0 for a Dirac, also where scale * scale overflows
    slopes = rates * terms
    return values, slopes.sum(0), (rates * slopes - variances * terms).sum(0)


def is_invertible(rho: GroupDensity, band: float, floor: float) -> tuple[bool, float | None]:
    """Banded invertibility test for the convolution semigroup.

    Returns ``(True, None)`` for a single Dirac component (unimodular
    characteristic function, decided analytically). Otherwise reports
    whether the infimum of ``|chi(p)|`` over ``|p| <= band`` stays at or
    above ``floor``, together with a nonnegative witness ``p*`` where
    ``|chi|`` comes within 1e-9 of that infimum.

    ``|chi(-p)| = |chi(p)|`` for a real density, so only ``0 <= p <= band``
    is scanned, at ``(SCAN_POINTS + 1) // 2`` points: the spacing of a
    ``SCAN_POINTS``-point scan of the full range. The interior samples turn
    each component's phase by one fixed rotation per point
    (:func:`_rotated_chi`), within a stated rounding bound of ``|chi|``; the
    two ends and every refined point are :func:`characteristic_function`'s
    values, and the least is taken over those alone. Each interior sample no
    larger than its neighbours opens a bracket ``[p[i-1], p[i+1]]``.

    A bracket is settled from its samples, and not refined, when a bound on
    ``|d^2 |chi|^2 / dp^2|`` over it (Piyavskii 1972; Shubert 1972) shows
    that it cannot lower the least of the two ends by more than twice the
    rounding bound: on a tail where ``|chi|`` is flat to rounding, every
    bracket is settled. Every other bracket is refined from its middle sample,
    all at once on numpy arrays, by Newton steps on
    ``d|chi|^2/dp = 2 Re(conj(chi) chi')`` that fall back to halving the
    bracket whenever a step would leave it (Press et al., *Numerical Recipes*,
    3rd ed., 2007, sec. 9.4). A bracket stops once its step is no longer than
    ``1e-7`` of the scan step (1e-10 at a band of 10), a tolerance that
    scales with the band and stays far above the float spacing at any ``p``;
    or once its Newton model cannot lower ``|chi|^2`` by more than its own
    rounding. The witness is the smallest ``p``, refined point or scan sample,
    whose ``|chi|`` lies within 1e-9 of the least: on a flat tail, the first
    sample where the tail comes that close.
    """
    positive("band", band)
    if not 0.0 < floor < 1.0:
        raise DomainError(f"floor must lie in (0, 1), got {floor}")
    if is_pure(rho):
        return True, None
    least, witness = _min_modulus(rho, band)
    return least >= floor, witness


def _min_modulus(rho: GroupDensity, band: float) -> tuple[float, float]:
    """Least ``|chi|`` over ``0 <= p <= band`` and its witness; see :func:`is_invertible`."""
    columns = _columns(rho)
    grid = _scan_grid(band)
    step = float(grid[1])
    # the largest phase is checked before the scan, and every refined point lies between the ends;
    # the scan's |chi| stays within `rounding` of the exact one (see _rotated_chi)
    rounding = 4.0 * sys.float_info.epsilon * (math.isqrt(grid.size) + 1 + _largest_phase(rho, band))
    vals = np.empty(grid.size)
    vals[[0, -1]] = np.abs(_chi(columns, grid[[0, -1]]))
    inner = np.abs(_rotated_chi(rho, grid[1:-1]), out=vals[1:-1])
    i = np.flatnonzero((inner <= vals[:-2]) & (inner <= vals[2:])) + 1
    least = float(min(vals[0], vals[-1]))
    best_x = best_m = np.empty(0)
    if i.size:
        # huge means overflow the bounds and the slopes to inf; an inf or NaN bound settles nothing
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # each cell of a bracket stays above its lower sample less M h^2 / 8 (Piyavskii; Shubert)
            floor2 = np.maximum(vals[i] - rounding, 0.0) ** 2 - _curvature(rho, grid[i - 1], band) * (
                step * step / 8.0)
            i = i[~(np.sqrt(np.maximum(floor2, 0.0)) >= least - 2.0 * rounding)]
            best_x, best_m = _refine(columns, grid[i], grid[i - 1], grid[i + 1], step)
    least = min(least, float(best_m.min(initial=np.inf)))
    close = vals <= least + 1e-9
    first = close.argmax()  # the first scan sample within 1e-9 of the least, if any
    witness = best_x[best_m <= least + 1e-9].min(initial=grid[first] if close[first] else np.inf)
    return least, float(witness)


def _refine(columns: tuple[np.ndarray, np.ndarray, np.ndarray], x: np.ndarray, lo: np.ndarray,
            hi: np.ndarray, unit: float) -> tuple[np.ndarray, np.ndarray]:
    """The least ``|chi|`` found in each bracket ``[lo, hi]`` from ``x`` and where it lies.

    One :func:`_chi` call per round serves every bracket, with derivatives in
    ``unit`` (the scan step). A Newton step on ``d|chi|^2/dp`` that stays in
    its bracket is taken, else the bracket is halved; the bracket keeps the
    side toward which ``|chi|^2`` descends. A bracket stops once its step is
    within ``1e-7 unit``, or once its Newton model cannot lower ``|chi|^2`` by
    more than ``4 eps |chi|^2``.
    """
    eps4 = 4.0 * sys.float_info.epsilon
    best_x, best_m = x, np.full(x.size, np.inf)
    for _ in range(REFINE_MAX_ROUNDS if x.size else 0):
        chi, slope, bend = _chi(columns, x, unit)
        modulus = np.abs(chi)
        better = modulus < best_m
        best_x, best_m = np.where(better, x, best_x), np.where(better, modulus, best_m)
        conj = chi.conj()
        descent = (conj * slope).real  # half of d|chi|^2/dp
        convex = (slope.conj() * slope + conj * bend).real  # half of d^2|chi|^2/dp^2
        lo, hi = np.where(descent < 0.0, x, lo), np.where(descent > 0.0, x, hi)
        # where convex <= 0 the step points out of [lo, hi], or is NaN
        nxt = x - descent / convex * unit
        nxt = np.where((lo <= nxt) & (nxt <= hi), nxt, 0.5 * (lo + hi))
        moving = (np.abs(nxt - x) > 1e-7 * unit) & (descent * descent > eps4 * modulus * modulus * convex)
        if not moving.any():
            break
        x = np.where(moving, nxt, x)
    return best_x, best_m


@functools.lru_cache(maxsize=1)
def _scan_grid(band: float) -> np.ndarray:
    """The ``(SCAN_POINTS + 1) // 2`` scan points of ``[0, band]``; the last band's are kept."""
    grid = np.linspace(0.0, band, (SCAN_POINTS + 1) // 2)
    grid.flags.writeable = False
    return grid


def _curvature(rho: GroupDensity, lo: np.ndarray, reach: float) -> np.ndarray | float:
    """A bound on ``|d^2 |chi|^2 / dp^2|`` over ``lo <= p <= reach`` for each ``lo >= 0``.

    ``|chi|^2`` is the sum over pairs of components of ``T_j conj(T_k)``, with
    ``T = w exp(-i mean p - variance p^2 / 2)``. A pair of Diracs adds at most
    ``w_j w_k (mean_j - mean_k)^2``, which is 0 for a Dirac with itself. Every
    other pair adds at most ``u_j u_k (2 s_j^2 + 2 s_k^2 + v_j + v_k)``, from
    ``|T| <= u``, ``|T'| <= u s`` and ``|T''| <= u (s^2 + v)`` with
    ``s = |mean| + v reach``; ``u`` is ``w`` for a Dirac and at most ``w E`` for
    a Gaussian, where ``E = exp(-v_min lo^2 / 2)`` is the envelope, at ``lo``, of
    the Gaussian that decays slowest.
    """
    diracs = [(w, c.mean) for w, c in rho.components if c.variance == 0.0]
    d0 = sum(w for w, _ in diracs)
    d2 = sum(w * m * m for w, m in diracs)
    center = sum(w * m for w, m in diracs) / d0 if diracs else 0.0
    bound = 2.0 * d0 * sum(w * (m - center) * (m - center) for w, m in diracs)
    gauss = [(w, abs(c.mean) + c.variance * reach, c.variance) for w, c in rho.components if c.variance > 0.0]
    if not gauss:
        return bound
    g0 = sum(w for w, _, _ in gauss)  # times E: the sums over the Gaussians of u and of u (2 s^2 + v)
    g2 = sum(w * (2.0 * s * s + v) for w, s, v in gauss)
    envelope = np.exp(-0.5 * min(v for _, _, v in gauss) * lo * lo)
    return bound + envelope * (4.0 * d2 * g0 + 2.0 * d0 * g2 + 4.0 * g0 * g2 * envelope)


def _rotated_chi(rho: GroupDensity, p: np.ndarray) -> np.ndarray:
    """chi at the uniform points ``p = dp, 2 dp, ...``, for the scan of :func:`_min_modulus`.

    Each component's phase turns by ``r = exp(-i mean dp)`` from one point to
    the next, times its real envelope ``exp(-variance p^2 / 2)``, so the scan
    takes one complex exponential per block of ``B`` (about ``sqrt(len(p))``)
    points, not per point: the point ``j dp`` with ``j = aB + b``, ``1 <= b <= B``,
    gets ``exp(-i mean aB dp) r^b``, and ``r^b`` is a cumulative product whose
    relative error stays near ``B eps``; the whole stays within
    ``4 eps (B + max |mean| * p[-1])`` of chi. A Dirac has no envelope: its
    ``exp(-0.0)`` is 1.0, and a product with 1.0 is exact. The decay keeps
    ``-0.5 * variance * p * p`` in that order, which is finite or -inf. Each
    component is formed in one reused buffer of blocks.
    """
    block = math.isqrt(p.size) + 1
    step = float(p[0])
    starts = np.arange(-(-p.size // block)) * (block * step)  # aB dp, one per block
    values = np.zeros(p.size, dtype=complex)
    blocks = np.empty((starts.size, block), dtype=complex)
    turns = blocks.reshape(-1)[:p.size]
    envelope = np.empty(p.size)
    with np.errstate(over="ignore"):
        for w, c in rho.components:
            near = np.cumprod(np.full(block, np.exp(-1j * c.mean * step)))  # r^1 .. r^B
            np.multiply.outer(w * np.exp(-1j * c.mean * starts), near, out=blocks)
            if c.variance:
                np.multiply(-0.5 * c.variance, p, out=envelope)
                envelope *= p
                turns *= np.exp(envelope, out=envelope)
            values += turns
    return values


def is_pure(rho: GroupDensity) -> bool:
    """True iff the state is exactly one distinct point mass.

    Two Diracs are one only at identical locations (``-0.0`` equals ``0.0``);
    a pair that rounding has split is not pure, however close.
    """
    return len({c for _, c in rho.components}) == 1 and rho.components[0][1].variance == 0.0


def _chains(entries: list[tuple], i: int, tol: float) -> list[list[tuple]]:
    """Sort entries by field ``i`` and split where neighbours differ by more than ``tol``."""
    chains: list[list[tuple]] = []
    for e in sorted(entries, key=lambda e: e[i]):
        if chains and e[i] - chains[-1][-1][i] <= tol:
            chains[-1].append(e)
        else:
            chains.append([e])
    return chains


def _side_summary(cluster: list[tuple], side: int) -> tuple[float, float, float]:
    """Total weight, weighted-mean location and variance of one side's members."""
    members = [(w, loc, var) for s, _, loc, var, w in cluster if s == side]
    if not members:
        return 0.0, 0.0, 0.0
    total = math.fsum(w for w, _, _ in members)
    return (total, math.fsum(w * loc for w, loc, _ in members) / total,
            math.fsum(w * var for w, _, var in members) / total)


def density_gap(rho1: GroupDensity, rho2: GroupDensity) -> float:
    """Distance between two states that tolerates rounding in their parameters.

    Both sides' components are pooled and, for each kind, chained within
    ``MATCH_TOL`` first by location and then by variance. In each cluster the
    gap is the larger of the two sides' weight difference and the differences
    of their weighted-mean location and variance; a cluster that one side lacks
    counts with its full weight. The result is the largest cluster gap: zero
    for a state against itself, symmetric, and covariant under
    :func:`antipode` and translation.
    """
    pooled = [(side, c.variance > 0.0, c.mean, c.variance, w)
              for side, rho in enumerate((rho1, rho2)) for w, c in rho.components]
    gap = 0.0
    for same_kind in _chains(pooled, 1, 0.0):  # kinds never chain together
        for near in _chains(same_kind, 2, MATCH_TOL):
            for cluster in _chains(near, 3, MATCH_TOL):
                (w1, l1, v1), (w2, l2, v2) = (_side_summary(cluster, side) for side in (0, 1))
                if w1 == 0.0 or w2 == 0.0:
                    gap = max(gap, w1 + w2)
                else:
                    gap = max(gap, abs(w1 - w2), abs(l1 - l2), abs(v1 - v2))
    return gap


def densities_close(rho1: GroupDensity, rho2: GroupDensity) -> bool:
    """Equality of states up to rounding: :func:`density_gap` within ``MATCH_TOL``."""
    return density_gap(rho1, rho2) <= MATCH_TOL


def mass_within(rho: GroupDensity, lo: float, hi: float) -> float:
    """Probability mass of the density inside the closed interval [lo, hi]."""
    if hi < lo:
        raise DomainError("interval must satisfy lo <= hi")
    total = 0.0
    for w, comp in rho.components:
        if comp.variance == 0.0:
            if lo <= comp.mean <= hi:
                total += w
        else:
            sd = math.sqrt(2.0 * comp.variance)
            total += 0.5 * w * (
                math.erf((hi - comp.mean) / sd) - math.erf((lo - comp.mean) / sd)
            )
    return total


def uniform_step(grid: np.ndarray) -> float | None:
    """A finite grid's first step; None unless it is positive and all steps agree to 1e-9 of it."""
    step = float(grid[1] - grid[0])
    return step if step > 0 and not np.any(np.abs(np.diff(grid) - step) > 1e-9 * step) else None


def sample_on_grid(rho: GroupDensity, a_grid: np.ndarray) -> np.ndarray:
    """Sample the density on a uniform grid.

    Gaussian components are evaluated pointwise; each Dirac component becomes
    a single-bin spike of height weight/spacing at the nearest grid point, so
    the rectangle-rule integral of the samples is one. A Dirac off the grid
    raises :class:`DomainError`.
    """
    grid = np.asarray(a_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError("sampling grid must be a 1-D array with at least 3 points")
    # Python floats: a span past the float range is inf without a numpy warning
    if not (np.all(np.isfinite(grid)) and math.isfinite(float(grid[-1]) - float(grid[0]))):
        raise ValueError("sampling grid must be finite and span a finite interval")
    step = uniform_step(grid)
    if step is None:
        raise ValueError("sampling grid must be uniform and increasing")
    values = np.zeros_like(grid)
    for w, comp in rho.components:
        if comp.variance == 0.0:
            # range-check in Python floats first, which do not warn on overflow:
            # (location - grid[0]) / step overflows for a far Dirac on a fine grid
            inside = float(grid[0]) - step <= comp.mean <= float(grid[-1]) + step
            idx = int(round((comp.mean - grid[0]) / step)) if inside else -1
            if not 0 <= idx < grid.size:
                raise DomainError(
                    f"Dirac location {comp.mean} lies outside the grid [{grid[0]}, {grid[-1]}]"
                )
            values[idx] += w / step
        else:
            values += w * norm_pdf(grid, comp.mean, comp.variance)
    return values


_KINDS = {"dirac": (DiracComponent, ("weight", "a")),
          "gauss": (GaussianComponent, ("weight", "mean", "var"))}


def to_text(rho: GroupDensity) -> str:
    """Serialize to the plain-text component format, one line per component."""
    lines = []
    for w, comp in rho.components:
        kind = "dirac" if comp.variance == 0.0 else "gauss"
        pairs = zip(_KINDS[kind][1], (w, comp.mean, comp.variance))  # zip drops a Dirac's variance
        lines.append(" ".join([kind, *(f"{key}={value!r}" for key, value in pairs)]))
    return "\n".join(lines) + "\n"


def parse_densities(text: str) -> list[GroupDensity]:
    """Parse densities in the format of :func:`to_text`, separated by blank lines.

    ``#`` starts a comment, and a comment-only line separates nothing. An error
    keeps its type and names its line, counted from 1, or the lines of a density
    whose weights do not sum to one.
    """
    densities: list[GroupDensity] = []
    block: list[tuple[int, WeightedComponent]] = []  # (line number, component)
    for lineno, raw in enumerate([*text.splitlines(), ""], start=1):  # "" ends the last block
        tokens = raw.split("#", 1)[0].split()
        where = f"line {lineno}"
        try:
            if tokens:
                kind, *pairs = tokens
                if kind not in _KINDS:
                    raise ValueError(f"unknown component kind {kind!r}")
                cls, names = _KINDS[kind]
                parts = [pair.partition("=") for pair in pairs]
                if sorted(key + sep for key, sep, _ in parts) != sorted(f"{key}=" for key in names):
                    raise ValueError(f"{kind} takes {' '.join(key + '=' for key in names)} once each")
                fields = {key: value for key, _, value in parts}
                weight, *params = (float(fields[key]) for key in names)
                block.append((lineno, (weight, cls(*params))))
            elif not raw.strip() and block:
                where = f"lines {block[0][0]}-{block[-1][0]}"
                densities.append(GroupDensity(tuple(comp for _, comp in block)))
                block = []
        except ValueError as exc:
            raise type(exc)(f"{where}: {exc}") from None
    return densities
