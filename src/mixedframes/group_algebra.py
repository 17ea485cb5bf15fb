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
from .errors import DomainError, Frozen, QuadratureError, ResourceLimitError, finite, positive, probability_weights

WEIGHT_TOL = 1e-12
MATCH_TOL = 1e-10
START_POINTS = 65  # uniform exact chi points that start each invertibility test
CHI_POINT_CAP = 1 << 20  # exact chi points of one invertibility test
CHI_BATCH = 1 << 18  # components x points of one _chi call of that test
QUAD_NODES = 10  # Gauss-Legendre nodes per panel of evaluate's adaptive rule
QUAD_MAX_SPLITS = 200


class DiracComponent(Frozen):
    """Point mass delta(a - location), read as mean ``location`` and variance 0.0."""

    variance = 0.0

    def __init__(self, location: float) -> None:
        finite("Dirac location", location)
        self._set(location)

    @property
    def mean(self) -> float:
        return self.location


class GaussianComponent(Frozen):
    """Normal density with the given mean and variance (sigma squared)."""

    def __init__(self, mean: float, variance: float) -> None:
        finite("Gaussian mean", mean)
        positive("Gaussian variance", variance)
        self._set(mean, variance)


Component = DiracComponent | GaussianComponent
WeightedComponent = tuple[float, Component]


class GroupDensity(Frozen):
    """Normalized probability density on the translation group.

    ``components`` is an ordered list of ``(weight, component)`` pairs with
    positive weights summing to one.
    """

    def __init__(self, components: tuple[WeightedComponent, ...]) -> None:
        comps = tuple((float(w), c) for w, c in components)
        probability_weights("component weights", [w for w, _ in comps], WEIGHT_TOL)
        for _, comp in comps:
            if not isinstance(comp, (DiracComponent, GaussianComponent)):
                raise TypeError(f"unsupported component type {type(comp).__name__}")
        self._set(comps)


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
    p, columns = np.asarray(p, dtype=float), _columns(rho)
    _largest_phase(columns, float(np.abs(p).max(initial=0.0)))
    return _chi(columns, p)


def _largest_phase(columns: np.ndarray, widest: float) -> float:
    """``max |mean| * widest`` from :func:`_columns`, or :class:`DomainError` unless it is finite."""
    far = float(np.abs(columns[1]).max())
    phase = far * widest  # Python floats: inf or NaN without a numpy warning
    if not math.isfinite(phase):  # the message is formatted only to raise
        finite(f"phase location*p at location {far!r} and |p| {widest!r}", phase)
    return phase


def _columns(rho: GroupDensity) -> np.ndarray:
    """The weights, means and variances of the components: three rows, one column per component."""
    return np.array([(w, c.mean, c.variance) for w, c in rho.components]).T


def _chi(columns: np.ndarray, p: np.ndarray, scale: float = 0.0):
    """chi at float points ``p`` whose phases are finite, from :func:`_columns`.

    With a nonzero ``scale`` ``s``, also ``s chi'`` and ``s^2 chi''`` at ``p`` from the same
    exponentials: the derivatives in the unit ``s``, which keeps them in range at any scale of ``p``.
    Where a decayed term's rate overflows they are NaN, and the caller ignores the warning. Every
    sum adds the rows in component order, so a point's bits do not depend on the points beside it.
    """
    weights, means, variances = (x.reshape((-1,) + (1,) * p.ndim) for x in columns)
    phases, decays = -1j * means, 0.5 * variances
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
    spreads = 2.0 * decays * scale * scale  # s^2 variance: 0 for a Dirac, also where scale * scale overflows
    slopes = rates * terms
    return values, sum(slopes), sum(rates * slopes - spreads * terms)


def is_invertible(rho: GroupDensity, band: float, floor: float) -> tuple[bool, float | None]:
    """Banded invertibility test for the convolution semigroup.

    Returns ``(True, None)`` for a single Dirac component (unimodular
    characteristic function, decided analytically). Otherwise reports whether
    ``|chi(p)|`` stays at or above ``floor`` over ``|p| <= band``, with a
    nonnegative witness ``p*`` where ``|chi|`` comes within 1e-9 of the least.

    ``|chi(-p)| = |chi(p)|``, so ``[0, band]`` is searched from exact ``chi`` at
    ``START_POINTS`` uniform points; exact ``|chi|`` is within ``4 eps (components
    + 1 + largest phase)``, and a floor within twice that is a :class:`DomainError`.
    Over a cell between two points, ``|chi|^2`` stays above its smaller end less
    the rounding, squared, less an eighth of the bound of :func:`_curvature`
    (Piyavskii 1972; Shubert 1972). A cell is split at the Newton point of
    ``d|chi|^2/dp`` from its lower end when that falls inside (Press et al.,
    *Numerical Recipes*, 3rd ed., 2007, sec. 9.4); a point whose step predicts a
    decrease of ``|chi|^2`` within the rounding ends its descent. Any other cell
    is settled once the bound shows it cannot lower the least by more than twice
    the rounding or, when that Newton point lies at or beyond its lower end,
    cannot reach ``floor``; else it is split at its middle, or at a Gaussian's
    cut-off ``40 / sqrt(v)`` when that lies nearer its lower end. No cell is
    dropped, so ``True`` holds between the points too, to twice the rounding.
    Once the least is below ``floor`` (which then reads 0), a cell left of the
    witness is settled only when also the bound shows it holds no point within
    1e-9 of the least or the Newton step from its higher end crosses it, and is
    split at that Newton point when it falls inside; a cell with an end within
    1e-9 of the least that is no descent's end is not held to this. The witness
    is the smallest ``p`` within 1e-9 of the least among the start points, the
    ends of descents and the points of the least. Past a sixteenth of
    ``CHI_POINT_CAP`` exact points, a ``False`` verdict keeps the witness found
    so far; past ``CHI_POINT_CAP``, :class:`ResourceLimitError` names the spread
    and the band.
    """
    positive("band", band)
    if not 0.0 < floor < 1.0:
        raise DomainError(f"floor must lie in (0, 1), got {floor}")
    if is_pure(rho):
        return True, None
    least, witness = _min_modulus(rho, band, floor)
    return least >= floor, witness


def _min_modulus(rho: GroupDensity, band: float, floor: float = 0.0) -> tuple[float, float]:
    """Least ``|chi|`` over ``0 <= p <= band`` and its witness, the least refined as far as the
    verdict at ``floor`` needs; see :func:`is_invertible`."""
    columns = _columns(rho)
    phase = _largest_phase(columns, band)
    rounding = 4.0 * sys.float_info.epsilon * (columns.shape[1] + 1 + phase)  # of exact |chi|
    if 2.0 * rounding >= floor > 0.0:
        raise DomainError(f"chi's rounding {rounding!r} at band {band!r} and largest phase {phase!r} "
                          f"reaches half the floor {floor!r}")
    grid = np.linspace(0.0, band, START_POINTS)
    step, curvature = float(grid[1]), _curvature(columns)
    with np.errstate(all="ignore"):  # an inf or NaN bound settles nothing
        # past 40 / sqrt(v) a Gaussian's terms underflow to 0, in chi and in the bound alike; a Dirac's is inf
        cuts = 40.0 / np.sqrt(columns[2, :, None])
        vals, targets = _probe(columns, grid, step, rounding)
        least, points, found = float(vals.min()), grid.size, [(grid, vals, np.full(grid.size, True))]
        # a cell is a column: lo, |chi(lo)|, the Newton point from lo, and the same at hi
        cells = np.array([grid[:-1], vals[:-1], targets[:-1], grid[1:], vals[1:], targets[1:]])
        while cells.size:
            lo, f_lo, t_lo, hi, f_hi, t_hi = cells
            width, left = hi - lo, f_lo <= f_hi
            inward = np.where(left, t_lo - lo, hi - t_hi)  # the Newton step from the lower end, into the cell
            bottom = np.sqrt(np.maximum(np.maximum(np.minimum(f_lo, f_hi) - rounding, 0.0) ** 2
                                        - curvature(lo, hi) / 8.0, 0.0))
            stepping = (inward > 0.0) & (inward < width)
            settled = (bottom >= least - 2.0 * rounding) | (inward <= 0.0) & (bottom >= floor * (least >= floor))
            crossing = np.zeros(lo.size, dtype=bool)
            if least < floor:  # a cell left of the witness may hold a smaller one
                near = least + 1e-9
                back = np.where(left, hi - t_hi, t_lo - lo)  # the Newton step from the higher end, into the cell
                passing = (f_lo <= near) & (t_lo != lo) | (f_hi <= near) & (t_hi != hi)  # no descent ends there
                before = (lo < _witness(found, least)) & ~passing
                settled &= ~before | (bottom >= near - 2.0 * rounding) | (back >= width)
                crossing = before & ~settled & (back > 0.0) & (back < width)
            keep = stepping | ~settled
            if not keep.any():
                break
            middle = np.minimum(lo + 0.5 * width, np.where(cuts > lo, cuts, math.inf).min(0))
            split = np.where(stepping, np.where(left, t_lo, t_hi),
                             np.where(crossing, np.where(left, t_hi, t_lo), middle))[keep]
            points += split.size
            if points > (CHI_POINT_CAP >> 4 if least < floor else CHI_POINT_CAP):
                if least < floor:  # the verdict stands, with the witness found so far
                    break
                raise ResourceLimitError(f"the invertibility test at band {band!r} and density spread "
                                         f"{float(np.ptp(columns[1]))!r} exceeds {CHI_POINT_CAP} chi points")
            modulus, target = _probe(columns, split, step, rounding)
            least = min(least, float(modulus.min()))
            found.append((split, modulus, target == split))  # the ends of descents
            cells = np.concatenate((cells[:, keep], cells[:, keep]), axis=1)
            cells[3:, :split.size] = cells[:3, split.size:] = split, modulus, target
    return least, _witness(found, least)


def _witness(found: list[tuple[np.ndarray, np.ndarray, np.ndarray]], least: float) -> float:
    """The smallest ``p`` within 1e-9 of ``least`` among the start points, the ends of descents and
    the points of the least, from ``(points, |chi|, ends)`` triples."""
    p, m, end = (np.concatenate(z) for z in zip(*found))
    return float(p[(m <= least + 1e-9) & (end | (m == least))].min())


def _probe(columns: np.ndarray, x: np.ndarray, unit: float, rounding: float) -> tuple[np.ndarray, np.ndarray]:
    """``|chi|`` at ``x`` and the Newton point of ``d|chi|^2/dp`` from each: NaN if not convex, ``x`` if flat."""
    chunk = max(1, CHI_BATCH // columns.shape[1])
    chi, slope, bend = (np.concatenate(z) for z in zip(*(_chi(columns, x[i:i + chunk], unit)
                                                          for i in range(0, x.size, chunk))))
    conj, modulus = chi.conj(), np.abs(chi)
    drift = (conj * slope).real  # half of d|chi|^2/dp, and below half of d^2|chi|^2/dp^2, in `unit`
    convex = (slope.conj() * slope + conj * bend).real
    # the Newton step lowers |chi|^2, by g^2 / 2h for the derivatives g and h of |chi|^2, within its rounding
    flat = drift * drift <= convex * rounding * (2.0 * modulus + rounding)
    return modulus, np.where(convex > 0.0, np.where(flat, x, x - drift / convex * unit), np.nan)


def _curvature(columns: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """A bound on ``(hi - lo)^2 |d^2 |chi|^2 / dp^2|`` over each cell ``0 <= lo <= p <= hi``.

    ``|chi|^2`` sums ``T_j conj(T_k)`` over pairs of components, ``T = w exp(-i m p - v p^2 / 2)``, and
    ignores a common phase, so means ``m`` are taken from the Diracs' weighted mean (all components'
    without a Dirac). The pairs of Diracs add ``w_j w_k (m_j - m_k)^2``, at most ``2 d0 d2`` in all for
    ``d_k`` the Diracs' sum of ``w |m|^k``; any other pair at most ``|T_j''| |T_k| + 2 |T_j'| |T_k'| +
    |T_j| |T_k''|``, by ``|T| <= w e0``, ``|T'| <= w (|m| e0 + e1)`` and ``|T''| <= w (m^2 e0 + 2 |m| e1
    + e2 + v e0)``, with ``e0``, ``e1``, ``e2`` the largest values over the cell of ``E = exp(-v p^2 / 2)``,
    ``v p E`` and ``v^2 p^2 E``: at ``lo``, ``1 / sqrt(v)`` and ``sqrt(2 / v)`` held to the cell. Means and
    ``sqrt(v)`` are taken in units of the cell's width before squaring, which keeps the bound in range at
    any scale; where ``E`` underflows to 0, as ``chi``'s terms do, so do the terms it bounds. It takes
    the :func:`_columns` of the density, and the returned function the cells' ends; the rest is formed once.
    """
    weights, means, roots = columns[0], columns[1], np.sqrt(columns[2])
    dirac = roots == 0.0
    means = np.abs(means - np.average(means, weights=weights * dirac if dirac.any() else weights))
    d0, dirac_w, dirac_m = float(weights[dirac].sum()), weights[dirac], means[dirac, None]
    w, m, root = weights[~dirac], means[~dirac, None], roots[~dirac, None]  # the Gaussians, one row each

    def bound(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        width = hi - lo
        shift = dirac_m * width  # the Diracs' |m| in units of the width
        d1, d2 = dirac_w @ shift, dirac_w @ (shift * shift)
        mean, rate = m * width, root * width  # the Gaussians' |m| and sqrt(v) in units of the width
        y0, top = root * lo, root * hi  # y = sqrt(v) p: E, v p E and v^2 p^2 E peak at y = 0, 1 and sqrt(2)
        y1 = np.minimum(np.maximum(y0, 1.0), top)
        y2 = np.minimum(np.maximum(y0, math.sqrt(2.0)), top)
        e0 = np.exp(-0.5 * y0 * y0)
        e1 = np.exp(-0.5 * y1 * y1)
        e2 = np.exp(-0.5 * y2 * y2)
        e1 = np.where(e1 > 0.0, rate * y1 * e1, 0.0)
        e2 = np.where(e2 > 0.0, (rate * y2) ** 2 * e2, 0.0)
        ev = np.where(e0 > 0.0, rate * rate * e0, 0.0)
        g0 = w @ e0
        g1 = w @ (mean * e0 + e1)
        g2 = w @ (mean * mean * e0 + 2.0 * mean * e1 + e2 + ev)
        return 2.0 * ((d0 + g0) * (d2 + g2) + g1 * (g1 + 2.0 * d1))

    return bound


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
