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
from typing import Callable, Iterable, Sequence

import numpy as np

from .analytic import norm_pdf
from .errors import DomainError, Frozen, QuadratureError, finite, positive, probability_weights

WEIGHT_TOL = 1e-12
MATCH_TOL = 1e-10
SCAN_POINTS = 20001
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_MAX_STEPS = 200  # each step shrinks a bracket by GOLDEN; 200 steps by 1e-42
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
    far = max(abs(c.mean) for _, c in rho.components)
    # Python floats: the product is inf or NaN without a numpy warning
    widest = float(np.abs(p).max(initial=0.0))
    finite(f"phase location*p at location {far!r} and |p| {widest!r}", far * widest)
    return _chi(_columns(rho), p)


def _columns(rho: GroupDensity) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weights, phase factors ``-1j * mean`` and decay factors ``0.5 * variance``
    of the components, one entry per component, for :func:`_chi`."""
    weights, means, variances = np.array([(w, c.mean, c.variance) for w, c in rho.components]).T
    return weights, -1j * means, 0.5 * variances


def _chi(columns: tuple[np.ndarray, np.ndarray, np.ndarray], p: np.ndarray) -> np.ndarray:
    """chi at float points ``p`` whose phases are finite, from :func:`_columns`."""
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
    return values


def is_invertible(rho: GroupDensity, band: float, floor: float) -> tuple[bool, float | None]:
    """Banded invertibility test for the convolution semigroup.

    Returns ``(True, None)`` for a single Dirac component (unimodular
    characteristic function, decided analytically). Otherwise reports
    whether the infimum of ``|chi(p)|`` over ``|p| <= band`` stays at or
    above ``floor``, together with a nonnegative argmin witness ``p*``.

    ``|chi(-p)| = |chi(p)|`` for a real density, so only ``0 <= p <= band``
    is scanned, at ``(SCAN_POINTS + 1) // 2`` points: the spacing of a
    ``SCAN_POINTS``-point scan of the full range. The interior samples turn
    each component's phase by one fixed rotation per point
    (:func:`_rotated_chi`); they only choose brackets, and the two ends and
    every probe below are :func:`characteristic_function`'s values. The
    candidates are the two ends and every interior sample no larger than its
    neighbours. Each
    interior candidate's bracket ``[p[i-1], p[i+1]]`` is refined by golden-
    section search (Brent, *Algorithms for Minimization without
    Derivatives*, 1973), all brackets at once on numpy arrays, until every
    bracket ``[a, b]`` is narrower than ``1e-10 + 4 eps b`` or
    ``GOLDEN_MAX_STEPS`` steps have run. The relative term lets brackets stop
    at large ``p``, where the float spacing exceeds 1e-10. The witness is the
    smallest ``p`` among the candidates within 1e-9 of the least ``|chi|``.
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

    def abs2(p: np.ndarray) -> np.ndarray:
        return np.abs(_chi(columns, p)) ** 2

    grid = np.linspace(0.0, band, (SCAN_POINTS + 1) // 2)
    vals = np.empty(grid.size)
    # the ends check the largest phase before the scan, and every probe lies between them
    vals[[0, -1]] = np.abs(characteristic_function(rho, grid[[0, -1]])) ** 2
    vals[1:-1] = np.abs(_rotated_chi(rho, grid[1:-1])) ** 2
    interior = np.nonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:]))[0] + 1
    # golden section on every bracket [a, b] at once, with probes a < c < d < b
    a, b = grid[interior - 1], grid[interior + 1]
    width = b - a
    c, d = b - GOLDEN * width, a + GOLDEN * width
    fc, fd = abs2(c), abs2(d)
    eps4 = 4.0 * np.finfo(float).eps
    for _ in range(GOLDEN_MAX_STEPS):
        if (width < 1e-10 + eps4 * b).all():
            break
        left = fc < fd  # the minimum lies in [a, d]; otherwise in [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        width = b - a
        step = GOLDEN * width
        probe = np.where(left, b - step, a + step)
        f_probe = abs2(probe)
        c, fc = np.where(left, probe, kept), np.where(left, f_probe, f_kept)
        d, fd = np.where(left, kept, probe), np.where(left, f_kept, f_probe)
    points = np.concatenate(([grid[0], grid[-1]], np.where(fc <= fd, c, d)))
    moduli = np.sqrt(np.maximum(np.concatenate(([vals[0], vals[-1]], np.minimum(fc, fd))), 0.0))
    least = float(np.min(moduli))
    return least, float(np.min(points[moduli <= least + 1e-9]))


def _rotated_chi(rho: GroupDensity, p: np.ndarray) -> np.ndarray:
    """chi at the uniform points ``p = dp, 2 dp, ...``, for the scan of :func:`_min_modulus`.

    Each component's phase turns by ``r = exp(-i mean dp)`` from one point to
    the next, times its real envelope ``exp(-variance p^2 / 2)``, so the scan
    takes one complex exponential per block of ``B`` (about ``sqrt(len(p))``)
    points, not per point: the point ``j dp`` with ``j = aB + b``, ``1 <= b <= B``,
    gets ``exp(-i mean aB dp) r^b``, and ``r^b`` is a cumulative product whose
    relative error stays near ``B eps``. The decay keeps
    ``-0.5 * variance * p * p`` in that order: a Dirac's is -0.0 even where
    ``p * p`` overflows.
    """
    block = math.isqrt(p.size) + 1
    step = float(p[0])
    starts = np.arange(-(-p.size // block)) * (block * step)  # aB dp, one per block
    values = np.zeros(p.size, dtype=complex)
    with np.errstate(over="ignore"):
        for w, c in rho.components:
            near = np.cumprod(np.full(block, np.exp(-1j * c.mean * step)))  # r^1 .. r^B
            turns = np.multiply.outer(w * np.exp(-1j * c.mean * starts), near).ravel()[:p.size]
            values += np.exp(-0.5 * c.variance * p * p) * turns
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
