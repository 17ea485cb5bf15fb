import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from mixedframes import PositionGrid, characteristic_function, verify


@pytest.fixture
def grid() -> PositionGrid:
    return PositionGrid(1024, 40.0)


@pytest.fixture
def fine_grid() -> PositionGrid:
    return PositionGrid(4096, 40.0)


def dense_density_matrix(state) -> np.ndarray:
    """Small-N density matrix oracle: rho = sum_i w_i |psi_i><psi_i| dx."""
    n = state.grid.n_points
    rho = np.zeros((n, n), dtype=complex)
    for w, psi in state.terms:
        rho += w * np.outer(psi.amplitudes, psi.amplitudes.conj()) * state.grid.spacing
    return rho


def verify_checks() -> list[str]:
    """The names of the checks in ``verify.CHECKS``, in report order."""
    return [name for name, _ in verify.CHECKS]


def nested_rescan(f, a, b, points=65, levels=12):
    """Least f on [a, b]: each level samples ``points`` points and keeps the
    two cells around the least, so the bracket shrinks 32-fold per level."""
    best = np.inf
    for _ in range(levels):
        p = np.linspace(a, b, points)
        vals = f(p)
        j = int(np.argmin(vals))
        best = min(best, vals[j])
        a, b = p[max(j - 1, 0)], p[min(j + 1, points - 1)]
    return best


def symmetric_scan_minimum(rho, band, flat=0.0):
    """Reference min |chi| over |p| <= band: a 20,001-point scan of [-band, band],
    then per local minimum of the scan one bounded Brent search (scipy) and a
    nested dense rescan of the same bracket. Brent stops once its bracket is
    below sqrt(eps)*|p|, which leaves |chi| near 1e-9 beside a simple zero;
    the rescan resolves the bracket down to a few ulps of p. A local minimum
    whose second difference of |chi| is below ``flat``, such as one of a tail
    flat to rounding, is taken as sampled: |chi| dips below its samples there
    by about an eighth of that."""

    def abs2(p):
        return np.abs(characteristic_function(rho, p)) ** 2

    grid = np.linspace(-band, band, 20001)
    vals = abs2(grid)
    best = min(vals[0], vals[-1])
    modulus = np.sqrt(vals)
    bend = modulus[:-2] + modulus[2:] - 2.0 * modulus[1:-1]
    for i in np.nonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:]))[0] + 1:
        if bend[i - 1] < flat:
            best = min(best, vals[i])
            continue
        res = minimize_scalar(lambda p: float(abs2(p)), bounds=(grid[i - 1], grid[i + 1]),
                              method="bounded", options={"xatol": 1e-10})
        best = min(best, res.fun, nested_rescan(abs2, grid[i - 1], grid[i + 1]))
    return math.sqrt(max(best, 0.0))
