import numpy as np
import pytest

from mixedframes import PositionGrid, verify


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
