"""Mixed reference-frame transformations.

Probability densities on the 1-D translation group with their convolution
semigroup, the mixture-of-unitaries channel they induce on wavefunctions,
thermal states from smeared time translations, and the 1+1-dimensional
Galilei boost sector.
"""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    GridMismatchError,
    NormalizationError,
    QuadratureError,
    ResourceLimitError,
)
from .group_algebra import (
    DiracComponent,
    GaussianComponent,
    GroupDensity,
    antipode,
    characteristic_function,
    convolve,
    densities_close,
    evaluate,
    from_text,
    is_invertible,
    is_pure,
    make_delta,
    make_gaussian,
    mix,
    sample_on_grid,
    to_text,
)
from .quantum_system import (
    PositionDensity,
    PositionGrid,
    PureMixture,
    WaveFunction,
    act_mixed,
    coherently_translated,
    density_distance,
    gaussian_wavepacket,
    position_density,
    pure_state,
    purity,
    translate,
    two_gaussian_superposition,
)
from .thermal import (
    MomentumGrid,
    MomentumMixture,
    PhysicalConstants,
    ThermalParameters,
    beta_of_temperature,
    energy_momentum_consistency,
    energy_smearing_density,
    maxwell_boltzmann_density,
    momentum_smearing_density,
    temperature_of_beta,
    thermal_state,
    time_translate_diagonal,
)
from .galilei import (
    GalileiParams,
    MomentumEigenLabel,
    OperatorGrid,
    bch_residual,
    boost_mixed,
    boost_pure_label,
    build_operators,
    commutator_residuals,
)

__all__ = [name for name in dir() if not name.startswith("_")]
