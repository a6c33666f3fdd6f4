"""Entanglement dynamics of bosonic systems under quadratic Hamiltonians.

Core layers:

* :mod:`entgrowth.phase_space` - conventions, covariance validity, restriction
* :mod:`entgrowth.entropy` - Gaussian entropies and the bounding corridor
* :mod:`entgrowth.dynamics` - symplectic propagation, polar and stroboscopic factors
* :mod:`entgrowth.lyapunov` - limiting matrix, spectra, regularity
* :mod:`entgrowth.subsystem` - subsystem volume-growth exponents
* :mod:`entgrowth.ssa` - subadditivity objectives, minimization, entropy bounds
* :mod:`entgrowth.fock` - truncated-number-basis oracle
* :mod:`entgrowth.scenarios` / :mod:`entgrowth.cli` - reproducible experiments
"""

from .dynamics import (
    PolarPair,
    PropagationResult,
    QuadraticHamiltonian,
    evolve_covariance,
    generator,
    polar_decompose,
    propagate,
    stroboscopic_generator,
)
from .entropy import (
    EntropyReport,
    LN_E_OVER_2,
    asymptotic_entropy,
    corridor_check,
    mode_entropy,
    mutual_information,
    mutual_information_asymptotic,
    renyi2_entropy,
    von_neumann_entropy,
)
from .fock import (
    FockConfig,
    FockState,
    FockTrajectory,
    build_hamiltonian,
    build_quadratures,
    covariance_of,
    evolve_fock,
    reduced_entropy,
)
from .lyapunov import (
    LyapunovData,
    limiting_matrix_estimate,
    lyapunov_spectrum,
    polar_factor_exponents,
    qr_spectrum,
    regularity_check,
    spectrum_from_propagation,
    vector_exponent,
)
from .phase_space import (
    ModeCount,
    SubsystemSpec,
    complex_structure,
    is_pure,
    restrict,
    standard_omega,
    williamson_spectrum,
)
from .ssa import (
    BoundReport,
    SubsystemFamily,
    gss_objective,
    gss_rhs_minimize,
    pure_state_growth_lower_bound,
    squashed_bounds,
    stationarity_residual,
)
from .subsystem import (
    ExponentReport,
    expansion_matrix,
    select_columns,
    subsystem_exponent_algebraic,
    subsystem_exponent_volumetric,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
