"""Entanglement dynamics of bosonic systems under quadratic Hamiltonians.

Core layers:

* :mod:`entgrowth.phase_space` - conventions, covariance validity, row factors
* :mod:`entgrowth.entropy` - Gaussian entropies
* :mod:`entgrowth.dynamics` - symplectic propagation
* :mod:`entgrowth.lyapunov` - limiting matrix, spectra, regularity
* :mod:`entgrowth.subsystem` - subsystem volume-growth exponents
* :mod:`entgrowth.ssa` - subadditivity minimization and entropy bounds
* :mod:`entgrowth.fock` - truncated-number-basis oracle
* :mod:`entgrowth.scenarios` / :mod:`entgrowth.cli` - reproducible experiments

The names exported here are those the pipeline stages call and the types
they return.
"""

from types import ModuleType as _Module

from .dynamics import PropagationResult, QuadraticHamiltonian, generator, propagate
from .entropy import LN_E_OVER_2, von_neumann_entropy
from .fock import FockConfig, FockState, FockTrajectory, covariance_of, evolve_fock
from .lyapunov import LyapunovData, lyapunov_spectrum, regularity_check
from .phase_space import ModeCount, SubsystemSpec, is_pure, row_factor, williamson_spectrum
from .ssa import BoundReport, gss_rhs_minimize, squashed_bounds
from .subsystem import ExponentReport, subsystem_exponent_algebraic

# the library names, not the submodules that importing them binds
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _Module))
__version__ = "0.1.0"
