"""Random symplectic matrices and covariance matrices for checks and trials.

The exponential is the package's own :func:`~entgrowth.dynamics.expm`, so
drawing a matrix loads no SciPy module.
"""

import numpy as np

from .dynamics import expm
from .phase_space import standard_omega


def random_symplectic(n_modes: int, rng, scale: float = 0.5) -> np.ndarray:
    """exp(Omega h) for a random symmetric h; exactly symplectic up to expm error."""
    dim = 2 * n_modes
    h = rng.normal(size=(dim, dim))
    h = 0.5 * scale * (h + h.T)
    return expm(standard_omega(n_modes) @ h)


def random_pd_symplectic(n_modes: int, rng, scale: float = 0.5) -> np.ndarray:
    """S S^T for random symplectic S: positive definite and symplectic."""
    s = random_symplectic(n_modes, rng, scale)
    m = s @ s.T
    return 0.5 * (m + m.T)


def random_covariance(n_modes: int, rng, scale: float = 0.5, mixed: bool = True) -> np.ndarray:
    """Valid covariance matrix S D S^T with symplectic S.

    ``mixed=True`` draws thermal symplectic eigenvalues in [1, 1+2 scale];
    otherwise D is the identity and the state is pure.
    """
    s = random_symplectic(n_modes, rng, scale)
    if mixed:
        nus = 1.0 + 2.0 * scale * rng.random(n_modes)
    else:
        nus = np.ones(n_modes)
    d = np.repeat(nus, 2)
    g = (s * d) @ s.T
    return 0.5 * (g + g.T)


def random_unstable_hamiltonian_form(n_modes: int, rng, scale: float = 0.6,
                                     min_rate: float = 0.2) -> np.ndarray:
    """Random symmetric form h whose generator Omega h has a real unstable pair."""
    omega = standard_omega(n_modes)
    for _ in range(200):
        h = rng.normal(size=(2 * n_modes, 2 * n_modes))
        h = 0.5 * scale * (h + h.T)
        eigs = np.linalg.eigvals(omega @ h)
        if np.max(eigs.real) > min_rate:
            return h
    raise RuntimeError("could not draw an unstable quadratic form")
