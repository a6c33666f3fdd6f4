"""Entropy functionals on Gaussian covariance data.

All entropies are in nats.  The von Neumann entropy is a sum of
single-eigenvalue terms s(nu) over the symplectic spectrum, each in one
form with no cancellation (:func:`mode_entropy`); the Renyi-2 entropy
is half the log-determinant of the covariance matrix, sum ln diag L of its
checked Cholesky factor L; the asymptotic entropy ``0.5 ln det(e G / 2)``
is defined on the whole positive-definite cone (it does not require the
uncertainty bound) and sits a fixed ``N ln(e/2)`` above the Renyi-2 value.
The corridor S2 <= S <= S2 + N ln(e/2) between them, and the mutual
informations, are checked by the test suite rather than here.
"""

import math

import numpy as np

from .errors import NotPositiveDefinite
from .phase_space import (
    _earliest_failure,
    _fail,
    _first_not_pd,
    _float_or_stack,
    _mT,
    covariance_factor,
    factor_spectrum,
    n_modes_of,
    williamson_spectrum,
)

LN_E_OVER_2 = 1.0 - math.log(2.0)


def mode_entropy(nu):
    """Entropy contribution s(nu) of each symplectic eigenvalue: a float for a float.

    s(nu) = ((nu+1)/2) ln((nu+1)/2) - e ln e with e = (nu-1)/2, evaluated as
    log1p(e) + e log1p(1/e): both terms are positive for e > 0, so nothing
    cancels at any nu.  The limit s(1) = 0 continues it, and values
    slightly below 1 (roundoff) are clamped.
    """
    nu = np.asarray(nu, dtype=float)
    eps = 0.5 * (nu - 1.0)
    # at nu = 1, 1/e divides by zero; below it log1p(1/e) is undefined
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.log1p(eps) + eps * np.log1p(1.0 / eps)
    return _float_or_stack(np.where(nu <= 1.0, 0.0, s))


def _half_logdet_factor(ell):
    """(1/2) ln det(L L^T) = sum ln diag L of a Cholesky factor L (one value per matrix of a stack)."""
    return np.sum(np.log(np.diagonal(ell, axis1=-2, axis2=-1)), axis=-1)


def logdet_pd(a):
    """log det of a positive definite matrix via Cholesky (overflow safe).

    A float for one matrix; an array with one value per matrix for a stack.
    """
    a = np.asarray(a, dtype=float)
    sym = 0.5 * (a + _mT(a))
    try:
        ell = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        _fail(NotPositiveDefinite, "matrix is not positive definite",
              _first_not_pd(sym) if a.ndim > 2 else None)
    return _float_or_stack(2.0 * _half_logdet_factor(ell))


def von_neumann_entropy(g):
    """Von Neumann entropy of the Gaussian state with covariance ``g`` (of each of a stack)."""
    return _float_or_stack(np.sum(mode_entropy(williamson_spectrum(g)), axis=-1))


@_earliest_failure
def renyi2_entropy(g):
    """Renyi-2 entropy (1/2) ln det G as sum ln diag L of the checked factor L (of each of a stack)."""
    ell = covariance_factor(g)
    factor_spectrum(ell)
    return _float_or_stack(_half_logdet_factor(ell))


def asymptotic_entropy(g):
    """0.5 ln det(e G / 2) for any positive definite ``g`` (of each of a stack).

    Defined on the full PD cone; for a valid covariance matrix it equals
    the Renyi-2 entropy plus N ln(e/2) and upper-bounds the von Neumann
    entropy.
    """
    g = np.asarray(g, dtype=float)
    n = n_modes_of(g)
    return 0.5 * logdet_pd(g) + n * LN_E_OVER_2
