"""Finite-horizon Lyapunov spectra, bases, and regularity diagnostics.

The limiting matrix ln(M M^T) / (2t) is estimated by the re-orthonormalized
push-forward of :func:`qr_spectrum`, which accumulates ln diag(R) and
resolves the full spectrum at any horizon; :func:`lyapunov_spectrum` is
this estimator.  :func:`spectrum_from_propagation` takes one SVD of a
stored M(t*) instead: it is the reference the polar-factor comparison and
the tests check against, and it loses contracting directions to roundoff
once lambda_1 * t exceeds about 30 (smallest resolvable singular value is
~ eps * sigma_max).

Both report a convergence residual from halving the horizon.  Since the
leading finite-horizon error decays like 1/t, the two-horizon data also
yields a Richardson-refined estimate 2 L(t*) - L(t*/2), which is what the
``exponents`` field of the pipeline's spectrum carries (raw values are kept
alongside).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import PropagationResult, QuadraticHamiltonian, polar_decompose, step_loop
from .errors import NotConverged, SingularM
from .phase_space import _maxabs

# steps between re-orthonormalizations of the QR frame
REORTH_EVERY = 5


@dataclass(frozen=True)
class LyapunovData:
    """Sorted exponents with orthonormal basis rows and convergence data.

    ``basis[i]`` is the dual-space direction associated with
    ``exponents[i]``; exponents are sorted descending.  ``exponents`` are
    Richardson-refined unless ``spectrum_from_propagation`` was asked for
    raw values; ``raw_exponents`` always hold the plain horizon-t* estimate.
    """

    exponents: np.ndarray
    basis: np.ndarray
    horizon: float
    residual: float
    raw_exponents: np.ndarray
    method: str = "svd"


def default_residual_tol(top_exponent: float) -> float:
    """Residual threshold 1e-3 (1 + lambda_1), scaling with the spectrum."""
    return 1e-3 * (1.0 + max(float(top_exponent), 0.0))


def limiting_matrix_estimate(m, t: float) -> np.ndarray:
    """ln(M M^T) / (2t) computed from the SVD of M (no explicit squaring)."""
    m = np.asarray(m, dtype=float)
    if t <= 0:
        raise ValueError("t must be positive")
    if not np.all(np.isfinite(m)):
        raise SingularM("matrix has non-finite entries")
    u, sv, _ = np.linalg.svd(m)
    if sv[-1] <= 0:
        raise SingularM("matrix is numerically singular")
    return (u * (np.log(sv) / t)) @ u.T


def _check_residual(residual, exponents, residual_tol):
    tol = default_residual_tol(exponents[0]) if residual_tol is None else residual_tol
    if residual > tol:
        raise NotConverged(
            f"Lyapunov residual {residual:.3g} exceeds tolerance {tol:.3g}; raise t_star")


def _half_horizon(series: PropagationResult):
    """Index and time of the stored sample nearest t*/2; NotConverged if that time is 0."""
    idx = series.index_at(0.5 * series.t_final)
    t_half = float(series.times[idx])
    if t_half <= 0:
        raise NotConverged("trajectory too short to halve the horizon")
    return idx, t_half


def spectrum_from_propagation(series: PropagationResult, residual_tol: Optional[float] = None,
                              refine: bool = True) -> LyapunovData:
    """Exponents and basis from a stored trajectory (SVD estimator).

    The residual compares the limiting-matrix estimates at the final
    horizon and at the stored sample nearest half of it.
    """
    t_star = series.t_final
    l_full = limiting_matrix_estimate(series.final_matrix, t_star)
    idx_half, t_half = _half_horizon(series)
    l_half = limiting_matrix_estimate(series.matrices[idx_half], t_half)
    residual = _maxabs(l_full - l_half)

    w, vecs = np.linalg.eigh(l_full)
    order = np.argsort(w)[::-1]
    raw = w[order]
    basis = vecs[:, order].T
    exps = raw
    if refine:
        w_half = np.sort(np.linalg.eigvalsh(l_half))[::-1]
        exps = 2.0 * raw - w_half
    _check_residual(residual, exps, residual_tol)
    return LyapunovData(exponents=exps, basis=basis, horizon=t_star,
                        residual=residual, raw_exponents=raw, method="svd")


def qr_spectrum(ham: QuadraticHamiltonian, t_star: float, dt: float,
                residual_tol: Optional[float] = None) -> LyapunovData:
    """Long-horizon spectrum by re-orthonormalized push-forward.

    Propagates an orthonormal frame over the same steps as
    :func:`~entgrowth.dynamics.propagate` (the shared
    :func:`~entgrowth.dynamics.step_loop`), QR-factorizing every
    ``REORTH_EVERY`` steps and accumulating the log diagonal of R.  Never
    forms M(t), so there is no overflow and no precision floor on
    contracting directions.  The exponents are Richardson-refined.
    """
    if dt <= 0 or t_star <= 0:
        raise ValueError("need dt > 0 and t_star > 0")
    n_steps = max(2, int(round(t_star / dt)))
    dim = 2 * ham.n_modes

    q = np.eye(dim)
    logs = np.zeros(dim)
    logs_half = None
    t_half = None
    half_step = n_steps // 2
    acc = np.eye(dim)
    pending = 0
    for k, t, factors in step_loop(ham, t_star, n_steps):
        for step in factors:
            acc = step @ acc
        pending += 1
        if pending == REORTH_EVERY or k == n_steps or k == half_step:
            q, r = np.linalg.qr(acc @ q)
            diag = np.diag(r)
            q = q * np.sign(diag)
            logs += np.log(np.abs(diag))
            acc = np.eye(dim)
            pending = 0
        if k == half_step:
            logs_half = logs.copy()
            t_half = t

    raw = logs / t_star
    lam_half = logs_half / t_half
    # the frame converges to descending order from a generic start, but
    # finite horizons can leave near-degenerate pairs swapped
    order = np.argsort(raw)[::-1]
    raw = raw[order]
    lam_half = np.sort(lam_half)[::-1]
    basis = q[:, order].T
    residual = float(np.max(np.abs(raw - lam_half)))
    exps = 2.0 * raw - lam_half
    _check_residual(residual, exps, residual_tol)
    return LyapunovData(exponents=exps, basis=basis, horizon=t_star,
                        residual=residual, raw_exponents=raw, method="qr")


def lyapunov_spectrum(ham: QuadraticHamiltonian, t_star: float, dt: float,
                      residual_tol: Optional[float] = None) -> LyapunovData:
    """Estimate the Lyapunov spectrum of the flow of ``ham`` at horizon ``t_star``.

    The pipeline's Lyapunov stage: the QR push-forward of
    :func:`qr_spectrum` over steps of about ``dt``, with its residual from
    halving the horizon checked against ``residual_tol``.
    """
    return qr_spectrum(ham, t_star, dt, residual_tol=residual_tol)


def vector_exponent(series: PropagationResult, ell, residual_tol: Optional[float] = None):
    """Finite-horizon exponent ln |M(t)^T ell| / t of one dual vector.

    Returns ``(value, residual)`` where the residual is the change under
    halving the horizon.  Raises NotConverged when the residual exceeds
    the tolerance (default rule scales with the estimate).
    """
    ell = np.asarray(ell, dtype=float)
    norm0 = np.linalg.norm(ell)
    if norm0 == 0:
        raise ValueError("direction vector must be nonzero")
    t_star = series.t_final
    val = float(np.log(np.linalg.norm(series.final_matrix.T @ ell) / norm0) / t_star)
    idx_half, t_half = _half_horizon(series)
    val_half = float(np.log(np.linalg.norm(series.matrices[idx_half].T @ ell) / norm0) / t_half)
    residual = abs(val - val_half)
    tol = default_residual_tol(val) if residual_tol is None else residual_tol
    if residual > tol:
        raise NotConverged(f"vector-exponent residual {residual:.3g} exceeds {tol:.3g}")
    return val, residual


@dataclass(frozen=True)
class RegularityReport:
    is_regular: bool
    max_violation: float
    tol: float


def regularity_check(data: LyapunovData, tol: Optional[float] = None) -> RegularityReport:
    """Check that exponents come in conjugate pairs lambda_k = -lambda_{2N+1-k}."""
    if tol is None:
        tol = max(1e-8, 2.0 * data.residual)
    lam = data.exponents
    viol = float(np.max(np.abs(lam + lam[::-1])))
    return RegularityReport(is_regular=viol <= tol, max_violation=viol, tol=tol)


@dataclass(frozen=True)
class PolarExponentComparison:
    """Spectra of M(t), of its positive polar factor T(t), and of sqrt(T(t))."""

    exponents_m: np.ndarray
    exponents_t: np.ndarray
    exponents_sqrt_t: np.ndarray
    max_dev_t: float
    max_dev_sqrt: float
    residual: float
    tol: float


def polar_factor_exponents(series: PropagationResult, residual_tol: Optional[float] = None,
                           comparison_tol: Optional[float] = None) -> PolarExponentComparison:
    """Check lambda(T) = lambda(M) and lambda(sqrt T) = lambda(M)/2.

    The three spectra are estimated through different numerical paths (SVD
    of M, eigensolve of the polar factor, eigensolve of its square root)
    at the final horizon and compared within the convergence residual.
    """
    t_star = series.t_final
    m = series.final_matrix
    data = spectrum_from_propagation(series, residual_tol=residual_tol, refine=False)
    lam_m = data.raw_exponents

    t_part = polar_decompose(m).t_part
    w_t = np.sort(np.linalg.eigvalsh(t_part))[::-1]
    if w_t[-1] <= 0:
        raise SingularM("polar factor lost positivity")
    lam_t = np.log(w_t) / t_star
    lam_sqrt = 0.5 * np.log(w_t) / t_star   # eigenvalues of sqrt(T) are sqrt(eigs of T)

    dev_t = float(np.max(np.abs(lam_t - lam_m)))
    dev_sqrt = float(np.max(np.abs(lam_sqrt - lam_m / 2.0)))
    tol = comparison_tol if comparison_tol is not None else max(2.0 * data.residual, 1e-8)
    if dev_t > tol or dev_sqrt > tol:
        raise NotConverged(
            f"polar-factor spectra disagree beyond tolerance: "
            f"dev(T)={dev_t:.3g}, dev(sqrt T)={dev_sqrt:.3g}, tol={tol:.3g}")
    return PolarExponentComparison(
        exponents_m=lam_m, exponents_t=lam_t, exponents_sqrt_t=lam_sqrt,
        max_dev_t=dev_t, max_dev_sqrt=dev_sqrt, residual=data.residual, tol=tol)
