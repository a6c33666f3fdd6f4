"""Lyapunov spectra, bases, and regularity diagnostics.

:func:`lyapunov_spectrum` is the pipeline's Lyapunov stage.  A constant
flow has an exact spectrum in its generator K, and a periodic flow in its
one-period map M(tau).  When their eigenvectors are well conditioned,
:func:`floquet_spectrum` reads the exponents Re lambda of the eigenvalues
lambda of K, or ln|mu| / tau of the multipliers mu of M(tau) (Bianchi,
Hackl, Yokomizo and Rigol, JHEP 2018), with no horizon and no
finite-horizon bias.  Aperiodic callables and defective generators or maps
get the estimate of :func:`qr_spectrum`, a re-orthonormalized push-forward
that accumulates ln diag(R), once per block of the flow as long as the
data's growth bound allows (:func:`qr_block_steps`).
:func:`spectrum_from_propagation` takes one SVD of a stored M(t*) instead:
it is the tests' reference, and loses contracting directions to roundoff
once lambda_1 * t exceeds about 30.

Both estimators report a residual from halving the horizon.  Since the
leading finite-horizon error decays like 1/t, ``exponents`` carry the
Richardson-refined 2 L(t*) - L(t*/2), and ``raw_exponents`` the plain values.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    CHUNK_STEPS,
    PropagationResult,
    QuadraticHamiltonian,
    generator,
    propagate,
    step_count,
    step_loop,
)
from .errors import NotConverged, SingularM
from .phase_space import _maxabs, _mT, standard_omega

# bound on the log growth of the QR frame between re-orthonormalizations:
# a block's condition number stays under e^(2 QR_BLOCK_GROWTH)
QR_BLOCK_GROWTH = 2.0
# largest condition number of the eigenvector matrix of K or M(tau) that the
# exact Floquet spectrum accepts.  Roundoff splits a 2 x 2 Jordan block into
# eigenvectors about sqrt(eps) apart, a condition number near 7e7; the drive
# workload's maps read 2.0-2.4
FLOQUET_COND_MAX = 1e6


@dataclass(frozen=True)
class LyapunovData:
    """Sorted exponents with orthonormal basis rows and convergence data.

    ``basis[i]`` is the dual-space direction associated with
    ``exponents[i]``; exponents are sorted descending.  For the estimators
    ``exponents`` are Richardson-refined and ``raw_exponents`` hold the plain
    horizon-t* estimate.  For ``method == "floquet"`` both are the exact
    exponents and ``residual`` is 0: there is no horizon to halve.
    ``horizon`` is then a periodic flow's tau, and 0 for a constant flow,
    whose exponents are read off its generator.
    """

    exponents: np.ndarray
    basis: np.ndarray
    horizon: float
    residual: float
    raw_exponents: np.ndarray
    method: str = "svd"


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


def _check_residual(residual, residual_tol, where):
    if residual > residual_tol:
        raise NotConverged(
            f"{where}: Lyapunov residual {residual:.3g} exceeds tolerance {residual_tol:.3g}; "
            f"raise t_star")


def _half_horizon(series: PropagationResult):
    """Index and time of the stored sample nearest t*/2; NotConverged if that time is 0."""
    idx = series.index_at(0.5 * series.t_final)
    t_half = float(series.times[idx])
    if t_half <= 0:
        raise NotConverged("trajectory too short to halve the horizon")
    return idx, t_half


def spectrum_from_propagation(series: PropagationResult, residual_tol: float) -> LyapunovData:
    """Exponents and basis from a stored trajectory (SVD estimator).

    The residual compares the limiting-matrix estimates at the final
    horizon and at the stored sample nearest half of it; NotConverged when
    it exceeds ``residual_tol``.
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
    w_half = np.sort(np.linalg.eigvalsh(l_half))[::-1]
    exps = 2.0 * raw - w_half
    _check_residual(residual, residual_tol, f"SVD spectrum, horizon t*={t_star:.6g}")
    return LyapunovData(exponents=exps, basis=basis, horizon=t_star,
                        residual=residual, raw_exponents=raw, method="svd")


def _log_norms(n_modes: int, forms) -> np.ndarray:
    """Log-norm mu(K), the largest eigenvalue of (K + K^T)/2, of K = Omega h for each form h.

    ||exp(s K)|| <= exp(s mu(K)), so mu bounds the flow's growth rate.
    """
    k = standard_omega(n_modes) @ np.asarray(forms, dtype=float)
    return np.linalg.eigvalsh(0.5 * (k + _mT(k)))[:, -1]


def qr_block_steps(ham: QuadraticHamiltonian, dt: float, n_steps: int) -> int:
    """Steps per QR block: the flow's growth bound over a block stays at e^QR_BLOCK_GROWTH.

    The bound is exp(integral of the log-norm of K), taken over the pieces
    of piecewise-constant data or the step midpoints of a callable.  A
    periodic piece flow whose bound over one period allows it takes whole
    periods, so each block is pushed by the cached period map.  A
    skew-symmetric K (an orthogonal flow) never needs a block boundary.
    """
    if ham.pieces:
        rates = _log_norms(ham.n_modes, [form for _, form in ham.pieces])
    else:
        chunks = (range(lo, min(lo + CHUNK_STEPS, n_steps))
                  for lo in range(0, n_steps, CHUNK_STEPS))
        rates = [np.max(_log_norms(ham.n_modes, [ham.h(j * dt + 0.5 * dt) for j in chunk]))
                 for chunk in chunks]
    rate = float(np.max(rates))
    if rate <= 0:
        return n_steps
    span = QR_BLOCK_GROWTH / rate
    if ham.pieces and ham.period is not None:
        per_period = sum(duration * r for (duration, _), r in zip(ham.pieces, rates))
        if per_period <= QR_BLOCK_GROWTH:
            span = ham.period * math.floor(QR_BLOCK_GROWTH / per_period)
    return max(1, min(n_steps, round(span / dt)))


def qr_spectrum(ham: QuadraticHamiltonian, t_star: float, dt: float,
                residual_tol: float) -> LyapunovData:
    """Long-horizon spectrum by re-orthonormalized push-forward.

    Pushes an orthonormal frame along the flow on the step grid of
    :func:`~entgrowth.dynamics.propagate` (the shared
    :func:`~entgrowth.dynamics.step_loop`), QR-factorizing at the end of
    every block of :func:`qr_block_steps`, at the half horizon and at t*,
    and accumulating the log diagonal of R.  Never forms M(t), so there is
    no overflow and no precision floor on contracting directions.  The
    exponents are Richardson-refined; NotConverged when the residual from
    halving the horizon exceeds ``residual_tol``.
    """
    if dt <= 0 or t_star <= 0:
        raise ValueError("need dt > 0 and t_star > 0")
    n_steps = max(2, int(round(t_star / dt)))
    half_step = n_steps // 2
    block = qr_block_steps(ham, t_star / n_steps, n_steps)
    # each half is blocked from its start, so equal halves reuse their factors
    events = [*range(block, half_step, block), *range(half_step, n_steps, block), n_steps]

    q = np.eye(2 * ham.n_modes)
    logs = np.zeros(len(q))
    for k, t, factors in step_loop(ham, t_star, n_steps, events):
        for step in factors:
            q = step @ q
        q, r = np.linalg.qr(q)
        diag = np.diag(r)
        q = q * np.sign(diag)
        logs += np.log(np.abs(diag))
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
    _check_residual(residual, residual_tol, f"lyapunov stage, horizon t*={t_star:.6g}")
    return LyapunovData(exponents=exps, basis=basis, horizon=t_star,
                        residual=residual, raw_exponents=raw, method="qr")


def floquet_spectrum(flow, period=None):
    """Exact exponents and flag basis of a constant or periodic flow, or None.

    ``flow`` is a constant flow's generator K, with no ``period``, or a
    periodic flow's map M(tau), with its period tau.  The exponents are the
    sorted real parts Re lambda of the eigenvalues of K, or ln|mu| / tau of
    the multipliers mu of M(tau).  The basis is the orthonormal flag of the
    invariant subspaces in descending exponent: the eigenvectors, each
    conjugate pair replaced by its real and imaginary parts, orthonormalized
    by one QR.  None when the eigenvector matrix has a condition number
    above ``FLOQUET_COND_MAX``: a defective or nearly defective K or map,
    whose eigenvectors do not span its invariant subspaces.
    """
    eigs, vecs = np.linalg.eig(flow)
    if np.linalg.cond(vecs) > FLOQUET_COND_MAX:
        return None
    # eig gives a conjugate pair as adjacent columns: the upper member's real
    # and imaginary parts span the pair's real invariant plane
    real, upper = eigs.imag == 0, eigs.imag > 0
    cols = np.concatenate([vecs[:, real].real, vecs[:, upper].real, vecs[:, upper].imag], axis=1)
    eigs = np.concatenate([eigs[real], eigs[upper], eigs[upper]])
    rates = eigs.real if period is None else np.log(np.abs(eigs)) / period
    order = np.argsort(-rates, kind="stable")
    exps = rates[order]
    basis = np.linalg.qr(cols[:, order])[0].T
    return LyapunovData(exponents=exps, basis=basis, horizon=period or 0.0, residual=0.0,
                        raw_exponents=exps, method="floquet")


def lyapunov_spectrum(ham: QuadraticHamiltonian, t_star: float, dt: float,
                      residual_tol: float, period_map=None) -> LyapunovData:
    """The Lyapunov spectrum of the flow of ``ham``: exact from K or M(tau), else estimated.

    The pipeline's Lyapunov stage.  A constant flow gets the exact
    :func:`floquet_spectrum` of its generator K.  A periodic flow gets that
    of ``period_map``, its one-period map M(tau), propagated at ``dt`` when
    not given; for a periodic callable ``h`` that map carries the midpoint
    rule's O(dt^2) error.  An aperiodic callable, and a flow whose K or
    M(tau) is (nearly) defective, gets the QR push-forward of
    :func:`qr_spectrum` to ``t_star`` on a step grid of about ``dt``, with
    its residual from halving the horizon checked against ``residual_tol``;
    ``t_star`` and ``residual_tol`` are read on that path alone.  A failure
    names the stage and the horizon.
    """
    tau = ham.period
    if tau is None:
        exact = floquet_spectrum(generator(ham, 0.0)) if ham.pieces else None
    else:
        if period_map is None:
            period_map = propagate(ham, tau, dt, store_every=step_count(tau, dt)).final_matrix
        exact = floquet_spectrum(period_map, tau)
    return exact or qr_spectrum(ham, t_star, dt, residual_tol=residual_tol)


@dataclass(frozen=True)
class RegularityReport:
    is_regular: bool
    max_violation: float
    tol: float


def regularity_check(data: LyapunovData, tol: float) -> RegularityReport:
    """Check that exponents pair as lambda_k = -lambda_{2N+1-k} to within ``tol`` (max-abs)."""
    lam = data.exponents
    viol = float(np.max(np.abs(lam + lam[::-1])))
    return RegularityReport(is_regular=viol <= tol, max_violation=viol, tol=tol)
