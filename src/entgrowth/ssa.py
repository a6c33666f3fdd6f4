"""Generalized-subadditivity objectives, stationarity checks, and entropy bounds.

The central object is the minimization over positive definite matrices G of

    I_as(A;B)(G) + I_as(A;B)(M G M^T),

whose value lower-bounds the sum of mutual informations of any state and
its image under the symplectic transformation M.  The minimizer is a
quasi-Newton descent on Cholesky factors G = C C^T (log-parametrized
diagonal) with informed restarts.  Value and exact gradient are evaluated
in factor space, from the diagonal of C and one LAPACK Householder QR per
row block of C or M C, so neither G nor M G M^T is ever formed.  When M is
positive definite the stationary point G = M^{-1} (value 2 I_as(M)) is a
restart and a test oracle.

The infimum may sit at the boundary of the cone (covariance entries
running to infinity).  The log-diagonal of C is confined to
+-ln(DIVERGENCE_NORM), which keeps C C^T numerically positive definite;
a best point with entries beyond DIVERGENCE_NORM is flagged, not an error.
"""

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .entropy import LN_E_OVER_2, asymptotic_entropy, logdet_pd
from .errors import DimensionMismatch, NotPositiveDefinite
from .phase_space import (
    ModeCount,
    SubsystemSpec,
    _earliest_failure,
    _fail_first,
    _float_or_stack,
    _maxabs,
    _maxabs_each,
    _mT,
    standard_omega,
)

DIVERGENCE_NORM = 1e6
# L-BFGS-B stopping tolerances: projected gradient and relative decrease
GTOL = 1e-9
FTOL = 1e-14


@dataclass(frozen=True)
class SubsystemFamily:
    """Weighted family of form-preserving selectors.

    Each member is a pair (F_i, p_i) with F_i preserving the symplectic
    form and the weights satisfying the scaling condition
    sum_i p_i N_i = N.
    """

    members: tuple
    n_total: int

    def __post_init__(self):
        scaled = 0.0
        checked = []
        for f, p in self.members:
            if p < 0:
                raise ValueError("weights must be nonnegative")
            sub = SubsystemSpec(f)   # checks the shape and the form
            if sub.n_total != self.n_total:
                raise DimensionMismatch(
                    f"selector shape {sub.selector.shape} for {self.n_total} modes")
            scaled += p * sub.n_a
            checked.append((sub.selector, float(p)))
        if abs(scaled - self.n_total) > 1e-12 * max(1.0, self.n_total):
            raise ValueError(f"scaling condition violated: sum p_i N_i = {scaled} != {self.n_total}")
        object.__setattr__(self, "members", tuple(checked))

    @classmethod
    def whole_system(cls, n_total: int) -> "SubsystemFamily":
        return cls(members=((np.eye(2 * n_total), 1.0),), n_total=n_total)

    @classmethod
    def transported_pair(cls, split: ModeCount, m) -> "SubsystemFamily":
        """The four-member family {A, B, A M, B M} at weight 1/2 each."""
        m = np.asarray(m, dtype=float)
        f_a = SubsystemSpec.first_modes(split.n_a, split.n_total).selector
        f_b = SubsystemSpec.modes(range(split.n_a, split.n_total), split.n_total).selector
        return cls(members=((f_a, 0.5), (f_b, 0.5), (f_a @ m, 0.5), (f_b @ m, 0.5)),
                   n_total=split.n_total)


def gss_objective(g, fam: SubsystemFamily) -> float:
    """S_as(G) - sum_i p_i S_as(F_i G F_i^T); the quantity the supremum runs over."""
    g = np.asarray(g, dtype=float)
    if g.shape != (2 * fam.n_total, 2 * fam.n_total):
        raise DimensionMismatch(f"matrix shape {g.shape} vs family on {fam.n_total} modes")
    total = asymptotic_entropy(g)
    for f, p in fam.members:
        if p == 0.0:
            continue
        block = f @ g @ f.T
        total -= p * asymptotic_entropy(0.5 * (block + block.T))
    return total


def stationarity_residual(g, fam: SubsystemFamily) -> float:
    """Relative residual of G^{-1} = sum_i p_i F_i^T (F_i G F_i^T)^{-1} F_i."""
    g = np.asarray(g, dtype=float)
    try:
        g_inv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("matrix is singular") from exc
    logdet_pd(g)  # raises NotPositiveDefinite for non-PD input
    acc = np.zeros_like(g)
    for f, p in fam.members:
        if p == 0.0:
            continue
        block = f @ g @ f.T
        acc += p * (f.T @ np.linalg.inv(0.5 * (block + block.T)) @ f)
    return _maxabs(g_inv - acc) / _maxabs(g_inv)


@dataclass
class BoundReport:
    """Outcome of one right-hand-side minimization."""

    value: float
    argmin_g: Optional[np.ndarray]
    residual: float
    iterations: int
    converged: bool
    diverged: bool
    stop_reason: str       # the optimizer's message for the returned start
    budget: int

    @property
    def stop_summary(self) -> str:
        """Why the returned start stopped, worded for a warning."""
        if self.iterations >= self.budget:
            return f"exhausted its budget of {self.budget} iterations"
        return f"stopped before converging: {self.stop_reason}"


def _cholesky_layout(dim):
    """Flat row-major positions of the lower triangle, and the positions of the diagonal among them."""
    rows, cols = np.tril_indices(dim)
    return rows * dim + cols, np.flatnonzero(rows == cols)


def _unpack_cholesky(x, dim, tril_flat, diag_pos):
    c = np.zeros(dim * dim)
    c[tril_flat] = x
    c[tril_flat[diag_pos]] = np.exp(x[diag_pos])
    return c.reshape(dim, dim)


@functools.cache
def _qr_routines():
    # imported on first use; scipy.optimize, which every minimization loads, loads them too
    from scipy.linalg.lapack import dgeqrf, dorgqr, dtrtrs
    return dgeqrf, dorgqr, dtrtrs


def _half_logdet_rows(r):
    """(1/2) ln det(R R^T) and its gradient (R R^T)^{-1} R = U^{-1} Q^T for one k x d row block R.

    R^T = Q U is LAPACK's Householder QR (dgeqrf, dorgqr), as in ``np.linalg.qr``,
    and dtrtrs the triangular solve, with no per-call wrapping; R R^T is never
    formed.  A nonzero ``info`` (a rank-deficient R) raises ``LinAlgError``.
    """
    geqrf, orgqr, trtrs = _qr_routines()
    qr, tau, _, info_qr = geqrf(r.T)
    q, _, info_q = orgqr(qr, tau)
    grad, info = trtrs(qr, q.T)   # U is the upper triangle of qr's leading k x k block
    if info_qr or info_q or info:
        raise np.linalg.LinAlgError(f"singular row block (LAPACK info {info_qr}, {info_q}, {info})")
    return np.log(np.abs(qr.diagonal())).sum(), grad


def _rhs_factor_objective(m, k):
    """The right-hand-side objective and its gradient in Cholesky coordinates.

    For G = C C^T the objective I_as(A;B)(G) + I_as(A;B)(M G M^T), which is
    -2 ``gss_objective(G, SubsystemFamily.transported_pair(split, M))``, reads

        sum_{i<k} x_ii - 2 sum_i x_ii - ln|det M| + h(C_B) + h((M C)_A) + h((M C)_B)

    with x_ii = ln C_ii and h(R) = (1/2) ln det(R R^T), since det G and
    det G_A are products of diagonal entries of C.  Returns ``fun(x) ->
    (value, gradient)`` on the packed lower triangle x, one ``_half_logdet_rows`` per h.
    """
    dim = m.shape[0]
    tril_flat, diag_pos = _cholesky_layout(dim)
    ln_det_m = np.linalg.slogdet(m)[1]
    weights = np.full(dim, -2.0)
    weights[:k] += 1.0

    def fun(x):
        c = _unpack_cholesky(x, dim, tril_flat, diag_pos)
        mc = m @ c
        h_b, d_b = _half_logdet_rows(c[k:])
        h_ma, d_ma = _half_logdet_rows(mc[:k])
        h_mb, d_mb = _half_logdet_rows(mc[k:])
        d_c = m.T @ np.concatenate((d_ma, d_mb))
        d_c[k:] += d_b
        grad = d_c.ravel()[tril_flat]
        grad[diag_pos] = grad[diag_pos] * c.diagonal() + weights   # dC_ii/dx_ii = C_ii
        return float(weights @ x[diag_pos]) + h_b + h_ma + h_mb - ln_det_m, grad

    return fun


def _is_pd_symmetric(m):
    if _maxabs(m - m.T) > 1e-10 * (1.0 + _maxabs(m)):
        return False
    try:
        np.linalg.cholesky(0.5 * (m + m.T))
        return True
    except np.linalg.LinAlgError:
        return False


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call.

    A run without a bound minimization never loads ``scipy.optimize``,
    which costs a fresh process more import time than the run itself.
    """
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def gss_rhs_minimize(m, split: ModeCount, budget: int = 2000,
                     informed_starts: bool = True) -> BoundReport:
    """Minimize I_as(A;B)(G) + I_as(A;B)(M G M^T) over positive definite G.

    G is parametrized as C C^T with lower-triangular C and log-parametrized
    diagonal so iterates stay inside the cone; descent is L-BFGS-B on the
    exact factor-space gradient (``_rhs_factor_objective``), with the
    log-diagonal bounded by +-ln(DIVERGENCE_NORM), restarted from the
    identity and (with ``informed_starts``) from M^{-1} when M is positive
    definite (the known stationary point) and from (M M^T)^{-1/2}.
    ``budget`` caps total iterations across restarts; a best point that did
    not converge is returned flagged, with the optimizer's stop reason.
    """
    m = np.asarray(m, dtype=float)
    dim = 2 * split.n_total
    if m.shape != (dim, dim):
        raise DimensionMismatch(f"transformation shape {m.shape} vs split {split}")
    fun = _rhs_factor_objective(m, 2 * split.n_a)
    tril_flat, diag_pos = _cholesky_layout(dim)
    log_cap = np.log(DIVERGENCE_NORM)
    bounds = [(None, None)] * len(tril_flat)
    for pos in diag_pos:
        bounds[pos] = (-log_cap, log_cap)

    starts = [np.eye(dim)]
    if informed_starts:
        if _is_pd_symmetric(m):
            starts.append(np.linalg.inv(m))
        w, vecs = np.linalg.eigh(m @ m.T)
        if w[0] > 0:
            starts.append((vecs / np.sqrt(w)) @ vecs.T)   # (M M^T)^{-1/2}

    best = None
    iterations = 0
    converged = False
    per_start = max(50, budget // len(starts))
    for g_start in starts:
        if iterations >= budget:
            break
        try:
            c0 = np.linalg.cholesky(0.5 * (g_start + g_start.T))
        except np.linalg.LinAlgError:
            continue
        x0 = c0.ravel()[tril_flat]
        x0[diag_pos] = np.log(np.diag(c0))
        res = minimize(fun, x0, method="L-BFGS-B", jac=True, bounds=bounds,
                       options=dict(maxiter=min(per_start, budget - iterations),
                                    ftol=FTOL, gtol=GTOL))
        iterations += int(res.nit)
        if best is None or res.fun < best.fun:
            best = res
            converged = bool(res.success)
    if best is None:
        raise NotPositiveDefinite("no feasible starting point")

    c = _unpack_cholesky(best.x, dim, tril_flat, diag_pos)
    g_best = c @ c.T
    g_best = 0.5 * (g_best + g_best.T)
    fam = SubsystemFamily.transported_pair(split, m)
    residual = stationarity_residual(g_best, fam)
    diverged = _maxabs(g_best) > DIVERGENCE_NORM
    return BoundReport(value=float(best.fun), argmin_g=g_best, residual=float(residual),
                       iterations=iterations, converged=converged, diverged=diverged,
                       stop_reason=str(best.message), budget=budget)


def _require_pd_symplectic(t_mat):
    # a polar factor at long times has eigenvalues below the eps*|T| floor
    # of dense storage, so positivity is checked to roundoff scale only;
    # the determinant blocks the bounds consume enforce their own PD-ness.
    # The checks raise at their own first failing matrix of a stack; a
    # caller wrapped in _earliest_failure orders them across samples
    t_mat = np.asarray(t_mat, dtype=float)
    size = _maxabs_each(t_mat)
    _fail_first(_maxabs_each(t_mat - _mT(t_mat)) > 1e-10 * (1.0 + size), NotPositiveDefinite,
                "expected a symmetric positive definite matrix")
    w = np.linalg.eigvalsh(t_mat)
    _fail_first((w[..., -1] <= 0) | (w[..., 0] < -1e-12 * (1.0 + w[..., -1])), NotPositiveDefinite,
                lambda i: f"matrix has negative eigenvalue {w[i][0]:.3g}")
    omega = standard_omega(t_mat.shape[-1] // 2)
    _fail_first(_maxabs_each(t_mat @ omega @ _mT(t_mat) - omega) > 1e-8 * (1.0 + size ** 2),
                ValueError, "matrix is not symplectic")
    return t_mat


def op_norm(g) -> float:
    """Operator norm (largest eigenvalue) of a symmetric PD matrix."""
    return float(np.linalg.eigvalsh(np.asarray(g, dtype=float))[-1])


def _sas_blocks(t_mat, split: ModeCount):
    """Block asymptotic entropies of a symplectic PD matrix.

    A symplectic positive definite matrix is a pure covariance matrix, so
    its two reduced blocks share the nontrivial symplectic spectrum and
    det(T_A) = det(T_B) exactly.  Evaluating both through the smaller block
    keeps the computation inside double range when the large block mixes
    directions spread over e^{+-lambda t}.
    """
    k = 2 * split.n_a
    if split.n_a <= split.n_b:
        logdet = logdet_pd(t_mat[..., :k, :k])
    else:
        logdet = logdet_pd(t_mat[..., k:, k:])
    s_a = 0.5 * logdet + split.n_a * LN_E_OVER_2
    s_b = 0.5 * logdet + split.n_b * LN_E_OVER_2
    return s_a, s_b


def pure_state_growth_lower_bound(t_mat, g0, split: ModeCount) -> float:
    """Lower bound on the subsystem entropy generated from any pure state.

    ``t_mat`` is the positive polar factor of the transformation and ``g0``
    the initial covariance matrix; the bound is

        S_as(A)(T) + S_as(B)(T) - N ln(e/2) - N_A ln(e |G0| / 2)

    with |G0| the operator norm.
    """
    t_mat = _require_pd_symplectic(t_mat)
    s_a, s_b = _sas_blocks(t_mat, split)
    norm = op_norm(g0)
    return (s_a + s_b - split.n_total * LN_E_OVER_2
            - split.n_a * (LN_E_OVER_2 + np.log(norm)))


@_earliest_failure
def squashed_bounds(t_mat, g0, split: ModeCount):
    """Two-sided bounds on the squashed entanglement after the transformation.

    Returns ``(lower, upper)``:

        upper = 0.5 S_as(A)(T^2) + 0.5 S_as(B)(T^2) + (N/2) ln |G0|
        lower = S_as(A)(T) + S_as(B)(T) - 2N ln(e/2) - N ln |G0|

    For pure states the squashed entanglement equals the entanglement
    entropy, so the oracle trajectory must thread between the two.  For a
    stack of polar factors both are arrays; |G0| is computed once.
    """
    t_mat = _require_pd_symplectic(t_mat)
    norm = op_norm(g0)
    n = split.n_total
    t_sq = t_mat @ t_mat
    sa2, sb2 = _sas_blocks(0.5 * (t_sq + _mT(t_sq)), split)
    upper = 0.5 * sa2 + 0.5 * sb2 + 0.5 * n * np.log(norm)
    sa, sb = _sas_blocks(t_mat, split)
    lower = sa + sb - 2.0 * n * LN_E_OVER_2 - n * np.log(norm)
    _fail_first(lower > upper + 1e-9, RuntimeError,
                lambda i: f"bound ordering violated: lower={lower[i]} > upper={upper[i]}")
    return _float_or_stack(lower), _float_or_stack(upper)
