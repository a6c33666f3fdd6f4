"""Generalized-subadditivity minimization and entropy bounds.

The central object is the minimization over positive definite matrices G of

    I_as(A;B)(G) + I_as(A;B)(M G M^T),

whose value lower-bounds the sum of mutual informations of any state and
its image under the symplectic transformation M.  It is geodesically convex
on the positive definite cone under the affine-invariant metric, so every
stationary point is a global minimum.  The minimizer is a damped Newton
descent in whitened coordinates G = R e^X R^T, in numpy alone, from G = I
or from a given start such as the minimizer at an earlier time of the
same flow, with a restart from G = I should that descent not converge;
one stacked QR factorization of R and M R gives its value, gradient and
Hessian, so neither G nor M G M^T is formed.  The gradient
there, (1/2) sum_i P_i - I, is R^T (G^{-1} - sum_i p_i F_i^T (F_i G
F_i^T)^{-1} F_i) R, the stationarity equation of the whole problem, so the
minimizer certifies its own last iterate.  When M is
positive definite the stationary point G = M^{-1} (value 2 I_as(M)) is a
test oracle.  The infimum may sit at the boundary of the cone, where no
minimizer exists; the result is then flagged ``diverged``, not an error.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import DEFECT_FACTOR
from .entropy import LN_E_OVER_2, _half_logdet_factor
from .errors import DimensionMismatch, NotDarboux, SingularM
from .phase_space import (
    ModeCount,
    _earliest_failure,
    _fail_first,
    _float_or_stack,
    _maxabs,
    _maxabs_each,
    _mT,
    row_factor,
    standard_omega,
)

EPS = np.finfo(float).eps
ROUNDOFF = 64 * EPS      # the value's roundoff per unit of summed |log-determinant| terms
STEP_CAP = 2.0           # largest |eigenvalue| of a Newton step before the line search
ARMIJO, MAX_HALVINGS = 1e-4, 40
DIVERGENCE_STEP = 0.1    # a longer final Newton step reads as a boundary infimum
BUDGET = 2000            # Newton iterations before a descent stops unconverged


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one Newton descent on the right-hand side, read at its last iterate G = R R^T."""

    value: float           # the right-hand side at G
    residual: float        # max |(1/2) sum_i P_i - I|, the whitened stationarity residual at G
    step: float            # largest |eigenvalue| of the Newton step X at G
    iterations: int
    nfev: int              # objective evaluations, line-search trials included
    converged: bool        # the stop rule was met at G
    stop_reason: str       # why the descent stopped
    factor: np.ndarray     # R

    @property
    def diverged(self) -> bool:
        """G is still a Newton step longer than DIVERGENCE_STEP from its quadratic model's minimum."""
        return self.step > DIVERGENCE_STEP

    @property
    def stop_summary(self) -> str:
        """Why the descent stopped, worded for a warning."""
        if self.iterations >= BUDGET:
            return f"exhausted its budget of {BUDGET} iterations"
        return f"stopped before converging: {self.stop_reason}"


def _rhs_terms(m, k, r):
    """The right-hand-side objective at G = R R^T, less its constant -ln|det M|.

    Over the selectors F_i (rows of A and of B, of G and of M G M^T) it is
    sum_i h(F_i R) - 2 ln|det R|, with h(W) = (1/2) ln det(W W^T) read off
    the diagonal of the QR factor of W^T.  One stacked QR of R^T, (M R)^T
    and the two with their B columns moved first serves every block: the
    leading k columns of the first two are the A rows, the leading d - k of
    the last two the B rows.  ln|det R| comes from ``slogdet``: read off
    the same QR diagonal instead, it leaves the descent's line search
    short of the stop rule near the conditioning wall (``inverted_pair``
    from t = 13.68 on).  Returns the value, its roundoff and the (4, d, d)
    stack of projectors onto the row spaces of the F_i R, A rows of R and
    M R first.
    """
    d = r.shape[-1]
    pair = np.stack((r.T, (m @ r).T))
    b_first = np.concatenate((pair[..., k:], pair[..., :k]), axis=-1)
    q, u = np.linalg.qr(np.concatenate((pair, b_first)))
    logs = np.log(np.abs(np.diagonal(u, axis1=1, axis2=2)))
    blocks = logs[:2, :k], logs[2:, :d - k]
    qa, qb = q[:2, :, :k], q[2:, :, :d - k]
    ln_det_r = np.linalg.slogdet(r)[1]
    magnitude = sum(np.abs(block).sum() for block in blocks) + 2.0 * abs(ln_det_r)
    value = sum(block.sum() for block in blocks) - 2.0 * ln_det_r
    return float(value), ROUNDOFF * float(magnitude), np.concatenate((qa @ _mT(qa), qb @ _mT(qb)))


def _newton_step(proj):
    """Minimum-norm Newton step X in the whitened coordinates G = R e^X R^T,
    its decrement, and the largest |entry| of the gradient.

    With the projectors P_i of ``_rhs_terms`` and Q_i = I - P_i, the gradient
    at X = 0 is (1/2) sum_i P_i - I and the Hessian maps X to (1/4) sum_i
    (P_i X Q_i + Q_i X P_i).  It is positive semidefinite with X ∝ I in its
    null space (the objective is scale invariant), so X is its pseudo-inverse
    applied to minus the gradient.  The decrement is -<gradient, X>.
    """
    dim = proj.shape[-1]
    eye = np.eye(dim)
    total = proj.sum(axis=0)
    grad = 0.5 * total - eye
    # row-major vec: P X Q -> kron(P, Q), and sum_i (P_i (x) Q_i + Q_i (x) P_i)
    # = S (x) I + I (x) S - 2 sum_i P_i (x) P_i with S = sum_i P_i
    hess = -0.5 * np.einsum("nij,nkl->ikjl", proj, proj)
    hess += 0.25 * (total[:, None, :, None] * eye[None, :, None, :]
                    + eye[:, None, :, None] * total[None, :, None, :])
    w, v = np.linalg.eigh(hess.reshape(dim * dim, dim * dim))
    keep = w > dim * dim * EPS * w[-1]
    coef = (v[:, keep].T @ grad.ravel()) / w[keep]
    step = -(v[:, keep] @ coef).reshape(dim, dim)
    return 0.5 * (step + step.T), float(coef @ (w[keep] * coef)), _maxabs(grad)


def minimize(m, k, r) -> BoundReport:
    """Damped Newton descent on the right-hand side of ``gss_rhs_minimize``, from G = R R^T.

    ``k`` is the number of rows of A.  Each iteration shrinks the Newton
    step X to largest |eigenvalue| STEP_CAP at most and backtracks (Armijo,
    halving) along R e^{aX} R^T = (R V e^{a Lambda / 2})(...)^T, X = V Lambda V^T.
    It stops converged when half the Newton decrement (the decrease the
    quadratic model predicts) falls below the value's roundoff; unconverged
    after BUDGET iterations or when no trial step decreases the value.  The
    last iterate is reported unconverged, too, when its formed G fails a
    Cholesky factorization: the descent then ran into the cone boundary
    further than double precision resolves.
    """
    ln_det_m = np.linalg.slogdet(m)[1]
    value, noise, proj = _rhs_terms(m, k, r)
    nfev, iterations = 1, 0
    while True:
        step, decrement, residual = _newton_step(proj)
        w, vecs = np.linalg.eigh(step)
        size = max(-w[0], w[-1])
        if 0.5 * decrement <= noise:
            converged, reason = True, "Newton decrement below the value's roundoff"
            break
        converged = False
        if iterations >= BUDGET:
            reason = f"iteration budget of {BUDGET} exhausted"
            break
        shrink = min(1.0, STEP_CAP / size)
        rv, w, alpha = r @ vecs, shrink * w, 1.0
        for _ in range(MAX_HALVINGS):
            trial = rv * np.exp(0.5 * alpha * w)
            trial_value, trial_noise, trial_proj = _rhs_terms(m, k, trial)
            nfev += 1
            if trial_value <= value - ARMIJO * alpha * shrink * decrement:
                break
            alpha *= 0.5
        else:
            reason = "line search found no decrease"
            break
        r, value, noise, proj = trial, trial_value, trial_noise, trial_proj
        iterations += 1
    try:
        np.linalg.cholesky(r @ r.T)
    except np.linalg.LinAlgError:
        converged, reason = False, "G is numerically singular at the last iterate"
    value = float(value - ln_det_m)
    if not np.isfinite(value):
        converged, reason = False, f"the objective is {value} (ln|det M| = {ln_det_m})"
    return BoundReport(value=value, residual=residual, step=float(size), iterations=iterations,
                       nfev=nfev, converged=converged, stop_reason=reason, factor=r)


def gss_rhs_minimize(m, split: ModeCount, start=None) -> BoundReport:
    """Minimize I_as(A;B)(G) + I_as(A;B)(M G M^T) over positive definite G.

    The objective is geodesically convex (Sra and Hosseini, SIAM J. Optim.
    25, 713, 2015), so one Newton descent (``minimize``) from any positive
    definite G finds the global minimum.  It starts from G = R R^T with R
    the factor ``start``, or from G = I when ``start`` is None; a descent
    from ``start`` that ends unconverged is run again from G = I, and that
    run is reported.  A caller minimizing along a flow passes the previous
    time's ``factor``: toward a cone-boundary infimum that start is already
    far along the geodesic, and a few steps finish the descent.
    ``converged`` means the stop rule was met within BUDGET iterations at a
    G that is numerically positive definite.  ``diverged`` means the last
    iterate is still a Newton step longer than DIVERGENCE_STEP (largest
    |eigenvalue| of X, an affine-invariant length) from the minimum of its
    quadratic model.  Toward an attained minimum Newton converges
    quadratically and the last step is tiny; toward a cone-boundary infimum
    the objective decays exponentially along a geodesic and every step has
    the same length (1/2 on ``metastable``).
    """
    m = np.asarray(m, dtype=float)
    dim = 2 * split.n_total
    if m.shape != (dim, dim):
        raise DimensionMismatch(f"transformation shape {m.shape} vs split {split}")
    k = 2 * split.n_a
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (dim, dim):
            raise DimensionMismatch(f"start factor shape {start.shape} vs split {split}")
        warm = minimize(m, k, start)
        if warm.converged:
            return warm
    return minimize(m, k, np.eye(dim))


def op_norm(g) -> float:
    """Operator norm (largest eigenvalue) of a symmetric PD matrix."""
    return float(np.linalg.eigvalsh(np.asarray(g, dtype=float))[-1])


@_earliest_failure
def squashed_bounds(m, g0, split: ModeCount):
    """Two-sided bounds on the squashed entanglement after the symplectic transformation M.

    Returns ``(lower, upper)``, with T the polar factor of M = T u (so that
    T^2 = M M^T):

        upper = 0.5 S_as(A)(T^2) + 0.5 S_as(B)(T^2) + (N/2) ln |G0|
        lower = S_as(A)(T) + S_as(B)(T) - 2N ln(e/2) - N ln |G0|

    For pure states the squashed entanglement equals the entanglement
    entropy, so the entropy must thread between the two.  T and T^2 are
    pure covariance matrices, so their A and B blocks share one determinant,
    read from the smaller block X.  Neither is formed: one SVD M = U S V^T
    gives (1/2) ln det T_X = sum ln diag ``row_factor(U_X S^(1/2))`` and
    (1/2) ln det (T^2)_X = sum ln diag ``row_factor(M_X)``.  A positive
    definite symplectic M is its own polar factor.  The checks, in order:
    finite entries, M Omega M^T = Omega to ``DEFECT_FACTOR`` (1 + max|M|^2), singular
    values in range, lower <= upper + 1e-9.  For a stack both bounds are
    arrays; |G0| is computed once.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (2 * split.n_total,) * 2:
        raise DimensionMismatch(f"transformation shape {m.shape} vs split {split}")
    _fail_first(~np.isfinite(m).all(axis=(-2, -1)), SingularM, "matrix has non-finite entries")
    omega = standard_omega(split.n_total)
    _fail_first(_maxabs_each(m @ omega @ _mT(m) - omega)
                > DEFECT_FACTOR * (1.0 + _maxabs_each(m) ** 2),
                NotDarboux, "matrix is not symplectic")
    u, sv, _ = np.linalg.svd(m)
    _fail_first((sv[..., -1] <= 0) | ~np.isfinite(sv[..., 0]), SingularM,
                lambda i: f"singular values out of range: [{sv[i][-1]:.3g}, {sv[i][0]:.3g}]")
    k = 2 * split.n_a
    rows = slice(None, k) if split.n_a <= split.n_b else slice(k, None)
    half_t = _half_logdet_factor(row_factor((u * np.sqrt(sv)[..., None, :])[..., rows, :]))
    half_t_sq = _half_logdet_factor(row_factor(m[..., rows, :]))
    offset = split.n_total * (LN_E_OVER_2 + np.log(op_norm(g0)))
    upper = half_t_sq + 0.5 * offset
    lower = 2.0 * half_t - offset
    _fail_first(lower > upper + 1e-9, SingularM,
                lambda i: f"bound ordering violated: lower={lower[i]} > upper={upper[i]}")
    return _float_or_stack(lower), _float_or_stack(upper)
