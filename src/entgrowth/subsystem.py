"""Subsystem volume-growth exponents.

The exponent of a subsystem is the asymptotic growth rate of the log
volume of any spanning parallelepiped of its dual space pushed forward by
M(t)^T.  It is computed two independent ways:

* algebraically, by expressing a Darboux row set of the subsystem in the
  Lyapunov basis, greedily selecting the first 2 N_A independent columns
  of that coefficient matrix, and summing the matching exponents;
* volumetrically, as the fitted slope of the restricted log-determinant
  0.5 ln det(F M(t) G0 M(t)^T F^T) over the second half of the horizon,
  by ``fitting.fit_slope``, the rule of every slope in the package.

The volumetric slope is independent of the reference metric G0, which the
cross-method tests exercise directly.  For a Gaussian state with
covariance G0 the restricted log volume is the Renyi-2 entropy S_2(A),
which is what the pipeline fits with :func:`volumetric_slope_fit`.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import PropagationResult
from .entropy import logdet_pd
from .errors import DimensionMismatch, RankDeficient
from .fitting import SlopeFit, fit_slope, windowed
from .lyapunov import LyapunovData
from .phase_space import SubsystemSpec, _mT

SELECT_TOL = 1e-8   # relative residual below which a column counts as dependent


@dataclass(frozen=True)
class ExponentReport:
    """Algebraic subsystem exponent with selection diagnostics.

    ``indices`` maps selection rank to Lyapunov index (0-based, strictly
    increasing); ``generic_lambda`` sums the largest 2 N_A exponents.  The
    volumetric exponent is a ``fitting.SlopeFit``.
    """

    lambda_a: float
    indices: tuple
    generic_lambda: float
    generic_agrees: bool


def expansion_matrix(theta, lyap: LyapunovData) -> np.ndarray:
    """Coefficients of the subsystem rows in the (orthonormal) Lyapunov basis."""
    theta = np.asarray(theta, dtype=float)
    basis = lyap.basis
    if theta.shape[1] != basis.shape[1]:
        raise DimensionMismatch(f"rows have {theta.shape[1]} components, basis {basis.shape[1]}")
    return theta @ basis.T


def select_columns(f):
    """Greedy left-to-right selection of the first independent columns.

    Column j is selected iff its residual after orthogonal projection onto
    the span of previously selected columns exceeds ``SELECT_TOL`` times its
    norm.  Returns ``(indices, margins)`` with one margin per column; the
    scan stops once 2 N_A columns are selected.  Within a degenerate
    exponent cluster individual column identities are arbitrary but the
    selected count per cluster span is not.
    """
    f = np.asarray(f, dtype=float)
    need = f.shape[0]
    selected = []
    basis = np.zeros((need, 0))
    margins = np.zeros(f.shape[1])
    norms = np.linalg.norm(f, axis=0)
    # columns below the matrix scale are roundoff zeros; without this floor
    # the norm-relative margin of a zero column would be 1
    floor = SELECT_TOL * (np.max(norms) if np.max(norms) > 0 else 1.0)
    for j in range(f.shape[1]):
        col = f[:, j]
        if norms[j] <= floor:
            margins[j] = 0.0
            continue
        resid = col - basis @ (basis.T @ col)
        margins[j] = np.linalg.norm(resid) / norms[j]
        if len(selected) < need and margins[j] > SELECT_TOL:
            selected.append(j)
            basis = np.column_stack([basis, resid / np.linalg.norm(resid)])
    if len(selected) < need:
        raise RankDeficient(
            f"only {len(selected)} independent columns of {need} required at tol {SELECT_TOL:g}",
            margins=margins)
    return selected, margins


def subsystem_exponent_algebraic(sub: SubsystemSpec, lyap: LyapunovData) -> ExponentReport:
    """Exponent as the sum of selected Lyapunov exponents.

    Also evaluates the generic shortcut (sum of the largest 2 N_A
    exponents) and records whether the two agree.
    """
    f = expansion_matrix(sub.selector, lyap)
    indices, _ = select_columns(f)
    lam = lyap.exponents
    value = float(np.sum(lam[list(indices)]))
    generic = float(np.sum(lam[:len(indices)]))
    agrees = bool(abs(value - generic) <= max(1e-9, 2.0 * lyap.residual))
    return ExponentReport(lambda_a=value, indices=tuple(indices),
                          generic_lambda=generic, generic_agrees=agrees)


def restricted_log_volume(sub: SubsystemSpec, m, g0):
    """0.5 ln det of the subsystem block of M G0 M^T.

    Equals the log metric volume (w.r.t. G0) of the pushed-forward unit
    parallelepiped spanning the subsystem dual space.  A stack of
    transformations gives one value per transformation.
    """
    f = sub.selector @ np.asarray(m, dtype=float)
    block = f @ np.asarray(g0, dtype=float) @ _mT(f)
    return 0.5 * logdet_pd(0.5 * (block + _mT(block)))


def subsystem_exponent_volumetric(sub: SubsystemSpec, series: PropagationResult,
                                  g0=None) -> SlopeFit:
    """Exponent as the slope of the restricted log volume over [t*/2, t*]: the full fit record.

    The first half of the horizon of ``series`` is discarded as transient.
    For periodically driven systems sample at multiples of the drive
    period (choose ``store_every`` accordingly) so that bounded Floquet
    oscillations do not bias the fit.  The fit is
    :func:`volumetric_slope_fit`, the pipeline's: ``WindowTooShort`` when
    fewer than ``fitting.MIN_POINTS`` samples fall in the window.
    """
    if g0 is None:
        g0 = np.eye(series.matrices.shape[1])
    return volumetric_slope_fit(series.times, restricted_log_volume(sub, series.matrices, g0),
                                series.t_final)


def volumetric_slope_fit(times, log_volume, t_final) -> SlopeFit:
    """Raw slope fit of a log-volume series over [t_final/2, t_final] (full fit record)."""
    t_w, v_w = windowed(times, log_volume, 0.5 * t_final, t_final)
    return fit_slope(t_w, v_w)
