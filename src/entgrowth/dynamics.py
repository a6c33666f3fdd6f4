"""Symplectic dynamics generated by time-dependent quadratic Hamiltonians.

The classical flow of H(t) = (1/2) h_ab(t) xi^a xi^b + f_a(t) xi^a is the
time-ordered exponential of K(t) = Omega h(t).  Propagation composes
per-step matrix exponentials sampled at the step midpoint (second-order
Magnus); each step is symplectic up to the accuracy of the exponential,
and the defect |M Omega M^T - Omega| is monitored rather than silently
projected away.

The linear term f(t) only drives the displacement (dz/dt = K z + Omega f)
and never enters covariances or entropies; it is propagated alongside when
present.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm, logm

from .errors import (
    DimensionMismatch,
    NoRealLogarithm,
    NonSymmetricH,
    SingularM,
    StepTooLarge,
)
from .phase_space import _maxabs, is_symmetric, standard_omega

DEFECT_FACTOR = 1e-8


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Quadratic form h(t) plus optional linear term f(t).

    ``h`` maps a time to the symmetric 2N x 2N coefficient matrix; ``f``
    (optional) maps a time to a length-2N vector.  ``time_dependent=False``
    marks h as constant, enabling the single-exponential fast path in
    propagation (numerically identical to the general path).
    """

    h: Callable[[float], np.ndarray]
    n_modes: int
    f: Optional[Callable[[float], np.ndarray]] = None
    period: Optional[float] = None
    time_dependent: bool = True

    def __post_init__(self):
        if self.period is not None and self.period <= 0:
            raise ValueError("period must be positive")

    @classmethod
    def constant(cls, h0, f0=None) -> "QuadraticHamiltonian":
        h0 = np.asarray(h0, dtype=float)
        if not is_symmetric(h0):
            raise NonSymmetricH("constant quadratic form is not symmetric")
        f_fun = None
        if f0 is not None:
            f0 = np.asarray(f0, dtype=float)
            if f0.shape != (h0.shape[0],):
                raise DimensionMismatch(f"linear term shape {f0.shape} vs form {h0.shape}")
            f_fun = lambda t, _f=f0: _f
        return cls(h=lambda t, _h=h0: _h, n_modes=h0.shape[0] // 2,
                   f=f_fun, time_dependent=False)


def generator(ham: QuadraticHamiltonian, t: float) -> np.ndarray:
    """Symplectic generator K(t) = Omega h(t); trace-free for symmetric h."""
    h = np.asarray(ham.h(t), dtype=float)
    if not is_symmetric(h):
        raise NonSymmetricH(f"h({t}) is not symmetric")
    return standard_omega(ham.n_modes) @ h


@dataclass
class PropagationResult:
    """Sampled symplectic trajectory M(t) with per-sample defect monitoring."""

    times: np.ndarray
    matrices: np.ndarray          # shape (n_samples, 2N, 2N)
    defects: np.ndarray
    displacements: Optional[np.ndarray] = None
    dt: float = 0.0
    ham: Optional[QuadraticHamiltonian] = field(default=None, repr=False)

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    @property
    def final_matrix(self) -> np.ndarray:
        return self.matrices[-1]

    def index_at(self, t: float) -> int:
        return int(np.argmin(np.abs(self.times - t)))


def _check_periodicity(ham, samples=(0.13, 0.41, 0.77)):
    tau = ham.period
    for frac in samples:
        t = frac * tau
        h0 = np.asarray(ham.h(t), dtype=float)
        h1 = np.asarray(ham.h(t + tau), dtype=float)
        if _maxabs(h1 - h0) > 1e-10 * (1.0 + _maxabs(h0)):
            raise ValueError(f"declared period {tau} but h({t + tau}) != h({t})")


def _resymplectify(m, omega):
    # one Newton step toward M^T Omega M = Omega; documented as modifying
    # the trajectory, off by default
    e = -omega @ (m.T @ omega @ m)   # Omega^{-1} (M^T Omega M)
    return m @ (np.eye(m.shape[0]) - 0.5 * (e - np.eye(m.shape[0])))


def propagate(ham: QuadraticHamiltonian, t_final: float, dt: float,
              store_every: int = 1, defect_factor: float = DEFECT_FACTOR,
              resymplectify: bool = False, z0=None) -> PropagationResult:
    """Time-ordered exponential by midpoint-sampled per-step exponentials.

    Parameters
    ----------
    ham : QuadraticHamiltonian
    t_final, dt : horizon and step; the step is rounded so that an integer
        number of steps lands exactly on ``t_final``.
    store_every : keep every k-th step (plus t=0 and the final step).
    defect_factor : ceiling on the symplectic defect is
        ``defect_factor * (1 + max|M|^2)``; exceeding it raises StepTooLarge.
    resymplectify : apply a first-order symplectic correction each step.
    z0 : optional initial displacement, propagated when ``ham.f`` is set.
    """
    if dt <= 0 or t_final <= 0:
        raise ValueError("need dt > 0 and t_final > 0")
    if ham.period is not None:
        _check_periodicity(ham)
    n_steps = max(1, int(round(t_final / dt)))
    dt_eff = t_final / n_steps
    dim = 2 * ham.n_modes
    omega = standard_omega(ham.n_modes)

    track_z = ham.f is not None or z0 is not None
    z = np.zeros(dim) if z0 is None else np.asarray(z0, dtype=float).copy()

    m = np.eye(dim)
    times = [0.0]
    mats = [m.copy()]
    defects = [0.0]
    zs = [z.copy()] if track_z else None

    step_const = None
    if not ham.time_dependent:
        step_const = expm(dt_eff * generator(ham, 0.5 * dt_eff))
    step_aug_const = None

    t = 0.0
    for k in range(1, n_steps + 1):
        t_mid = t + 0.5 * dt_eff
        if step_const is not None:
            step = step_const
        else:
            step = expm(dt_eff * generator(ham, t_mid))
        m = step @ m
        if resymplectify:
            m = _resymplectify(m, omega)
        if track_z:
            fvec = ham.f(t_mid) if ham.f is not None else np.zeros(dim)
            if not ham.time_dependent and ham.f is not None:
                if step_aug_const is None:
                    step_aug_const = _augmented_step(generator(ham, t_mid), omega @ fvec, dt_eff)
                aug = step_aug_const
            else:
                aug = _augmented_step(generator(ham, t_mid), omega @ np.asarray(fvec, float), dt_eff)
            z = aug[:dim, :dim] @ z + aug[:dim, dim]
        t = k * dt_eff

        defect = _maxabs(m @ omega @ m.T - omega)
        ceiling = defect_factor * (1.0 + _maxabs(m) ** 2)
        if defect > ceiling:
            raise StepTooLarge(
                f"symplectic defect {defect:.3g} exceeded ceiling {ceiling:.3g} at t={t:.6g}; "
                f"reduce dt (currently {dt_eff:.3g})")
        if k % store_every == 0 or k == n_steps:
            times.append(t)
            mats.append(m.copy())
            defects.append(defect)
            if track_z:
                zs.append(z.copy())

    return PropagationResult(
        times=np.array(times), matrices=np.array(mats), defects=np.array(defects),
        displacements=np.array(zs) if track_z else None, dt=dt_eff, ham=ham)


def _augmented_step(k_mat, drive, dt):
    dim = k_mat.shape[0]
    aug = np.zeros((dim + 1, dim + 1))
    aug[:dim, :dim] = k_mat
    aug[:dim, dim] = drive
    return expm(dt * aug)


def evolve_covariance(g0, m) -> np.ndarray:
    """Covariance update G -> M G M^T (symmetrized against roundoff)."""
    g0 = np.asarray(g0, dtype=float)
    m = np.asarray(m, dtype=float)
    if g0.shape != m.shape:
        raise DimensionMismatch(f"covariance {g0.shape} vs transformation {m.shape}")
    g = m @ g0 @ m.T
    return 0.5 * (g + g.T)


@dataclass(frozen=True)
class PolarPair:
    """Polar factors of a symplectic matrix: M = T u.

    ``t_part`` is symmetric positive definite and symplectic; ``u_part`` is
    orthogonal and symplectic.
    """

    t_part: np.ndarray
    u_part: np.ndarray


def polar_decompose(m, check_tol: float = 1e-9) -> PolarPair:
    """Polar decomposition via SVD: T = U diag(s) U^T, u = U V^T.

    Equivalent to T = sqrt(M M^T) but computed without forming M M^T, so
    small singular values are not lost to squaring.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise SingularM("matrix has non-finite entries")
    u_svd, sv, vt = np.linalg.svd(m)
    if sv[-1] <= 0 or not np.isfinite(sv[0]):
        raise SingularM(f"singular values out of range: [{sv[-1]:.3g}, {sv[0]:.3g}]")
    t_part = (u_svd * sv) @ u_svd.T
    t_part = 0.5 * (t_part + t_part.T)
    u_part = u_svd @ vt
    dim = m.shape[0]
    if _maxabs(u_part.T @ u_part - np.eye(dim)) > 1e-10:
        raise SingularM("orthogonal factor failed its check")
    if _maxabs(t_part @ u_part - m) > check_tol * (1.0 + _maxabs(m)):
        raise SingularM("polar factors do not reproduce the input")
    return PolarPair(t_part=t_part, u_part=u_part)


def sqrt_pd(a) -> np.ndarray:
    """Symmetric square root of a symmetric positive definite matrix."""
    a = np.asarray(a, dtype=float)
    w, vecs = np.linalg.eigh(0.5 * (a + a.T))
    if w[0] <= 0:
        raise SingularM(f"matrix is not positive definite (min eig {w[0]:.3g})")
    root = (vecs * np.sqrt(w)) @ vecs.T
    return 0.5 * (root + root.T)


def stroboscopic_generator(m_tau, tau: float, check_tol: float = 1e-8) -> np.ndarray:
    """Effective generator (1/tau) log M(tau) of one drive period.

    Requires the principal real logarithm to exist: no eigenvalue of
    M(tau) may lie on the closed negative real axis.  The result K
    satisfies exp(tau K) = M(tau) and Omega K symmetric, so it is again a
    quadratic-Hamiltonian generator.
    """
    m_tau = np.asarray(m_tau, dtype=float)
    if tau <= 0:
        raise ValueError("tau must be positive")
    eigs = np.linalg.eigvals(m_tau)
    scale = np.max(np.abs(eigs))
    for ev in eigs:
        if abs(ev.imag) <= 1e-12 * (1.0 + scale) and ev.real <= 0:
            raise NoRealLogarithm(
                f"eigenvalue {ev:.6g} lies on the closed negative real axis; "
                "no real stroboscopic generator exists at this period")
    log_m = logm(m_tau)
    if np.max(np.abs(log_m.imag)) > 1e-8 * (1.0 + np.max(np.abs(log_m.real))):
        raise NoRealLogarithm("matrix logarithm came out complex")
    k = log_m.real / tau
    if _maxabs(expm(tau * k) - m_tau) > check_tol * (1.0 + _maxabs(m_tau)):
        raise NoRealLogarithm("exp(tau K) does not reproduce M(tau)")
    n = m_tau.shape[0] // 2
    omega_k = standard_omega(n) @ k
    if _maxabs(omega_k - omega_k.T) > check_tol * (1.0 + _maxabs(omega_k)):
        raise NoRealLogarithm("log M is not in the symplectic Lie algebra")
    return k
