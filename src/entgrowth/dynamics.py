"""Symplectic dynamics generated by time-dependent quadratic Hamiltonians.

The classical flow of H(t) = (1/2) h_ab(t) xi^a xi^b is the
time-ordered exponential of K(t) = Omega h(t).  A Hamiltonian is either
data or a callable:

* piecewise-constant data (``QuadraticHamiltonian.constant`` and
  ``QuadraticHamiltonian.piecewise``) knows its pieces and breakpoints.
  Its flow is exact up to roundoff: a step inside one piece is that
  piece's exponential, computed once per (piece, step length) in a call,
  and a step that straddles a breakpoint is the product of the exact
  exponentials of the parts on either side;
* any other ``h(t)`` callable is stepped by per-step exponentials sampled
  at the step midpoint (second-order Magnus).

``step_loop`` is the one step loop; ``propagate``, the QR Lyapunov
estimator and the Fock oracle all run on it.  Each step is symplectic up
to the accuracy of the exponential, and the defect |M Omega M^T - Omega|
is monitored rather than silently projected away.
"""

import math
from bisect import bisect_right
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
from .phase_space import (
    _earliest_failure,
    _fail_first,
    _maxabs,
    _maxabs_each,
    _mT,
    is_symmetric,
    standard_omega,
)

DEFECT_FACTOR = 1e-8
# a breakpoint this close to a grid point, in units of the step, lies on it
BREAKPOINT_SNAP = 1e-9


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Quadratic form h(t).

    ``h`` maps a time to the symmetric 2N x 2N coefficient matrix.
    Piecewise-constant forms are data instead: build them with
    :meth:`constant` or :meth:`piecewise`, which fill ``pieces`` with
    ``(duration, form)`` pairs (repeated with ``period``; a constant is one
    piece without a period) and derive ``h`` from them.
    """

    h: Optional[Callable[[float], np.ndarray]]
    n_modes: int
    period: Optional[float] = None
    pieces: tuple = ()
    _starts: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.period is not None and self.period <= 0:
            raise ValueError("period must be positive")
        if not self.pieces:
            return
        if self.h is not None:
            raise ValueError("a piecewise-constant form derives h from its pieces")
        if self.period is None and len(self.pieces) != 1:
            raise ValueError("several pieces need a period")
        dim = 2 * self.n_modes
        pieces = []
        for i, (duration, form) in enumerate(self.pieces):
            form = np.array(form, dtype=float)
            if form.shape != (dim, dim):
                raise DimensionMismatch(f"piece {i} form is {form.shape}, need {(dim, dim)}")
            if not is_symmetric(form):
                raise NonSymmetricH(f"piece {i} quadratic form is not symmetric")
            if not duration > 0:
                raise ValueError(f"piece {i} duration must be positive")
            form.setflags(write=False)
            pieces.append((float(duration), form))
        durations = [d for d, _ in pieces]
        if self.period is not None and abs(sum(durations) - self.period) > 1e-9 * max(1.0, self.period):
            raise ValueError(f"piece durations sum to {sum(durations)}, period is {self.period}")
        object.__setattr__(self, "pieces", tuple(pieces))
        object.__setattr__(self, "_starts", tuple(np.cumsum([0.0] + durations[:-1])))
        object.__setattr__(self, "h", self._piece_form)

    @classmethod
    def constant(cls, h0) -> "QuadraticHamiltonian":
        h0 = np.asarray(h0, dtype=float)
        return cls(h=None, n_modes=h0.shape[0] // 2, pieces=((math.inf, h0),))

    @classmethod
    def piecewise(cls, pieces, period: float) -> "QuadraticHamiltonian":
        """Forms ``h_i`` held for ``duration_i`` in turn, repeating with ``period``.

        ``pieces`` is a sequence of ``(duration, h)``; the durations must
        sum to the period.  Piece i covers the phases [start_i, start_i +
        duration_i); a breakpoint belongs to the piece it starts.
        """
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("need at least one piece")
        n_modes = np.shape(pieces[0][1])[0] // 2
        return cls(h=None, n_modes=n_modes, period=float(period), pieces=pieces)

    @property
    def is_constant(self) -> bool:
        return len(self.pieces) == 1 and self.period is None

    def piece_at(self, t: float) -> Optional[int]:
        """Index of the piece in force at time t; None for a callable ``h``."""
        if not self.pieces:
            return None
        if self.period is None:
            return 0
        phase = math.fmod(t, self.period)
        if phase < 0:
            phase += self.period
        return bisect_right(self._starts, phase) - 1

    def _piece_form(self, t: float) -> np.ndarray:
        return self.pieces[self.piece_at(t)][1]

    def breakpoints(self, t_final: float) -> list:
        """Times in (0, t_final) where one piece hands over to the next, ascending."""
        if self.period is None or len(self.pieces) < 2:
            return []
        times = []
        for n in range(int(t_final // self.period) + 1):
            for start in self._starts:
                b = n * self.period + start
                if 0.0 < b < t_final:
                    times.append(b)
        return times


def generator(ham: QuadraticHamiltonian, t: float) -> np.ndarray:
    """Symplectic generator K(t) = Omega h(t); trace-free for symmetric h."""
    h = np.asarray(ham.h(t), dtype=float)
    if not ham.pieces and not is_symmetric(h):
        raise NonSymmetricH(f"h({t}) is not symmetric")
    return standard_omega(ham.n_modes) @ h


@dataclass
class PropagationResult:
    """Sampled symplectic trajectory M(t) with per-sample defect monitoring."""

    times: np.ndarray
    matrices: np.ndarray          # shape (n_samples, 2N, 2N)
    defects: np.ndarray
    dt: float = 0.0

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    @property
    def final_matrix(self) -> np.ndarray:
        return self.matrices[-1]

    def index_at(self, t: float) -> int:
        return int(np.argmin(np.abs(self.times - t)))


def step_count(t_final: float, dt: float) -> int:
    """Number of equal steps of about ``dt`` that land exactly on ``t_final``."""
    return max(1, int(round(t_final / dt)))


def sample_times(t_final: float, dt: float, store_every: int = 1) -> np.ndarray:
    """The times ``propagate`` stores: t=0, every ``store_every``-th step and the last.

    The last is ``t_final`` itself, as in :func:`step_loop`.
    """
    n_steps = step_count(t_final, dt)
    steps = np.arange(0, n_steps + 1, store_every)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    times = steps * (t_final / n_steps)
    times[-1] = t_final
    return times


def _check_periodicity(ham, samples=(0.13, 0.41, 0.77)):
    tau = ham.period
    for frac in samples:
        t = frac * tau
        h0 = np.asarray(ham.h(t), dtype=float)
        h1 = np.asarray(ham.h(t + tau), dtype=float)
        if _maxabs(h1 - h0) > 1e-10 * (1.0 + _maxabs(h0)):
            raise ValueError(f"declared period {tau} but h({t + tau}) != h({t})")


def _straddled_steps(ham, t_final, n_steps):
    """Step index k -> the breakpoints strictly inside (t_{k-1}, t_k)."""
    dt = t_final / n_steps
    inside = {}
    for b in ham.breakpoints(t_final):
        r = b / dt
        if abs(r - round(r)) > BREAKPOINT_SNAP:
            inside.setdefault(math.floor(r) + 1, []).append(b)
    return inside


def step_loop(ham: QuadraticHamiltonian, t_final: float, n_steps: int, make=None):
    """Yield ``(k, t_k, factors)`` for the steps t_k = k t_final / n_steps.

    The last step ends at ``t_final`` exactly, not at the rounded
    ``n_steps * (t_final / n_steps)``.  Applying ``factors`` in order
    (first factor first) takes the flow from t_{k-1} to t_k.
    ``make(length, t_mid)`` builds the factor of a time segment from its
    length and midpoint; the default is the flow exponential
    expm(length K(t_mid)).

    A callable ``h`` gets one fresh midpoint factor per step.  For
    piecewise-constant data, a step inside one piece reuses that piece's
    factor, made once per (piece index, step length) in the call; a step
    with breakpoints inside it gets one exact factor per part, made fresh
    because those lengths differ from step to step.  A breakpoint within
    ``BREAKPOINT_SNAP`` steps of a grid point counts as on it, so an
    aligned grid never splits a step.
    """
    if make is None:
        def make(length, t_mid):
            return expm(length * generator(ham, t_mid))
    dt = t_final / n_steps
    straddled = _straddled_steps(ham, t_final, n_steps)
    piece_at = ham.piece_at
    cache = {}    # (piece index, step length) -> factors
    t = 0.0
    for k in range(1, n_steps + 1):
        t_mid = t + 0.5 * dt
        t_next = t_final if k == n_steps else k * dt
        if k in straddled:
            edges = (t, *straddled[k], t_next)
            factors = tuple(make(b - a, 0.5 * (a + b)) for a, b in zip(edges, edges[1:]))
        else:
            key = (piece_at(t_mid), dt)
            factors = cache.get(key)
            if factors is None:
                factors = (make(dt, t_mid),)
                if key[0] is not None:
                    cache[key] = factors
        t = t_next
        yield k, t, factors


def propagate(ham: QuadraticHamiltonian, t_final: float, dt: float,
              store_every: int = 1, defect_factor: float = DEFECT_FACTOR) -> PropagationResult:
    """Time-ordered exponential over the steps of :func:`step_loop`.

    Parameters
    ----------
    ham : QuadraticHamiltonian
    t_final, dt : horizon and step; the step is rounded so that an integer
        number of steps lands exactly on ``t_final``.
    store_every : keep every k-th step (plus t=0 and the final step).
    defect_factor : ceiling on the symplectic defect is
        ``defect_factor * (1 + max|M|^2)``; exceeding it raises StepTooLarge.
    """
    if dt <= 0 or t_final <= 0:
        raise ValueError("need dt > 0 and t_final > 0")
    if ham.period is not None and not ham.pieces:
        _check_periodicity(ham)
    n_steps = step_count(t_final, dt)
    dt_eff = t_final / n_steps
    dim = 2 * ham.n_modes
    omega = standard_omega(ham.n_modes)

    m = np.eye(dim)
    times = [0.0]
    mats = [m.copy()]
    defects = [0.0]

    for k, t, factors in step_loop(ham, t_final, n_steps):
        for step in factors:
            m = step @ m

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

    return PropagationResult(
        times=np.array(times), matrices=np.array(mats), defects=np.array(defects),
        dt=dt_eff)


def evolve_covariance(g0, m) -> np.ndarray:
    """Covariance update G -> M G M^T (symmetrized against roundoff).

    ``m`` is one transformation or a stack of them; a stack gives the
    stack of evolved covariance matrices.
    """
    g0 = np.asarray(g0, dtype=float)
    m = np.asarray(m, dtype=float)
    if g0.shape != m.shape[-2:]:
        raise DimensionMismatch(f"covariance {g0.shape} vs transformation {m.shape}")
    g = m @ g0 @ _mT(m)
    return 0.5 * (g + _mT(g))


@dataclass(frozen=True)
class PolarPair:
    """Polar factors of a symplectic matrix: M = T u.

    ``t_part`` is symmetric positive definite and symplectic; ``u_part`` is
    orthogonal and symplectic.  For a stack of matrices each is a stack.
    """

    t_part: np.ndarray
    u_part: np.ndarray


@_earliest_failure
def polar_decompose(m, check_tol: float = 1e-9) -> PolarPair:
    """Polar decomposition via SVD: T = U diag(s) U^T, u = U V^T.

    Equivalent to T = sqrt(M M^T) but computed without forming M M^T, so
    small singular values are not lost to squaring.  ``m`` may be a stack;
    every matrix of it gets every check.
    """
    m = np.asarray(m, dtype=float)
    _fail_first(~np.isfinite(m).all(axis=(-2, -1)), SingularM, "matrix has non-finite entries")
    u_svd, sv, vt = np.linalg.svd(m)
    _fail_first((sv[..., -1] <= 0) | ~np.isfinite(sv[..., 0]), SingularM,
                lambda i: f"singular values out of range: [{sv[i][-1]:.3g}, {sv[i][0]:.3g}]")
    t_part = (u_svd * sv[..., None, :]) @ _mT(u_svd)
    t_part = 0.5 * (t_part + _mT(t_part))
    u_part = u_svd @ vt
    dim = m.shape[-1]
    _fail_first(_maxabs_each(_mT(u_part) @ u_part - np.eye(dim)) > 1e-10, SingularM,
                "orthogonal factor failed its check")
    _fail_first(_maxabs_each(t_part @ u_part - m) > check_tol * (1.0 + _maxabs_each(m)),
                SingularM, "polar factors do not reproduce the input")
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
