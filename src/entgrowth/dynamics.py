"""Symplectic dynamics generated by time-dependent quadratic Hamiltonians.

The classical flow of H(t) = (1/2) h_ab(t) xi^a xi^b is the
time-ordered exponential of K(t) = Omega h(t).  A Hamiltonian is either
data or a callable:

* piecewise-constant data (``QuadraticHamiltonian.constant`` and
  ``QuadraticHamiltonian.piecewise``) knows its pieces and breakpoints.
  Its flow is an exact product of piece exponentials, so the step ``dt``
  only sets the sample grid: the flow between two stored samples is one
  exponential per piece it crosses, and the whole periods inside it are
  one cached period map M(tau) each;
* any other ``h(t)`` callable is stepped by per-step exponentials sampled
  at the step midpoint (second-order Magnus).

``step_loop`` is the one step loop; ``propagate``, the QR Lyapunov
estimator and the Fock oracle all run on it, each asking only for the
steps it reads.  Each factor is symplectic up to the accuracy of the
exponential, and the defect |M Omega M^T - Omega| of every stored M(t) is
monitored rather than silently projected away.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce
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
# relative tolerance of the checks that a stroboscopic generator reproduces M(tau)
LOG_CHECK_TOL = 1e-8
# a piece boundary this close to a segment edge, in units of the step, lies on it
EDGE_SNAP = 1e-9


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


def stored_steps(n_steps: int, store_every: int) -> list:
    """The steps a trajectory keeps: 0, every ``store_every``-th step and the last."""
    steps = list(range(0, n_steps + 1, store_every))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return steps


def stored_count(n_steps: int, store_every: int) -> int:
    """The number of steps :func:`stored_steps` keeps, without listing them."""
    return len(range(0, n_steps + 1, store_every)) + (n_steps % store_every != 0)


def sample_times(t_final: float, dt: float, store_every: int = 1) -> np.ndarray:
    """The times ``propagate`` stores, at the steps of :func:`stored_steps`.

    The last is ``t_final`` itself, as in :func:`step_loop`.
    """
    n_steps = step_count(t_final, dt)
    times = np.array(stored_steps(n_steps, store_every)) * (t_final / n_steps)
    times[-1] = t_final
    return times


def _check_periodicity(ham):
    tau = ham.period
    for frac in (0.13, 0.41, 0.77):
        t = frac * tau
        h0 = np.asarray(ham.h(t), dtype=float)
        h1 = np.asarray(ham.h(t + tau), dtype=float)
        if _maxabs(h1 - h0) > 1e-10 * (1.0 + _maxabs(h0)):
            raise ValueError(f"declared period {tau} but h({t + tau}) != h({t})")


def _piece_factors(ham, dt, make):
    """``factors(t_a, length)``: the exact factors of piece data over [t_a, t_a + length].

    One factor per piece the segment crosses, made once per (piece,
    length); the whole periods inside the segment are one period map
    M(tau) each, the ordered product of the full-piece factors.
    """
    cache = {}
    tol = EDGE_SNAP * dt

    def piece(i, phase, length):
        key = (i, length)
        if key not in cache:
            cache[key] = make(length, phase + 0.5 * length)
        return cache[key]

    if ham.period is None:
        return lambda t_a, length: (piece(0, t_a, length),)
    tau, starts = ham.period, ham._starts
    durations = [duration for duration, _ in ham.pieces]

    def period():
        if "period" not in cache:
            full = [piece(i, s, d) for i, (s, d) in enumerate(zip(starts, durations))]
            cache["period"] = reduce(lambda acc, f: f @ acc, full[1:], full[0])
        return cache["period"]

    def factors(t_a, length):
        phase = math.fmod(t_a, tau)
        i = bisect_right(starts, phase + tol) - 1
        if abs(phase - starts[i]) <= tol:
            phase = starts[i]
        if tau - phase <= tol:
            i, phase = 0, starts[0]
        out = []
        while length > tol:
            if i == 0 and phase == starts[0] and length >= tau - tol:
                count = int((length + tol) // tau)
                out += [period()] * count
                length -= count * tau
                continue
            run = durations[i] if phase == starts[i] else starts[i] + durations[i] - phase
            if length < run - tol:
                out.append(piece(i, phase, length))
                break
            out.append(piece(i, phase, run))
            length -= run
            i = (i + 1) % len(durations)
            phase = starts[i]
        return tuple(out)

    return factors


def step_loop(ham: QuadraticHamiltonian, t_final: float, n_steps: int, events, make=None):
    """Yield ``(k, t_k, factors)`` at the event steps k of the grid t_k = k t_final / n_steps.

    ``events`` are ascending step indices in [1, n_steps].  Applying
    ``factors`` in order (first factor first) takes the flow from the
    previous event, or t=0, to t_k.  The last step ends at ``t_final``
    exactly, not at the rounded ``n_steps * (t_final / n_steps)``.
    ``make(length, t_mid)`` builds the factor of a time segment from its
    length and midpoint; the default is the flow exponential
    expm(length K(t_mid)).  For periodic piece data its factors must
    compose with ``@`` as matrices do: the period map is their product.

    A callable ``h`` gets one midpoint factor per step, made as the caller
    iterates over ``factors``.  Piecewise-constant data gets a tuple: one
    exact factor per piece the segment crosses, so a segment is split only
    at breakpoints, and one period map M(tau) per whole period inside it.
    These factors are made once per (piece, segment length) in a call, so
    segments of equal step count reuse them.  A breakpoint within
    ``EDGE_SNAP`` steps of a segment edge lies on it.
    """
    if make is None:
        def make(length, t_mid):
            return expm(length * generator(ham, t_mid))
    dt = t_final / n_steps
    piece_factors = _piece_factors(ham, dt, make) if ham.pieces else None
    k_prev = 0
    for k in events:
        t = t_final if k == n_steps else k * dt
        if piece_factors is not None:
            factors = piece_factors(k_prev * dt, (k - k_prev) * dt)
        else:
            factors = (make(dt, j * dt + 0.5 * dt) for j in range(k_prev, k))
        yield k, t, factors
        k_prev = k


def propagate(ham: QuadraticHamiltonian, t_final: float, dt: float,
              store_every: int = 1, defect_factor: float = DEFECT_FACTOR) -> PropagationResult:
    """Time-ordered exponential at the stored steps of :func:`step_loop`.

    Parameters
    ----------
    ham : QuadraticHamiltonian
    t_final, dt : horizon and step; the step is rounded so that an integer
        number of steps lands exactly on ``t_final``.
    store_every : keep every k-th step (plus t=0 and the final step); the
        times are :func:`sample_times`.
    defect_factor : ceiling on the symplectic defect of each stored M(t) is
        ``defect_factor * (1 + max|M|^2)``; exceeding it raises StepTooLarge
        naming the earliest stored time that does.
    """
    if dt <= 0 or t_final <= 0:
        raise ValueError("need dt > 0 and t_final > 0")
    if ham.period is not None and not ham.pieces:
        _check_periodicity(ham)
    n_steps = step_count(t_final, dt)
    dt_eff = t_final / n_steps
    omega = standard_omega(ham.n_modes)
    # piece data is exact on any grid, so only a callable's defect shrinks with dt
    hint = ("piece data is exact at any dt, so this is roundoff of the product" if ham.pieces
            else f"reduce dt (currently {dt_eff:.3g})")

    m = np.eye(2 * ham.n_modes)
    mats = [m]
    for _, _, factors in step_loop(ham, t_final, n_steps, stored_steps(n_steps, store_every)[1:]):
        for step in factors:
            m = step @ m
        mats.append(m)
    mats = np.array(mats)
    times = sample_times(t_final, dt, store_every)

    # checked once on the whole stack: one call per check, not one per sample
    defects = _maxabs_each(mats @ omega @ _mT(mats) - omega)
    ceilings = defect_factor * (1.0 + _maxabs_each(mats) ** 2)
    bad = defects > ceilings
    if bad.any():
        i = int(np.argmax(bad))
        raise StepTooLarge(
            f"propagation stage at t={times[i]:.6g}: symplectic defect {defects[i]:.3g} exceeded "
            f"ceiling {ceilings[i]:.3g}; " + hint)
    return PropagationResult(times=times, matrices=mats, defects=defects, dt=dt_eff)


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
def polar_decompose(m) -> PolarPair:
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
    _fail_first(_maxabs_each(t_part @ u_part - m) > 1e-9 * (1.0 + _maxabs_each(m)),
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


def stroboscopic_generator(m_tau, tau: float) -> np.ndarray:
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
    if _maxabs(expm(tau * k) - m_tau) > LOG_CHECK_TOL * (1.0 + _maxabs(m_tau)):
        raise NoRealLogarithm("exp(tau K) does not reproduce M(tau)")
    n = m_tau.shape[0] // 2
    omega_k = standard_omega(n) @ k
    if _maxabs(omega_k - omega_k.T) > LOG_CHECK_TOL * (1.0 + _maxabs(omega_k)):
        raise NoRealLogarithm("log M is not in the symplectic Lie algebra")
    return k
