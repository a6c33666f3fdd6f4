"""Symplectic dynamics generated by time-dependent quadratic Hamiltonians.

The classical flow of H(t) = (1/2) h_ab(t) xi^a xi^b is the
time-ordered exponential of K(t) = Omega h(t).  A Hamiltonian is either
data or a callable:

* piecewise-constant data (``QuadraticHamiltonian.constant`` and
  ``QuadraticHamiltonian.piecewise``) knows its pieces and breakpoints.
  Its flow is an exact product of piece exponentials, which the Hamiltonian
  keeps for every stage, so the step ``dt`` only sets the sample grid: the
  flow between two stored samples is one exponential per piece it crosses,
  and the whole periods inside it are one period map M(tau) each;
* any other ``h(t)`` callable is stepped by per-step exponentials sampled
  at the step midpoint (second-order Magnus).

``step_loop`` is the one step loop; ``propagate``, the QR Lyapunov
estimator and the Fock oracle all run on it, each asking only for the
steps it reads.  Each factor is symplectic up to the accuracy of the
exponential, and the defect |M Omega M^T - Omega| of every stored M(t) is
monitored rather than silently projected away.

The exponential is the package's own :func:`expm`, one scaling-and-squaring
Taylor sum in ``np.longdouble`` with numpy alone, so no flow imports a SciPy
module, whether constant, piecewise or callable.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache, reduce
from typing import Callable, Optional

import numpy as np

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

# a stored M(t) is symplectic to DEFECT_FACTOR (1 + max|M|^2): the ceiling of
# propagate and of the bound stage's input check
DEFECT_FACTOR = 1e-8
# a piece boundary this close to a segment edge, in units of the step, lies on it
EDGE_SNAP = 1e-9
# steps per stacked call where a callable h is sampled step by step
CHUNK_STEPS = 1024

# exp(B) of a B of 1-norm at most THETA is its degree-16 Taylor polynomial to
# within THETA^17 / 17! = 2.1e-20, under 2^-64
_THETA = 0.5
# row j: the coefficients 1/k! of B^k, k = 4j .. 4j+3, for Paterson & Stockmeyer's
# blocks over (I, B, B^2, B^3); with B^16 / 16! they are summed by Horner's rule in B^4
_TAYLOR = np.array([[np.longdouble(1) / math.factorial(4 * j + i) for i in range(4)]
                    for j in range(4)], dtype=np.longdouble)


def expm(a) -> np.ndarray:
    """Matrix exponential of the real matrix ``a``, or of each of a stack ``(..., n, n)``.

    Scaling and squaring of the degree-16 Taylor polynomial, in
    ``np.longdouble``: each matrix A is scaled to B = 2^-s A, with the
    least s >= 0 that brings the 1-norm of B to 1/2 or below, and the
    polynomial of B, summed by Paterson & Stockmeyer's scheme (products
    B^2, B^3, B^4 and three Horner steps in B^4), is squared s times.  With
    64 mantissa bits, the entries not far below the largest are correctly
    rounded, or one ulp off, in practice, and a nilpotent step (A^2 = 0)
    gives exactly I + A.  Where ``np.longdouble`` is plain double (Windows,
    macOS on arm64) the result has double accuracy, and a large A takes
    three or four squarings more, each adding roundoff, than a Pade
    evaluation of order 13 would.

    A stack gives, bit for bit, the matrices of the calls on each of its
    matrices.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    flat = a.reshape((-1, n, n))
    count = len(flat)
    # s = ceil(log2(|A|_1 / THETA)), from the binary exponent of the ratio
    mantissa, exponent = np.frexp(np.abs(flat).sum(axis=-2).max(axis=-1) / _THETA)
    scale = np.maximum(exponent - (mantissa == 0.5), 0)
    powers = np.empty((count, 4, n, n), dtype=np.longdouble)
    powers[:, 0] = np.eye(n)
    powers[:, 1] = np.ldexp(flat, -scale[:, None, None])
    np.matmul(powers[:, 1], powers[:, 1], out=powers[:, 2])
    np.matmul(powers[:, 2], powers[:, 1], out=powers[:, 3])
    b4 = powers[:, 2] @ powers[:, 2]
    blocks = (_TAYLOR @ powers.reshape(count, 4, n * n)).reshape(count, 4, n, n)
    x = b4 / math.factorial(16) + blocks[:, 3]
    for j in (2, 1, 0):
        x = b4 @ x + blocks[:, j]
    for k in range(int(scale.max(initial=0))):
        x = np.where((scale > k)[:, None, None], x @ x, x)
    return x.astype(float).reshape(a.shape)


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Quadratic form h(t).

    ``h`` maps a time to the symmetric 2N x 2N coefficient matrix.
    Piecewise-constant forms are data instead: build them with
    :meth:`constant` or :meth:`piecewise`, which fill ``pieces`` with
    ``(duration, form)`` pairs (repeated with ``period``; a constant is one
    piece without a period) and derive ``h`` from them.  Piece data keeps
    the exponential of each (piece, length) that :meth:`exponential` makes
    for as long as the Hamiltonian lives, with no eviction, so every flow
    stage of every run on it shares them.  A callable's ``period`` is
    checked at construction.
    """

    h: Optional[Callable[[float], np.ndarray]]
    n_modes: int
    period: Optional[float] = None
    pieces: tuple = ()
    _starts: tuple = field(default=(), init=False, repr=False, compare=False)
    _exponentials: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.period is not None and self.period <= 0:
            raise ValueError("period must be positive")
        if not self.pieces:
            tau = self.period
            for t in (0.13 * tau, 0.41 * tau, 0.77 * tau) if tau is not None else ():
                h0 = np.asarray(self.h(t), dtype=float)
                h1 = np.asarray(self.h(t + tau), dtype=float)
                if _maxabs(h1 - h0) > 1e-10 * (1.0 + _maxabs(h0)):
                    raise ValueError(f"declared period {tau} but h({t + tau}) != h({t})")
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

    def exponential(self, length: float, t_mid: float) -> np.ndarray:
        """expm(length K) of the piece in force at ``t_mid``: read-only, made once per length."""
        if not self.pieces:
            raise ValueError("a callable h has no piece exponentials")
        key = (self.piece_at(t_mid), length)
        if key not in self._exponentials:
            self._exponentials[key] = expm(length * generator(self, t_mid))
            self._exponentials[key].setflags(write=False)
        return self._exponentials[key]


def generator(ham: QuadraticHamiltonian, t) -> np.ndarray:
    """Symplectic generator K(t) = Omega h(t); trace-free for symmetric h.

    ``t`` may be a list of times, which gives the stack of their
    generators; an asymmetric h names the earliest time that has one.
    """
    stacked = isinstance(t, list)
    times = t if stacked else [t]
    h = np.asarray([ham.h(tj) for tj in times], dtype=float)
    if not ham.pieces:
        asymmetric = np.nonzero(~is_symmetric(h))[0]
        if len(asymmetric):
            raise NonSymmetricH(f"h({times[asymmetric[0]]}) is not symmetric")
    k = standard_omega(ham.n_modes) @ h
    return k if stacked else k[0]


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


def sample_count(n_steps: int, store_every: int) -> int:
    """Number of steps a trajectory keeps: 0, every ``store_every``-th step and the last.

    Stored sample i is step min(i * store_every, n_steps): the grid rule of
    :func:`stored_steps`, :func:`sample_times` and :func:`nearest_sample`.
    """
    return -(-n_steps // store_every) + 1


def stored_steps(n_steps: int, store_every: int) -> list:
    """The steps a trajectory keeps, in order: 0, every ``store_every``-th step and the last."""
    return [min(i * store_every, n_steps) for i in range(sample_count(n_steps, store_every))]


def sample_times(t_final: float, dt: float, store_every: int = 1) -> np.ndarray:
    """The times ``propagate`` stores, at the steps of :func:`stored_steps`.

    The last is ``t_final`` itself, as in :func:`step_loop`.
    """
    n_steps = step_count(t_final, dt)
    times = np.array(stored_steps(n_steps, store_every)) * (t_final / n_steps)
    times[-1] = t_final
    return times


def nearest_sample(t_final: float, dt: float, store_every: int, t: float) -> tuple:
    """Index and time of the stored sample nearest ``t``, the first of a tie.

    Equal to the nearest entry of :func:`sample_times`, computed from the
    grid rule without listing the grid.
    """
    n_steps = step_count(t_final, dt)
    last = sample_count(n_steps, store_every) - 1
    step = t_final / n_steps

    def time(i):
        return t_final if i == last else min(i * store_every, n_steps) * step

    guess = min(max(round(t / (step * store_every)), 0), last)
    index = min(sorted({max(guess - 1, 0), guess, min(guess + 1, last)}),
                key=lambda i: abs(time(i) - t))
    return index, time(index)


def _piece_factors(ham, dt):
    """``factors(t_a, length)``: the exact factors of piece data over [t_a, t_a + length].

    One kept exponential ``ham.exponential(length, t_mid)`` per piece the
    segment crosses; the whole periods inside the segment are one period
    map M(tau) each, the ordered product of the full-piece exponentials
    formed once per call (more accurate than applying a period piece by
    piece).
    """
    tol = EDGE_SNAP * dt
    if ham.period is None:
        return lambda t_a, length: (ham.exponential(length, t_a + 0.5 * length),)
    tau, starts = ham.period, ham._starts
    durations = [duration for duration, _ in ham.pieces]

    @cache
    def period():
        full = [ham.exponential(d, s + 0.5 * d) for s, d in zip(starts, durations)]
        return reduce(lambda acc, f: f @ acc, full[1:], full[0])

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
                out.append(ham.exponential(length, phase + 0.5 * length))
                break
            out.append(ham.exponential(run, phase + 0.5 * run))
            length -= run
            i = (i + 1) % len(durations)
            phase = starts[i]
        return tuple(out)

    return factors


def step_loop(ham: QuadraticHamiltonian, t_final: float, n_steps: int, events):
    """Yield ``(k, t_k, factors)`` at the event steps k of the grid t_k = k t_final / n_steps.

    ``events`` are ascending step indices in [1, n_steps].  Applying
    ``factors`` in order (first factor first) takes the flow from the
    previous event, or t=0, to t_k.  The last step ends at ``t_final``
    exactly, not at the rounded ``n_steps * (t_final / n_steps)``.

    A callable ``h`` gets one midpoint factor expm(dt K(t_mid)) per step,
    made as the caller iterates over ``factors``, in stacked :func:`expm`
    calls of up to ``CHUNK_STEPS`` steps.  Piecewise-constant data gets a
    tuple: one exact factor per piece the segment crosses, so a segment is
    split only at breakpoints, and one period map M(tau) per whole period
    inside it.  Its factors are the Hamiltonian's kept
    :meth:`~QuadraticHamiltonian.exponential`, shared by every call.  A
    breakpoint within ``EDGE_SNAP`` steps of a segment edge lies on it.
    """
    dt = t_final / n_steps
    piece_factors = _piece_factors(ham, dt) if ham.pieces else None
    k_prev = 0
    for k in events:
        t = t_final if k == n_steps else k * dt
        if piece_factors is not None:
            factors = piece_factors(k_prev * dt, (k - k_prev) * dt)
        else:
            factors = _midpoint_factors(ham, dt, k_prev, k)
        yield k, t, factors
        k_prev = k


def _midpoint_factors(ham, dt, lo, hi):
    """expm(dt K(t_mid)) of steps lo..hi-1, one stacked call per ``CHUNK_STEPS`` steps."""
    for start in range(lo, hi, CHUNK_STEPS):
        mids = [j * dt + 0.5 * dt for j in range(start, min(start + CHUNK_STEPS, hi))]
        yield from expm(dt * generator(ham, mids))


def propagate(ham: QuadraticHamiltonian, t_final: float, dt: float,
              store_every: int = 1) -> PropagationResult:
    """Time-ordered exponential at the stored steps of :func:`step_loop`, from
    the piece exponentials ``ham`` keeps when it is piece data.

    Parameters
    ----------
    ham : QuadraticHamiltonian
    t_final, dt : horizon and step; the step is rounded so that an integer
        number of steps lands exactly on ``t_final``.
    store_every : keep every k-th step (plus t=0 and the final step); the
        times are :func:`sample_times`.

    The ceiling on the symplectic defect of each stored M(t) is
    ``DEFECT_FACTOR * (1 + max|M|^2)``, read at call time; exceeding it
    raises StepTooLarge naming the earliest stored time that does.  An M(t)
    too large for its defect to be finite raises SingularM, naming the
    overflow, instead.
    """
    if dt <= 0 or t_final <= 0:
        raise ValueError("need dt > 0 and t_final > 0")
    n_steps = step_count(t_final, dt)
    dt_eff = t_final / n_steps
    omega = standard_omega(ham.n_modes)
    # piece data is exact on any grid, so only a callable's defect shrinks with dt
    hint = ("piece data is exact at any dt, so this is roundoff of the product" if ham.pieces
            else f"reduce dt (currently {dt_eff:.3g})")

    m = np.eye(2 * ham.n_modes)
    mats = [m]
    # an overflowed M(t) is reported once, as SingularM below, not also as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for _, _, factors in step_loop(ham, t_final, n_steps,
                                       stored_steps(n_steps, store_every)[1:]):
            for step in factors:
                m = step @ m
            mats.append(m)
        mats = np.array(mats)
        # checked once on the whole stack: one call per check, not one per sample
        defects = _maxabs_each(mats @ omega @ _mT(mats) - omega)
        ceilings = DEFECT_FACTOR * (1.0 + _maxabs_each(mats) ** 2)
    times = sample_times(t_final, dt, store_every)

    # a NaN defect compares False with its ceiling, so overflow is its own test
    overflow = ~np.isfinite(defects)
    bad = overflow | (defects > ceilings)
    if bad.any():
        i = int(np.argmax(bad))
        if overflow[i]:
            raise SingularM(f"at t={times[i]:.6g}: M(t) overflowed, so its symplectic defect "
                            f"is not finite; shorten t_final")
        raise StepTooLarge(
            f"at t={times[i]:.6g}: symplectic defect {defects[i]:.3g} exceeded "
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


def require_real_logarithm(multipliers) -> None:
    """Raise NoRealLogarithm unless M(tau), of eigenvalues ``multipliers``, has a real log."""
    scale = np.max(np.abs(multipliers))
    for ev in multipliers:
        if abs(ev.imag) <= 1e-12 * (1.0 + scale) and ev.real <= 0:
            raise NoRealLogarithm(
                f"eigenvalue {ev:.6g} lies on the closed negative real axis; "
                "no real stroboscopic generator exists at this period")
