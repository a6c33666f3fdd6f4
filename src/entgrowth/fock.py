"""Brute-force truncated-number-basis simulator for one to three modes.

This is the independent cross-check for everything the Gaussian pipeline
claims: it evolves arbitrary pure states (Fock, coherent, cat,
superpositions) under the same quadratic Hamiltonians by Chebyshev
propagators on sparse operators and measures true reduced entropies from
Schmidt coefficients.

Truncation policy: a hard ceiling on the population of the top two levels
of any mode.  Once exceeded, later samples are marked untrusted rather
than silently kept; unstable dynamics leaves any fixed cutoff eventually,
so honest windows beat adaptive cutoff growth.

Size policy, owned by :func:`check_size` alone: a cutoff of at least 4, and
a run's stored amplitudes, twice (its stack, and a recurrence block while the
block's stored rows are copied), its sparse step operator and the Chebyshev
vectors of one recurrence (at most ``SPAN_TERMS``, the term count of a
``SPAN_CAP`` span) must fit ``MEMORY_BUDGET`` bytes, with no cap on the modes
or the dimension.  The config parser runs it with the run's sample count
before it builds the state, and :func:`evolve_fock` runs it once more.  The
state owns its shape; :class:`FockConfig` holds only the step and the leak
ceiling.

The operator is one sparse product, [xi_1 ... xi_2N] (h (x) I) [xi_1; ...;
xi_2N] = h_ab xi^a xi^b, Hermitian-averaged (:func:`build_hamiltonian`).

``scipy.sparse``, ``scipy.fft`` and ``scipy.special`` are imported by the
functions that use them, on first use, so importing this module and
parsing a Fock config load none of them.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from operator import itemgetter

import numpy as np

from .dynamics import (
    QuadraticHamiltonian,
    sample_count,
    sample_times,
    step_count,
    step_loop,
    stored_steps,
)
from .errors import DimensionMismatch, TruncationLeak
from .phase_space import williamson_spectrum


MEMORY_BUDGET = 2 ** 27   # bytes: amplitudes twice, step operator and Chebyshev vectors, 128 MiB
CHEBYSHEV_CUT = 1e-17     # a series ends where |J_k| falls below this
# largest x = tau w one recurrence spans: its outputs cost samples x terms x dim,
# which grows with the square of the span
SPAN_CAP = 64.0
SPAN_TERMS = 111          # _term_count(SPAN_CAP), kept as a number so sizing loads no Bessel code
LEAK_CEILING = 1e-6       # default ceiling on the top-two-level population of any mode


def check_size(n_modes: int, cutoff: int, n_samples: int) -> None:
    """Raise ValueError for a cutoff below 4 or a run of ``n_samples`` over ``MEMORY_BUDGET``.

    A run holds its stored amplitude vectors twice (a recurrence block beside
    the trajectory's stack while its stored rows are copied), its sparse step
    operator and the Chebyshev vectors of one recurrence, at most
    ``SPAN_TERMS``.  A quadratic form moves the occupations by at most two
    quanta, in one mode or across two, so the operator has at most 2 N^2 + 1
    nonzero diagonals: each nonzero costs a complex value and a column
    index, each row a pointer.
    """
    if cutoff < 4:
        raise ValueError("cutoff must be at least 4")
    dim = cutoff ** n_modes
    need = (16 * (2 * n_samples + SPAN_TERMS) * dim
            + 20 * (2 * n_modes ** 2 + 1) * dim + 4 * (dim + 1))
    if need > MEMORY_BUDGET:
        raise ValueError(f"{n_samples} stored samples at dimension {dim} need "
                         f"{need / 2 ** 20:.4g} MiB, above the {MEMORY_BUDGET / 2 ** 20:g} MiB "
                         f"memory budget")


@dataclass(frozen=True)
class FockConfig:
    """Stepping and truncation parameters of the oracle; the state carries its modes and cutoff."""

    dt: float
    leak_ceiling: float = LEAK_CEILING

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")


@lru_cache(maxsize=8)
def build_quadratures(n_modes: int, cutoff: int) -> tuple:
    """Full-space quadrature operators in (q1, p1, ..., qN, pN) order, as CSR matrices.

    On the truncated ladder [q_i, p_i] = i only away from the top level;
    the commutator defect lives entirely in the highest occupation block.
    Built on first use and cached per ``(n_modes, cutoff)``: every caller
    gets the same operators, so their arrays are read-only.
    """
    from scipy import sparse

    a = sparse.diags(np.sqrt(np.arange(1.0, cutoff)), offsets=1, format="csr")
    q = (a + a.T) / np.sqrt(2.0)
    p = (a - a.T) / (1j * np.sqrt(2.0))
    eye = sparse.identity(cutoff, format="csr")
    ops = []
    for mode in range(n_modes):
        for local in (q, p):
            factors = [eye] * n_modes
            factors[mode] = local
            full = factors[0]
            for fac in factors[1:]:
                full = sparse.kron(full, fac, format="csr")
            op = sparse.csr_matrix(full, dtype=complex)
            for array in (op.data, op.indices, op.indptr):
                array.setflags(write=False)
            ops.append(op)
    return tuple(ops)


def build_hamiltonian(ham: QuadraticHamiltonian, t: float, cutoff: int):
    """Sparse (CSR) Hermitian operator (1/4) h_ab (xi^a xi^b + xi^b xi^a) at ``cutoff`` levels per mode.

    One sparse product gives op = [xi_1 ... xi_2N] (h (x) I) [xi_1; ...; xi_2N]
    = h_ab xi^a xi^b.  For symmetric h, op / 2 equals the symmetrized form as
    an operator (the commutator term cancels against the antisymmetric
    form), but the symmetrized evaluation (op + op^H) / 4 keeps the
    truncated matrix Hermitian by construction, exactly: entry (i, j) of
    op + op^H and the conjugate of entry (j, i) add the same two numbers.
    """
    from scipy import sparse

    xi = build_quadratures(ham.n_modes, cutoff)
    h = sparse.kron(ham.h(t), sparse.identity(xi[0].shape[0]), format="csr")
    op = sparse.hstack(xi, format="csr") @ (h @ sparse.vstack(xi, format="csr"))
    return (0.25 * (op + op.conj().T)).tocsr()


@dataclass(frozen=True, eq=False)
class _Frame:
    """A Hermitian op as ``doubled`` = 2 (op - c) / w, for its spectrum inside [c - w, c + w].

    Frames compare by identity: segments on one frame share one recurrence.
    """

    doubled: "scipy.sparse.csr_matrix"
    c: float
    w: float


def _chebyshev_frame(op) -> _Frame:
    """The frame of a Hermitian ``op`` from the union of its Gershgorin discs."""
    from scipy import sparse

    diag = op.diagonal()
    radius = np.asarray(abs(op).sum(axis=1)).ravel() - np.abs(diag)
    low, high = float(np.min(diag.real - radius)), float(np.max(diag.real + radius))
    c, w = 0.5 * (high + low), 0.5 * (high - low)
    # w = 0 means op = c, and the series has one term; a subnormal w, whose
    # 2 / w overflows, is op = c to within w and is taken as 0 too
    scale = 2.0 / w if w > 0.0 else 0.0
    if not math.isfinite(scale):
        scale = w = 0.0
    return _Frame(((op - c * sparse.identity(op.shape[0], format="csr")) * scale).tocsr(), c, w)


class _Segments(tuple):
    """exp(-i l_n op_n) ... exp(-i l_1 op_1) as the pairs ((frame_1, l_1), ..., (frame_n, l_n)).

    ``a @ b`` applies ``b`` first, as for matrices, so the step loop's
    period map is the pairs of its pieces in order.
    """

    def __matmul__(self, other):
        return _Segments(other + self)


@lru_cache(maxsize=64)
def _term_count(x: float) -> int:
    """Terms of the series at x = tau w: up to the last k with |J_k(x)| above ``CHEBYSHEV_CUT``.

    Cached: each J_k call costs a few microseconds at these orders.
    """
    from scipy.special import jv

    # |J_k(x)| < (x/2)^k / k!, far below the cut at k = 1.5 x + 50 for any x
    ks = np.arange(int(1.5 * x) + 50)
    return int(np.nonzero(np.abs(jv(ks, x)) >= CHEBYSHEV_CUT)[0][-1]) + 1


def _chebyshev_coefficients(xs, n_terms: int) -> np.ndarray:
    """(2 - delta_k0) (-i)^k J_k(x) for k < ``n_terms``, one row per x of ``xs``.

    By Jacobi-Anger, exp(-i x cos theta) = sum_k (2 - delta_k0) (-i)^k
    J_k(x) cos(k theta), so one DCT-I of its samples at the N + 1
    Chebyshev-Lobatto angles theta_n = pi n / N gives every row.  Each
    coefficient picks up aliases of index 2N - k and above; with N =
    ``n_terms`` they lie below the cut for every x up to the one that set
    ``n_terms``, since J_k(x) grows with x for k >= x.
    """
    from scipy.fft import dct

    theta = np.pi * np.arange(n_terms + 1) / n_terms
    coef = dct(np.exp(-1j * np.multiply.outer(xs, np.cos(theta))), type=1, axis=-1)[..., :n_terms]
    coef /= n_terms
    coef[..., 0] *= 0.5
    return coef


def _chebyshev_series(frame: _Frame, psi, taus, out) -> None:
    """Write exp(-i tau op) psi for each tau of the ascending ``taus`` to the rows of ``out``.

    The Chebyshev expansion of Tal-Ezer and Kosloff (J. Chem. Phys. 81,
    3967, 1984): exp(-i tau op) = e^{-i tau c} sum_k (2 - delta_k0) (-i)^k
    J_k(tau w) T_k((op - c) / w).  The vectors T_k((op - c) / w) psi do not
    depend on tau: the three-term recurrence T_{k+1} = 2 x T_k - T_{k-1}
    builds them once, one sparse product per term, up to the term count of
    the largest tau, and the rows are one product of the coefficient table
    with them.  ``psi`` is read in full before ``out`` is written.
    """
    xs = np.asarray(taus) * frame.w
    n_terms = _term_count(xs[-1])
    vecs = np.empty((n_terms, psi.size), dtype=complex)
    vecs[0] = psi
    if n_terms > 1:
        vecs[1] = 0.5 * (frame.doubled @ psi)
        for k in range(2, n_terms):
            np.subtract(frame.doubled @ vecs[k - 1], vecs[k - 2], out=vecs[k])
    coef = _chebyshev_coefficients(xs, n_terms) * np.exp(-1j * frame.c * np.asarray(taus))[:, None]
    np.matmul(coef, vecs, out=out)


def _chebyshev_states(frame: _Frame, psi, lengths, stored, out):
    """Write exp(-i tau_j op) psi to ``out`` at each partial sum tau_j of ``lengths`` that
    ``stored`` flags, one row each in order, and return the state at the last sum.

    One recurrence (:func:`_chebyshev_series`) serves every tau_j within
    x = ``SPAN_CAP`` of the span's start.  It forms only the span's stored
    rows and its last state, from which the next span restarts.  A length
    longer than a span runs as equal parts in turn.
    """
    limit = SPAN_CAP / frame.w if frame.w > 0.0 else math.inf
    taus = np.concatenate(([0.0], np.cumsum(lengths)))
    kept = np.flatnonzero(stored)
    start = count = 0
    while start < len(lengths):
        stop = max(start + 1, int(np.searchsorted(taus, taus[start] + limit, side="right")) - 1)
        rows = kept[(kept >= start) & (kept < stop)]
        offsets = taus[np.union1d(rows, [stop - 1]) + 1] - taus[start]
        block = np.empty((len(offsets), psi.size), dtype=complex)
        # above 1 only for a segment longer than a span, which is alone in it
        parts = max(1, math.ceil(offsets[0] / limit))
        for _ in range(parts):
            _chebyshev_series(frame, psi, offsets / parts, block)
            psi = block[-1]
        out[count:count + len(rows)] = block[:len(rows)]
        count += len(rows)
        start = stop
    return psi


@dataclass(frozen=True)
class FockState:
    """Complex amplitude tensor over the truncated number basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim < 1 or amp.ndim > 3:
            raise DimensionMismatch("amplitude tensor must have 1 to 3 axes")
        if len(set(amp.shape)) != 1:
            raise DimensionMismatch("all modes must share one cutoff")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def n_modes(self) -> int:
        return self.amplitudes.ndim

    @property
    def cutoff(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "FockState":
        return FockState(self.amplitudes / self.norm)

    @classmethod
    def fock(cls, occupations, cutoff: int) -> "FockState":
        occupations = tuple(occupations)
        if any(not 0 <= n < cutoff for n in occupations):
            raise ValueError(f"occupations {occupations} exceed cutoff {cutoff}")
        amp = np.zeros((cutoff,) * len(occupations), dtype=complex)
        amp[occupations] = 1.0
        return cls(amp)

    @classmethod
    def superposition(cls, terms, cutoff: int, n_modes: int) -> "FockState":
        """Normalized sum of coeff * |occupations> terms."""
        amp = np.zeros((cutoff,) * n_modes, dtype=complex)
        for coeff, occ in terms:
            amp[tuple(occ)] += coeff
        state = cls(amp)
        if state.norm == 0:
            raise ValueError("superposition has zero norm")
        return state.normalized()

    @classmethod
    def coherent(cls, alphas, cutoff: int) -> "FockState":
        """Product of coherent states, one amplitude per mode."""
        vecs = []
        for alpha in np.atleast_1d(alphas):
            n = np.arange(cutoff)
            log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, cutoff)))])
            vec = np.exp(-0.5 * abs(alpha) ** 2) * alpha ** n / np.exp(0.5 * log_fact)
            tail = 1.0 - float(np.linalg.norm(vec) ** 2)
            if tail > 1e-8:
                raise ValueError(f"coherent amplitude {alpha} loses {tail:.3g} beyond cutoff {cutoff}")
            vecs.append(vec)
        amp = vecs[0]
        for vec in vecs[1:]:
            amp = np.multiply.outer(amp, vec)
        return cls(amp).normalized()

    @classmethod
    def cat(cls, alpha, cutoff: int, n_modes: int = 1, mode: int = 0) -> "FockState":
        """Even cat (|alpha> + |-alpha>)/norm in one mode, vacuum elsewhere."""
        plus = cls.coherent([alpha], cutoff).amplitudes
        minus = cls.coherent([-alpha], cutoff).amplitudes
        local = plus + minus
        local = local / np.linalg.norm(local)
        vac = np.zeros(cutoff, dtype=complex)
        vac[0] = 1.0
        amp = None
        for m in range(n_modes):
            vec = local if m == mode else vac
            amp = vec if amp is None else np.multiply.outer(amp, vec)
        return cls(amp)


def top_level_population(amplitudes):
    """Largest population of the top two levels over all modes, for each state of a stack."""
    axes = tuple(range(1, amplitudes.ndim))
    return np.max([np.sum(np.abs(np.moveaxis(amplitudes, axis, 1)[:, -2:]) ** 2, axis=axes)
                   for axis in axes], axis=0)


@dataclass
class FockTrajectory:
    """Oracle samples: one stack of ``amplitudes`` on the ``times`` of ``propagate``, trust flags."""

    times: np.ndarray
    amplitudes: np.ndarray
    leaks: np.ndarray
    trusted: np.ndarray

    @property
    def trusted_until(self) -> float:
        idx = np.nonzero(self.trusted)[0]
        return float(self.times[idx[-1]]) if len(idx) else 0.0


def evolve_fock(psi0: FockState, ham: QuadraticHamiltonian, t_final: float,
                cfg: FockConfig, store_every: int = 1) -> FockTrajectory:
    """Propagate by exp(-i s H) over the segments of the shared step loop.

    The segments are those of :func:`~entgrowth.dynamics.step_loop`: a
    callable Hamiltonian gets one per step, sampled at the step midpoint,
    while piecewise-constant data gets one exact segment per piece crossed
    between stored samples (and the pieces of one period map per whole
    period).  The operator is built once per piece for data, so a constant
    Hamiltonian is built once.  Consecutive segments on one operator share
    one Chebyshev recurrence (:func:`_chebyshev_states`): the Chebyshev
    vectors T_k psi do not depend on the time, so one recurrence serves
    every stored sample on that operator, each through its own Bessel
    coefficients, accurate to roundoff.  A recurrence spans at most x =
    tau w = ``SPAN_CAP`` = 64 and then restarts from its last state,
    because accumulating its outputs costs samples x terms x dim, which
    grows with the square of the span.  A run must pass :func:`check_size`.
    Stored states are copied out of their block into one stack on the times
    of ``propagate``, whose norm drift and top-level population are checked
    once, failing at the earliest stored time.  Once the top-level population
    exceeds the ceiling, all later samples are flagged untrusted; an initial
    state already over the ceiling is rejected outright.
    """
    if ham.n_modes != psi0.n_modes:
        raise DimensionMismatch(f"Hamiltonian has {ham.n_modes} modes, state has {psi0.n_modes}")
    if abs(psi0.norm - 1.0) > 1e-8:
        raise ValueError(f"initial state norm {psi0.norm} not 1")
    if top_level_population(psi0.amplitudes[None])[0] > cfg.leak_ceiling:
        raise TruncationLeak("fock stage at t=0: initial state already exceeds the leak "
                             "ceiling; raise the cutoff")

    n_steps = step_count(t_final, cfg.dt)
    check_size(psi0.n_modes, psi0.cutoff, sample_count(n_steps, store_every))
    times = sample_times(t_final, cfg.dt, store_every)
    events = stored_steps(n_steps, store_every)[1:]
    frames = {}    # piece index -> Chebyshev frame of its Fock operator

    def segment(length, t_mid):
        piece = ham.piece_at(t_mid)
        frame = frames.get(piece)
        if frame is None:
            frame = _chebyshev_frame(build_hamiltonian(ham, t_mid, psi0.cutoff))
            if piece is not None:
                frames[piece] = frame
        return _Segments(((frame, length),))

    def segments():
        # (frame, length, stored): every segment in order; the last segment
        # of a stored step ends at its stored time
        for _, _, factors in step_loop(ham, t_final, n_steps, events, segment):
            pairs = (pair for factor in factors for pair in factor)
            last = next(pairs)
            for pair in pairs:
                yield (*last, False)
                last = pair
            yield (*last, True)

    amplitudes = np.empty(times.shape + psi0.amplitudes.shape, dtype=complex)
    rows = amplitudes.reshape(len(times), -1)    # a view: its rows are the stack's states
    rows[0] = psi0.amplitudes.ravel()
    psi, count = rows[0], 1
    for frame, group in groupby(segments(), key=itemgetter(0)):
        _, lengths, stored = zip(*group)
        psi = _chebyshev_states(frame, psi, lengths, stored, rows[count:])
        count += sum(stored)

    # squared norms from the real view: no copy of the stack
    flat = rows.view(float)
    drift = np.abs(np.sqrt(np.einsum("ij,ij->i", flat, flat)) - 1.0)
    bad = np.nonzero(drift > 1e-8 * np.maximum(times, 1.0))[0]
    if len(bad):
        i = bad[0]
        raise RuntimeError(f"fock stage at t={times[i]:.6g}: norm drift {drift[i]:.3g}; "
                           f"step unitary is broken")
    leaks = top_level_population(amplitudes)
    return FockTrajectory(times=times, amplitudes=amplitudes, leaks=leaks,
                          trusted=~np.logical_or.accumulate(leaks > cfg.leak_ceiling))


def _schmidt_values(amplitudes, modes_a) -> np.ndarray:
    """Schmidt coefficients across ``modes_a`` | the other modes, one row per state of the stack.

    One batched SVD over the (d^|A|, d^|B|) coefficient matrices of the
    stack ``amplitudes``, states along the first axis.
    """
    modes_a = tuple(modes_a)
    n = amplitudes.ndim - 1
    modes_b = tuple(m for m in range(n) if m not in modes_a)
    if not modes_a or not modes_b or len(set(modes_a)) != len(modes_a):
        raise ValueError(f"bad subsystem modes {modes_a} of {n}")
    d = amplitudes.shape[1]
    stack = np.transpose(amplitudes, (0,) + tuple(1 + m for m in modes_a + modes_b))
    return np.linalg.svd(stack.reshape(len(stack), d ** len(modes_a), d ** len(modes_b)),
                         compute_uv=False)


def schmidt_entropies(amplitudes, modes_a):
    """Von Neumann and Renyi-2 entropies of ``modes_a``, one per pure state of a stack, as two arrays.

    The states lie along the first axis, as in :attr:`FockTrajectory.amplitudes`.
    Both come from the Schmidt probabilities p = s^2 of one batched SVD:
    S = -sum p ln p and S_2 = -ln sum p^2.
    """
    probs = _schmidt_values(amplitudes, modes_a) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 1e-300, probs * np.log(probs), 0.0)
    return -np.sum(terms, axis=-1), -np.log(np.sum(probs ** 2, axis=-1))


def reduced_entropy(state: FockState, modes_a) -> float:
    """Entanglement entropy of the given modes from the Schmidt spectrum."""
    return float(schmidt_entropies(state.amplitudes[None], modes_a)[0][0])


def reduced_renyi2(state: FockState, modes_a) -> float:
    """Renyi-2 entropy -ln tr rho_A^2 of the reduced state."""
    return float(schmidt_entropies(state.amplitudes[None], modes_a)[1][0])


def covariance_of(state: FockState):
    """First and second quadrature moments: returns (covariance, displacement).

    The covariance follows the symmetrized-product convention with the
    vacuum normalized to the identity.  The result is validity-checked with
    an uncertainty slack widened by the measured top-level population:
    chopping the amplitude tail can push the moments below the bound by an
    amount of the truncation size.
    """
    leak = top_level_population(state.amplitudes[None])[0]
    xi = build_quadratures(state.n_modes, state.cutoff)
    psi = state.amplitudes.ravel()
    applied = [op @ psi for op in xi]
    dim = 2 * state.n_modes
    z = np.array([np.real(np.vdot(psi, applied[a])) for a in range(dim)])
    g = np.empty((dim, dim))
    for a in range(dim):
        for b in range(a, dim):
            g[a, b] = g[b, a] = 2.0 * np.real(np.vdot(applied[a], applied[b])) - 2.0 * z[a] * z[b]
    williamson_spectrum(g, uncertainty_slack=max(1e-9, 100.0 * leak))
    return g, z
