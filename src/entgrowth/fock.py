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

Size policy: a run's stored amplitudes and its sparse step operator must
fit ``MEMORY_BUDGET`` bytes (:func:`check_budget`), whatever the number of
modes; there is no cap on the dimension itself.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator
from scipy.special import jv

from .dynamics import QuadraticHamiltonian, step_count, step_loop, stored_steps
from .errors import DimensionMismatch, TruncationLeak
from .phase_space import require_valid_covariance


MEMORY_BUDGET = 2 ** 27   # bytes: stored amplitudes plus the step operator, 128 MiB
CHEBYSHEV_CUT = 1e-17     # a propagator's series ends where |J_k| falls below this
LEAK_CEILING = 1e-6       # default ceiling on the top-two-level population of any mode


def check_budget(n_modes: int, cutoff: int, n_samples: int) -> None:
    """Raise ValueError when a run of ``n_samples`` stored samples exceeds ``MEMORY_BUDGET``.

    A run holds its stored amplitude vectors and its sparse step operator.
    A quadratic form moves the occupations by at most two quanta, in one
    mode or across two, so the operator has at most 2 N^2 + 1 nonzero
    diagonals: each nonzero costs a complex value and a column index, each
    row a pointer.
    """
    dim = cutoff ** n_modes
    need = 16 * n_samples * dim + 20 * (2 * n_modes ** 2 + 1) * dim + 4 * (dim + 1)
    if need > MEMORY_BUDGET:
        raise ValueError(f"{n_samples} stored samples at dimension {dim} need "
                         f"{need / 2 ** 20:.4g} MiB, above the {MEMORY_BUDGET / 2 ** 20:g} MiB "
                         f"memory budget")


@dataclass(frozen=True)
class FockConfig:
    """Truncation and stepping parameters of the oracle."""

    n_modes: int
    cutoff: int
    dt: float
    leak_ceiling: float = LEAK_CEILING

    def __post_init__(self):
        if not 1 <= self.n_modes <= 3:
            raise ValueError("oracle supports 1 to 3 modes")
        if self.cutoff < 4:
            raise ValueError("cutoff must be at least 4")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        check_budget(self.n_modes, self.cutoff, 1)    # the initial state at least

    @property
    def dim(self) -> int:
        return self.cutoff ** self.n_modes


@lru_cache(maxsize=8)
def build_quadratures(n_modes: int, cutoff: int) -> tuple:
    """Full-space quadrature operators in (q1, p1, ..., qN, pN) order, as CSR matrices.

    On the truncated ladder [q_i, p_i] = i only away from the top level;
    the commutator defect lives entirely in the highest occupation block.
    Built on first use and cached per ``(n_modes, cutoff)``: every caller
    gets the same operators, so their arrays are read-only.
    """
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


def build_hamiltonian(ham: QuadraticHamiltonian, t: float, cfg: FockConfig):
    """Sparse (CSR) Hermitian operator (1/4) h_ab (xi^a xi^b + xi^b xi^a).

    For symmetric h this equals (1/2) h_ab xi^a xi^b as an operator (the
    commutator term cancels against the antisymmetric form), but the
    symmetrized evaluation keeps the truncated matrix Hermitian by
    construction, exactly: entry (i, j) of op + op^H and the conjugate of
    entry (j, i) add the same two numbers.
    """
    h = np.asarray(ham.h(t), dtype=float)
    if h.shape != (2 * cfg.n_modes, 2 * cfg.n_modes):
        raise DimensionMismatch(f"form is {h.shape}, config has {cfg.n_modes} modes")
    xi = build_quadratures(cfg.n_modes, cfg.cutoff)
    op = sparse.csr_matrix((cfg.dim, cfg.dim), dtype=complex)
    for a in range(2 * cfg.n_modes):
        row = h[a].tolist()     # Python floats scale a sparse matrix under every numpy
        if not any(row):
            continue
        acc = sparse.csr_matrix((cfg.dim, cfg.dim), dtype=complex)
        for b in range(2 * cfg.n_modes):
            if row[b] != 0.0:
                acc = acc + row[b] * xi[b]
        op = op + 0.5 * (xi[a] @ acc)
    return (0.5 * (op + op.conj().T)).tocsr()


def _chebyshev_frame(op):
    """``(2 (op - c) / w, c, w)``: the operator mapped onto [-1, 1] by its Gershgorin interval.

    Every eigenvalue of a Hermitian ``op`` lies within [c - w, c + w], the
    union of its Gershgorin discs.
    """
    diag = op.diagonal()
    radius = np.asarray(abs(op).sum(axis=1)).ravel() - np.abs(diag)
    low, high = float(np.min(diag.real - radius)), float(np.max(diag.real + radius))
    c, w = 0.5 * (high + low), 0.5 * (high - low)
    # w = 0 means op = c, and the series has one term
    scale = 2.0 / w if w > 0.0 else 0.0
    return ((op - c * sparse.identity(op.shape[0], format="csr")) * scale).tocsr(), c, w


_PHASES = np.array([1.0, -1j, -1.0, 1j])    # (-i)^k by k mod 4


def _chebyshev_propagator(frame, length: float) -> LinearOperator:
    """exp(-i length op) acting on vectors, from the frame of :func:`_chebyshev_frame`.

    The Chebyshev expansion of Tal-Ezer and Kosloff (J. Chem. Phys. 81,
    3967, 1984): exp(-i s op) = e^{-i s c} sum_k (2 - delta_k0) (-i)^k
    J_k(s w) T_k((op - c) / w).  Past k = s w the Bessel coefficients fall
    faster than geometrically; the series ends at the last k with |J_k|
    above ``CHEBYSHEV_CUT``.  The three-term recurrence T_{k+1} = 2 x T_k -
    T_{k-1} costs one sparse product per term.
    """
    doubled, c, w = frame
    x = length * w
    # |J_k(x)| < (x/2)^k / k!, far below the cut at k = 1.5 x + 50 for any x
    ks = np.arange(int(1.5 * x) + 50)
    bessel = jv(ks, x)
    n_terms = int(np.nonzero(np.abs(bessel) >= CHEBYSHEV_CUT)[0][-1]) + 1
    coef = np.exp(-1j * length * c) * _PHASES[ks[:n_terms] % 4] * bessel[:n_terms]
    coef[1:] *= 2.0

    def matvec(v):
        out = coef[0] * v
        if n_terms > 1:
            prev, cur = v, 0.5 * (doubled @ v)
            out += coef[1] * cur
            for a in coef[2:]:
                prev, cur = cur, doubled @ cur - prev
                out += a * cur
        return out

    return LinearOperator(doubled.shape, matvec=matvec, dtype=complex)


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


def top_level_population(state: FockState) -> float:
    """Largest population of the top two levels over all modes."""
    prob = np.abs(state.amplitudes) ** 2
    worst = 0.0
    for mode in range(state.n_modes):
        moved = np.moveaxis(prob, mode, 0)
        worst = max(worst, float(moved[-2:].sum()))
    return worst


@dataclass
class FockTrajectory:
    """Sampled oracle evolution with trust flags per sample."""

    times: np.ndarray
    states: list
    leaks: np.ndarray
    trusted: np.ndarray

    @property
    def trusted_until(self) -> float:
        idx = np.nonzero(self.trusted)[0]
        return float(self.times[idx[-1]]) if len(idx) else 0.0


def evolve_fock(psi0: FockState, ham: QuadraticHamiltonian, t_final: float,
                cfg: FockConfig, store_every: int = 1) -> FockTrajectory:
    """Propagate by exp(-i s H) between the stored steps of the shared step loop.

    The factors are those of :func:`~entgrowth.dynamics.step_loop`: a
    callable Hamiltonian gets one propagator per step, sampled at the step
    midpoint, while piecewise-constant data gets one exact propagator per
    piece crossed between stored samples (and one period map per whole
    period).  Each propagator is a Chebyshev series on the sparse Fock
    operator (:func:`_chebyshev_propagator`), accurate to roundoff; the
    operator is built once per piece for data, so a constant Hamiltonian
    is built once.  A run must fit the memory budget of
    :func:`check_budget`.  The norm drift is checked at every stored
    sample.  Once the top-level population exceeds the ceiling, all later
    samples are flagged untrusted; an initial state already over the
    ceiling is rejected outright.
    """
    if psi0.n_modes != cfg.n_modes or psi0.cutoff != cfg.cutoff:
        raise DimensionMismatch("state shape does not match config")
    if abs(psi0.norm - 1.0) > 1e-8:
        raise ValueError(f"initial state norm {psi0.norm} not 1")
    if top_level_population(psi0) > cfg.leak_ceiling:
        raise TruncationLeak("fock stage at t=0: initial state already exceeds the leak "
                             "ceiling; raise the cutoff")

    n_steps = step_count(t_final, cfg.dt)
    events = stored_steps(n_steps, store_every)[1:]
    check_budget(cfg.n_modes, cfg.cutoff, len(events) + 1)
    shape = psi0.amplitudes.shape
    frames = {}    # piece index -> Chebyshev frame of its Fock operator

    def propagator(length, t_mid):
        piece = ham.piece_at(t_mid)
        frame = frames.get(piece)
        if frame is None:
            frame = _chebyshev_frame(build_hamiltonian(ham, t_mid, cfg))
            if piece is not None:
                frames[piece] = frame
        return _chebyshev_propagator(frame, length)

    psi = psi0.amplitudes.ravel().copy()
    state0 = FockState(psi.reshape(shape))
    times = [0.0]
    states = [state0]
    leaks = [top_level_population(state0)]
    trusted_flags = [True]
    leaked = False

    for _, t, factors in step_loop(ham, t_final, n_steps, events, propagator):
        for u in factors:
            psi = u @ psi
        drift = abs(np.linalg.norm(psi) - 1.0)
        if drift > 1e-8 * max(t, 1.0):
            raise RuntimeError(f"fock stage at t={t:.6g}: norm drift {drift:.3g}; "
                               f"step unitary is broken")
        state = FockState(psi.reshape(shape))
        lk = top_level_population(state)
        leaked = leaked or lk > cfg.leak_ceiling
        times.append(t)
        states.append(state)
        leaks.append(lk)
        trusted_flags.append(not leaked)
    return FockTrajectory(times=np.array(times), states=states, leaks=np.array(leaks),
                          trusted=np.array(trusted_flags, dtype=bool))


def _schmidt_values(states, modes_a) -> np.ndarray:
    """Schmidt coefficients across ``modes_a`` | the other modes, one row per state.

    One batched SVD over the stack of the states' (d^|A|, d^|B|)
    coefficient matrices.
    """
    modes_a = tuple(modes_a)
    n = states[0].n_modes
    modes_b = tuple(m for m in range(n) if m not in modes_a)
    if not modes_a or not modes_b or len(set(modes_a)) != len(modes_a):
        raise ValueError(f"bad subsystem modes {modes_a} of {n}")
    d = states[0].cutoff
    stack = np.stack([state.amplitudes for state in states])
    stack = np.transpose(stack, (0,) + tuple(1 + m for m in modes_a + modes_b))
    return np.linalg.svd(stack.reshape(len(states), d ** len(modes_a), d ** len(modes_b)),
                         compute_uv=False)


def schmidt_entropies(states, modes_a):
    """Von Neumann and Renyi-2 entropies of ``modes_a``, one per pure state, as two arrays.

    Both come from the Schmidt probabilities p = s^2 of one batched SVD:
    S = -sum p ln p and S_2 = -ln sum p^2.
    """
    probs = _schmidt_values(states, modes_a) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 1e-300, probs * np.log(probs), 0.0)
    return -np.sum(terms, axis=-1), -np.log(np.sum(probs ** 2, axis=-1))


def reduced_entropy(state: FockState, modes_a) -> float:
    """Entanglement entropy of the given modes from the Schmidt spectrum."""
    return float(schmidt_entropies([state], modes_a)[0][0])


def reduced_renyi2(state: FockState, modes_a) -> float:
    """Renyi-2 entropy -ln tr rho_A^2 of the reduced state."""
    return float(schmidt_entropies([state], modes_a)[1][0])


def covariance_of(state: FockState):
    """First and second quadrature moments: returns (covariance, displacement).

    The covariance follows the symmetrized-product convention with the
    vacuum normalized to the identity.  The result is validity-checked with
    an uncertainty slack widened by the measured top-level population:
    chopping the amplitude tail can push the moments below the bound by an
    amount of the truncation size.
    """
    leak = top_level_population(state)
    xi = build_quadratures(state.n_modes, state.cutoff)
    psi = state.amplitudes.ravel()
    applied = [op @ psi for op in xi]
    dim = 2 * state.n_modes
    z = np.array([np.real(np.vdot(psi, applied[a])) for a in range(dim)])
    g = np.empty((dim, dim))
    for a in range(dim):
        for b in range(a, dim):
            g[a, b] = g[b, a] = 2.0 * np.real(np.vdot(applied[a], applied[b])) - 2.0 * z[a] * z[b]
    require_valid_covariance(g, uncertainty_slack=max(1e-9, 100.0 * leak))
    return g, z
