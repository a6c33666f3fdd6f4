"""Brute-force truncated-number-basis simulator for one to three modes.

This is the independent cross-check for everything the Gaussian pipeline
claims: it evolves arbitrary pure states (Fock, coherent, cat,
superpositions) under the same quadratic Hamiltonians by dense unitary
steps and measures true reduced entropies from Schmidt coefficients.

Truncation policy: a hard ceiling on the population of the top two levels
of any mode.  Once exceeded, later samples are marked untrusted rather
than silently kept; unstable dynamics leaves any fixed cutoff eventually,
so honest windows beat adaptive cutoff growth.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import QuadraticHamiltonian, step_count, step_loop, stored_steps
from .errors import DimensionMismatch, TruncationLeak
from .phase_space import require_valid_covariance


MAX_DIM = 4096   # largest truncated dimension, cutoff ** n_modes


@dataclass(frozen=True)
class FockConfig:
    """Truncation and stepping parameters of the oracle."""

    n_modes: int
    cutoff: int
    dt: float
    leak_ceiling: float = 1e-6

    def __post_init__(self):
        if not 1 <= self.n_modes <= 3:
            raise ValueError("oracle supports 1 to 3 modes")
        if self.cutoff < 4:
            raise ValueError("cutoff must be at least 4")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.dim > MAX_DIM:
            raise ValueError(f"total dimension {self.dim} exceeds bound {MAX_DIM}")

    @property
    def dim(self) -> int:
        return self.cutoff ** self.n_modes


def build_quadratures(n_modes: int, cutoff: int):
    """Full-space quadrature operators in (q1, p1, ..., qN, pN) order.

    On the truncated ladder [q_i, p_i] = i only away from the top level;
    the commutator defect lives entirely in the highest occupation block.
    """
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), k=1)
    q = (a + a.T) / np.sqrt(2.0)
    p = (a - a.T) / (1j * np.sqrt(2.0))
    eye = np.eye(cutoff)
    ops = []
    for mode in range(n_modes):
        for local in (q, p):
            factors = [eye] * n_modes
            factors[mode] = local
            full = factors[0]
            for fac in factors[1:]:
                full = np.kron(full, fac)
            ops.append(full)
    return ops


def build_hamiltonian(ham: QuadraticHamiltonian, t: float, cfg: FockConfig) -> np.ndarray:
    """Dense Hermitian operator (1/4) h_ab (xi^a xi^b + xi^b xi^a).

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
    dim = cfg.dim
    op = np.zeros((dim, dim), dtype=complex)
    for a in range(2 * cfg.n_modes):
        row = h[a]
        if not np.any(row):
            continue
        acc = np.zeros((dim, dim), dtype=complex)
        for b in range(2 * cfg.n_modes):
            if row[b] != 0.0:
                acc += row[b] * xi[b]
        op += 0.5 * (xi[a] @ acc)
    return 0.5 * (op + op.conj().T)


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
    def coherent(cls, alphas, cutoff: int, tail_tol: float = 1e-8) -> "FockState":
        """Product of coherent states, one amplitude per mode."""
        vecs = []
        for alpha in np.atleast_1d(alphas):
            n = np.arange(cutoff)
            log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, cutoff)))])
            vec = np.exp(-0.5 * abs(alpha) ** 2) * alpha ** n / np.exp(0.5 * log_fact)
            tail = 1.0 - float(np.linalg.norm(vec) ** 2)
            if tail > tail_tol:
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
    """Propagate by unitaries exp(-i s H) between the stored steps of the shared step loop.

    The factors are those of :func:`~entgrowth.dynamics.step_loop`: a
    callable Hamiltonian gets one unitary per step, sampled at the step
    midpoint, while piecewise-constant data gets one exact unitary per
    piece crossed between stored samples (and one period unitary per whole
    period).  Each unitary comes from an eigendecomposition of the
    Hermitian Fock operator, made once per piece for data, so unitarity
    holds to roundoff and a constant Hamiltonian needs one ``eigh``.  The
    norm drift is checked at every stored sample.  Once the top-level
    population exceeds the ceiling, all later samples are flagged
    untrusted; an initial state already over the ceiling is rejected
    outright.
    """
    if psi0.n_modes != cfg.n_modes or psi0.cutoff != cfg.cutoff:
        raise DimensionMismatch("state shape does not match config")
    if abs(psi0.norm - 1.0) > 1e-8:
        raise ValueError(f"initial state norm {psi0.norm} not 1")
    if top_level_population(psi0) > cfg.leak_ceiling:
        raise TruncationLeak("fock stage at t=0: initial state already exceeds the leak "
                             "ceiling; raise the cutoff")

    n_steps = step_count(t_final, cfg.dt)
    shape = psi0.amplitudes.shape
    eigs = {}    # piece index -> eigendecomposition of its Fock operator

    def step_unitary(length, t_mid):
        piece = ham.piece_at(t_mid)
        eig = eigs.get(piece)
        if eig is None:
            eig = np.linalg.eigh(build_hamiltonian(ham, t_mid, cfg))
            if piece is not None:
                eigs[piece] = eig
        evals, evecs = eig
        return (evecs * np.exp(-1j * length * evals)) @ evecs.conj().T

    psi = psi0.amplitudes.ravel().copy()
    state0 = FockState(psi.reshape(shape))
    times = [0.0]
    states = [state0]
    leaks = [top_level_population(state0)]
    trusted_flags = [True]
    leaked = False

    events = stored_steps(n_steps, store_every)[1:]
    for _, t, factors in step_loop(ham, t_final, n_steps, events, step_unitary):
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


def _schmidt_values(state: FockState, modes_a):
    modes_a = tuple(modes_a)
    n = state.n_modes
    modes_b = tuple(m for m in range(n) if m not in modes_a)
    if not modes_a or not modes_b or len(set(modes_a)) != len(modes_a):
        raise ValueError(f"bad subsystem modes {modes_a} of {n}")
    perm = modes_a + modes_b
    tensor = np.transpose(state.amplitudes, perm)
    d = state.cutoff
    return np.linalg.svd(tensor.reshape(d ** len(modes_a), d ** len(modes_b)),
                         compute_uv=False)


def reduced_entropy(state: FockState, modes_a) -> float:
    """Entanglement entropy of the given modes from the Schmidt spectrum."""
    sv = _schmidt_values(state, modes_a)
    probs = sv ** 2
    probs = probs[probs > 1e-300]
    return float(-np.sum(probs * np.log(probs)))


def reduced_renyi2(state: FockState, modes_a) -> float:
    """Renyi-2 entropy -ln tr rho_A^2 of the reduced state."""
    sv = _schmidt_values(state, modes_a)
    return float(-np.log(np.sum(sv ** 4)))


def covariance_of(state: FockState, leak_ceiling: Optional[float] = None):
    """First and second quadrature moments: returns (covariance, displacement).

    The covariance follows the symmetrized-product convention with the
    vacuum normalized to the identity.  The result is validity-checked with
    an uncertainty slack widened by the measured top-level population:
    chopping the amplitude tail can push the moments below the bound by an
    amount of the truncation size.
    """
    leak = top_level_population(state)
    if leak_ceiling is not None and leak > leak_ceiling:
        raise TruncationLeak("top-level population above ceiling; moments untrusted")
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
