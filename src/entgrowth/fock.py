"""Truncated-number-basis oracle for any number of modes.

This is the independent cross-check of the non-Gaussian half of the claims:
for an arbitrary pure initial state (Fock, coherent, cat, superpositions)
it forms the amplitudes of U(t) psi0 on the truncated number basis and
measures true reduced entropies from Schmidt coefficients.

Projection of U(t) psi0.  For a quadratic H, U(t) is the Gaussian unitary
of the flow M(t) that the propagation stage stores: U^dag a U = alpha a +
beta a^dag, with alpha and beta the complex (a, a^dag) blocks of M(t)
(:func:`_ladder_blocks`).  U|0> is the Gaussian state whose amplitudes obey
the recurrence (Miatto and Quesada, Quantum 4, 366, 2020)

    sqrt(n_i + 1) psi(n + e_i) = b_i psi(n) + sum_j B_ij sqrt(n_j) psi(n - e_j)

with B = beta conj(alpha)^-1, b = 0 and |<0|U|0>| = |det alpha|^(-1/2),
formed for all samples at once (:func:`_gaussian_amplitudes`).  A sum of
number states, sum_n c_n |n>, maps to sum_n c_n prod_i X_i^n_i / sqrt(n_i!)
U|0> in the images X_i = U a_i^dag U^dag.  Since a U|0> = B a^dag U|0>,
that is a polynomial in a^dag applied to U|0>, which reads only the levels
below each amplitude, so the projection needs no level above the ones it
forms (:func:`_number_sum`).  A sum of coherent states sum_k c_k |gamma_k>
maps to sum_k c_k D(gamma_k(t)) U|0>, with gamma_k(t) = alpha gamma_k +
beta conj(gamma_k) and the same recurrence with b = gamma_k(t) - B
conj(gamma_k(t)).  Every term shares U|0>, so the relative phases are
exact and only the global phase of each sample is left open.  There is no
time step, no operator and no series.

Levels and trust rule.  The projection is formed on the state's cutoff +
``MARGIN`` levels per mode, and the rows read it normalized.  Once the
population of levels cutoff - 2 and cutoff - 1 in any mode exceeds the
leak ceiling, that sample and all later ones are flagged untrusted rather
than silently kept; unstable dynamics leaves any fixed cutoff eventually,
so honest windows beat adaptive cutoff growth.  The margin is what keeps
the entropies of trusted rows close: a normalized projection drops the
-p ln p of the weight it loses, so on the cutoff's own levels its entropy
errs more than a state stepped under the truncated Hamiltonian (2 to 14
times, on trusted rows at cutoff 14), and four levels more bring it below
the stepped state's error.  The weight lost above the levels, 1 - |P psi|^2, is exact at every
sample.  The projection of a unit vector has |P psi|^2 <= 1, and a sample
above 1 + ``NORM_SLACK`` fails the run.

Size policy, owned by :func:`check_size` alone: a cutoff of at least 4, and
a run's stored amplitudes with the working tensors and polynomials that
form them must fit ``MEMORY_BUDGET`` bytes, with no cap on the modes or the
dimension.  The count covers a number state of any occupation the cutoff
admits: one whose polynomials outgrow the room beside the stack forms its
samples in chunks.  Its run time grows with the occupation all the same
(see :func:`_number_sum`).  The config parser runs the check with the
run's sample count before it builds the state, and :func:`evolve_fock`
runs it once more.  The state owns its shape; :class:`FockConfig` holds
only the sample grid's step and the leak ceiling.

No pipeline stage calls :func:`build_hamiltonian` (the sparse truncated
Hamiltonian) or the reduced entropies of one state.  ``scipy.sparse`` is
imported by the functions that build sparse operators, on first use, so an
oracle run loads no SciPy module.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dynamics import QuadraticHamiltonian, sample_count, sample_times, step_count
from .errors import DimensionMismatch, TruncationLeak
from .phase_space import williamson_spectrum


MEMORY_BUDGET = 2 ** 27   # bytes: the stored amplitudes and the working tensors, 128 MiB
MARGIN = 4                # levels per mode the oracle resolves above the state's cutoff
# amplitude tensors a run holds per sample: the stack it returns, U|0> (or one
# coherent term's state) and one monomial's product
TENSORS = 3
BLOCKS = 8                # complex N x N blocks of M(t) a run holds per sample
LEAK_CEILING = 1e-6       # default ceiling on the population of levels cutoff - 2, cutoff - 1
NORM_SLACK = 1e-12        # roundoff allowed above |P psi|^2 = 1


def _horner_size(n_modes: int, degree: int) -> int:
    """Coefficients one sample's Horner polynomials of ``degree`` hold at once: n_modes + 4 of
    them (one per level of the nesting, and an image with its temporaries), (degree + 1)^N each."""
    return (n_modes + 4) * (degree + 1) ** n_modes


def _run_bytes(n_modes: int, cutoff: int, n_samples: int) -> int:
    """The bytes :func:`check_size` counts for a run (see there)."""
    return 16 * (n_samples * (TENSORS * (cutoff + MARGIN) ** n_modes + BLOCKS * n_modes ** 2)
                 + _horner_size(n_modes, n_modes * (cutoff - 1)))


def check_size(n_modes: int, cutoff: int, n_samples: int) -> None:
    """Raise ValueError for a cutoff below 4 or a run of ``n_samples`` over ``MEMORY_BUDGET``.

    A run holds, per sample, ``TENSORS`` tensors of (cutoff + ``MARGIN``)^N
    16-byte complex amplitudes and ``BLOCKS`` complex N x N blocks, and
    beside them the Horner polynomials of one sample at the largest total
    occupation a state of the cutoff has, N (cutoff - 1).  A number state
    whose polynomials outgrow that room forms its samples in chunks that
    fit it.
    """
    if cutoff < 4:
        raise ValueError("cutoff must be at least 4")
    dim, need = (cutoff + MARGIN) ** n_modes, _run_bytes(n_modes, cutoff, n_samples)
    if need > MEMORY_BUDGET:
        raise ValueError(f"{n_samples} stored samples at dimension {dim} need "
                         f"{need / 2 ** 20:.4g} MiB, above the {MEMORY_BUDGET / 2 ** 20:g} MiB "
                         f"memory budget")


@dataclass(frozen=True)
class FockConfig:
    """The sample grid's step and the leak ceiling; the state carries its modes and cutoff."""

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


@dataclass(frozen=True)
class FockState:
    """Complex amplitude tensor over the truncated number basis.

    A state built by :meth:`coherent` or :meth:`cat` also keeps its exact
    terms, pairs (c_k, gamma_k) of sum_k c_k |gamma_k>, of which the
    amplitudes are the truncation; the oracle maps the terms.  Any other
    state is mapped from its amplitudes, as the sum of c_n |n>.
    """

    amplitudes: np.ndarray
    _terms: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim < 1:
            raise DimensionMismatch("amplitude tensor must have at least 1 axis")
        if len(set(amp.shape)) != 1:
            raise DimensionMismatch("all modes must share one cutoff")
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def _of_terms(cls, amplitudes, terms) -> "FockState":
        state = cls(amplitudes)
        object.__setattr__(state, "_terms", terms)
        return state

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
        # the terms of a coherent or cat state are already the exact unit state
        return FockState._of_terms(self.amplitudes / self.norm, self._terms)

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
        alphas = np.atleast_1d(alphas)
        vecs = []
        for alpha in alphas:
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
        return cls._of_terms(amp / np.linalg.norm(amp), ((1.0, alphas.astype(complex)),))

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
        gamma = np.zeros(n_modes, dtype=complex)
        gamma[mode] = alpha
        # <alpha|-alpha> = exp(-2 |alpha|^2)
        c = 1.0 / math.sqrt(2.0 + 2.0 * math.exp(-2.0 * abs(alpha) ** 2))
        return cls._of_terms(amp, ((c, gamma), (c, -gamma)))


def top_level_population(amplitudes, cutoff=None):
    """Largest population of levels cutoff - 2 and cutoff - 1 over all modes, for each state
    of a stack; by default the stack's own top two levels."""
    top = amplitudes.shape[1] if cutoff is None else cutoff
    axes = tuple(range(1, amplitudes.ndim))
    return np.max([np.sum(np.abs(np.moveaxis(amplitudes, axis, 1)[:, top - 2:top]) ** 2,
                          axis=axes) for axis in axes], axis=0)


def _ladder_blocks(mats):
    """(alpha, beta) with U^dag a U = alpha a + beta a^dag, for each M(t) of a stack.

    M acts on (q1, p1, ..., qN, pN) with U^dag xi U = M xi; substituting
    a = (q + i p) / sqrt(2) gives, per mode pair (i, j), alpha_ij = (M_qq +
    M_pp + i (M_pq - M_qp)) / 2 and beta_ij = (M_qq - M_pp + i (M_pq +
    M_qp)) / 2.
    """
    qq, qp = mats[..., 0::2, 0::2], mats[..., 0::2, 1::2]
    pq, pp = mats[..., 1::2, 0::2], mats[..., 1::2, 1::2]
    return 0.5 * ((qq + pp) + 1j * (pq - qp)), 0.5 * ((qq - pp) + 1j * (pq + qp))


def _shifts(axis, levels, ndim):
    """(lo, hi, counts): index tuples of the levels below the top and above the bottom on
    ``axis`` of an ``ndim`` tensor, and 1 .. levels - 1 shaped along that axis."""
    lead = (slice(None),) * axis
    shape = [1] * ndim
    shape[axis] = levels - 1
    return (lead + (slice(None, -1),), lead + (slice(1, None),),
            np.arange(1.0, levels).reshape(shape))


def _ladder(psi, axis, up):
    """a^dag (``up``) or a on ``axis`` of a tensor, on its levels: a^dag drops what it
    raises past the top level, and a leaves the top level empty."""
    out = np.zeros_like(psi)
    lo, hi, counts = _shifts(axis, psi.shape[axis], psi.ndim)
    if up:
        np.multiply(np.sqrt(counts), psi[lo], out=out[hi])
    else:
        np.multiply(np.sqrt(counts), psi[hi], out=out[lo])
    return out


def _gaussian_amplitudes(b, bmat, c0, levels):
    """Amplitudes of c0 exp(b . a^dag + a^dag B a^dag / 2)|0> on ``levels`` per mode, per sample.

    ``b`` (samples, N), or None for 0, ``bmat`` (samples, N, N) and ``c0``
    (samples,).  Mode i's sweep fills the amplitudes whose later modes are
    empty, one level k + 1 of mode i at a time, by the recurrence divided
    by sqrt(k + 1), with the earlier modes' levels as one vectorized axis
    each; its B_ij sqrt(n_j) psi(n - e_j) terms for j < i are shifts along
    those axes.
    """
    n_samples, n = bmat.shape[:2]
    psi = np.zeros((n_samples,) + (levels,) * n, dtype=complex)
    psi.reshape(n_samples, -1)[:, 0] = c0
    # sqrt(k / (k + 1)) and 1 / sqrt(k + 1) for the step from level k
    ks = np.arange(levels - 1.0)
    down, over = np.sqrt(ks / (ks + 1.0)), 1.0 / np.sqrt(ks + 1.0)
    for i in range(n):
        # the amplitudes with modes past i empty; mode i is the last axis
        face = psi[(slice(None),) * (i + 2) + (0,) * (n - 1 - i)]
        shape = (n_samples,) + (1,) * i
        diag = bmat[:, i, i].reshape(shape)
        lin = None if b is None else b[:, i].reshape(shape)
        cross = []
        for j in range(i):
            lo, hi, counts = _shifts(j + 1, levels, i + 1)
            cross.append((lo, hi, bmat[:, i, j].reshape(shape) * np.sqrt(counts)))
        for k in range(levels - 1):
            here, nxt = face[..., k], face[..., k + 1]
            if k:
                np.multiply(down[k] * diag, face[..., k - 1], out=nxt)
            if lin is not None:
                nxt += (over[k] * lin) * here
            for lo, hi, coef in cross:
                nxt[hi] += (over[k] * coef) * here[lo]
    return psi


def _image_polynomial(poly, lift, beta, i, scale):
    """The polynomial ``scale`` X_i g of a polynomial g, for the states g(a^dag) U|0>, per sample.

    ``poly`` holds the coefficients of the monomials x^m, one axis per
    mode after the samples.  X_i = U a_i^dag U^dag = sum_j alpha_ji a_j^dag
    - conj(beta_ji) a_j, since U a U^dag = alpha^dag a - beta^T a^dag
    inverts the map of :func:`_ladder_blocks`.  On g(a^dag) U|0>, a_j acts as
    d/dx_j + (B x)_j, because a U|0> = B a^dag U|0>; so X_i g = sum_m R_mi
    x_m g - sum_j conj(beta_ji) dg/dx_j, with ``lift`` R = alpha - B conj(beta).
    """
    shape = (len(poly),) + (1,) * (poly.ndim - 1)
    out = np.zeros_like(poly)
    for m in range(poly.ndim - 1):
        lo, hi, counts = _shifts(m + 1, poly.shape[m + 1], poly.ndim)
        out[hi] += (scale * lift[:, m, i]).reshape(shape) * poly[lo]
        out[lo] -= (scale * beta[:, m, i].conj()).reshape(shape) * (counts * poly[hi])
    return out


def _number_sum(coef, vacuum, alpha, beta, bmat, out) -> None:
    """Add sum_n coef[n] prod_i X_i^n_i / sqrt(n_i!) U|0> to ``out``, per sample, from
    ``vacuum`` = U|0>.

    The sum is g(a^dag) U|0> for a polynomial g of degree D, the state's
    largest total occupation, whose coefficients (per sample) follow by
    Horner's rule in each mode in turn, sum_k c_k X^k / sqrt(k!) = c_0 + X
    (c_1 + X (c_2 + ...) / sqrt(2)) / sqrt(1), each c_k the sum over the
    later modes (:func:`_image_polynomial`; the X_i commute).  Each monomial
    x^m with every m_i below the levels then enters as (a^dag)^m U|0>,
    sqrt(n! / (n - m)!) psi(n - m), which reads only lower levels: the sum
    is exact on the levels with none above them.  Per sample it holds
    :func:`_horner_size` coefficients, and its time grows as D times those
    plus the monomials, at most min(D + 1, levels)^N, times the levels^N
    amplitudes.
    """
    n_samples, n, levels = len(vacuum), coef.ndim, vacuum.shape[1]
    degree = int(np.argwhere(coef).sum(axis=1).max())
    lift = alpha - bmat @ beta.conj()

    def horner(c, mode):
        if mode == n:
            poly = np.zeros((n_samples,) + (degree + 1,) * n, dtype=complex)
            poly.reshape(n_samples, -1)[:, 0] = c
            return poly
        occupied = np.flatnonzero(c.reshape(len(c), -1).any(axis=1))
        poly = horner(c[occupied[-1]], mode + 1)
        for k in range(occupied[-1] - 1, -1, -1):
            poly = _image_polynomial(poly, lift, beta, mode, 1.0 / math.sqrt(k + 1))
            if c[k].any():
                poly += horner(c[k], mode + 1)
        return poly

    poly = horner(coef, 0)
    kept = poly[(slice(None),) + (slice(levels),) * n]
    monomials = np.argwhere(np.any(kept, axis=0))
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, levels)))))
    buffer = np.empty_like(vacuum)
    for m in monomials:
        # the product of every monomial shares one buffer and takes its weights in place
        factor = kept[(slice(None),) + tuple(m)].reshape((n_samples,) + (1,) * n)
        target = out[(slice(None),) + tuple(slice(mi, None) for mi in m)]
        product = buffer[(slice(None),) + tuple(slice(mi, None) for mi in m)]
        np.multiply(factor, vacuum[(slice(None),) + tuple(slice(levels - mi) for mi in m)],
                    out=product)
        for axis, mi in enumerate(m, 1):
            if mi:
                # sqrt(n! / (n - m_i)!) on the levels n >= m_i
                root = np.exp(0.5 * (log_factorial[mi:] - log_factorial[:levels - mi]))
                product *= root.reshape((-1,) + (1,) * (n - axis))
        np.add(target, product, out=target)


def _projection(psi0: FockState, alpha, beta, levels: int) -> np.ndarray:
    """P U(t) psi0 on ``levels`` per mode, one tensor per sample of (alpha, beta)."""
    n_samples, n = len(alpha), psi0.n_modes
    # B = beta conj(alpha)^-1, solved as conj(alpha)^T B^T = beta^T (B is symmetric)
    bmat = np.linalg.solve(np.swapaxes(alpha.conj(), -1, -2), np.swapaxes(beta, -1, -2))
    bmat = np.swapaxes(bmat, -1, -2)
    vacuum = np.exp(-0.5 * np.linalg.slogdet(alpha)[1]).astype(complex)
    out = np.zeros((n_samples,) + (levels,) * n, dtype=complex)
    if psi0._terms:
        for c, gamma0 in psi0._terms:
            gamma = alpha @ gamma0 + beta @ gamma0.conj()
            b = gamma - np.einsum("sij,sj->si", bmat, gamma.conj())
            # <0|D(gamma) U|0> = <-gamma|U|0>
            weight = np.exp(-0.5 * np.sum(np.abs(gamma) ** 2, axis=-1)
                            + 0.5 * np.einsum("si,sij,sj->s", gamma.conj(), bmat, gamma.conj()))
            out += _gaussian_amplitudes(b, bmat, c * vacuum * weight, levels)
        return out
    # a chunk's samples hold U|0>, one monomial's product and their Horner
    # polynomials, in the room check_size keeps beside the stack: at least one
    degree = int(np.argwhere(psi0.amplitudes).sum(axis=1).max())
    dim = levels ** n
    room = (TENSORS - 1) * n_samples * dim + _horner_size(n, n * (psi0.cutoff - 1))
    step = room // (2 * dim + _horner_size(n, degree))
    for start in range(0, n_samples, step):
        part = slice(start, start + step)
        _number_sum(psi0.amplitudes, _gaussian_amplitudes(None, bmat[part], vacuum[part], levels),
                    alpha[part], beta[part], bmat[part], out[part])
    return out


@dataclass
class FockTrajectory:
    """Oracle samples: one stack of normalized ``amplitudes`` on cutoff + ``MARGIN`` levels per
    mode at the ``times`` of ``propagate``, the weight each lost above those levels, trust flags."""

    times: np.ndarray
    amplitudes: np.ndarray
    leaks: np.ndarray
    trusted: np.ndarray
    lost: np.ndarray

    @property
    def trusted_until(self) -> float:
        idx = np.nonzero(self.trusted)[0]
        return float(self.times[idx[-1]]) if len(idx) else 0.0


def evolve_fock(psi0: FockState, matrices, t_final: float, cfg: FockConfig,
                store_every: int = 1) -> FockTrajectory:
    """The normalized projection of U(t) psi0 at each stored flow matrix M(t) of ``matrices``.

    ``matrices`` are the flow on the grid of ``propagate(ham, t_final,
    cfg.dt, store_every)``, which the trajectory's times equal bit for bit.
    Each sample is formed from its own M(t) by the recurrence (see the
    module docstring) on the state's cutoff + ``MARGIN`` levels per mode;
    nothing is stepped.  A run must pass :func:`check_size`.  A sample whose
    projection has squared norm above 1 + ``NORM_SLACK`` fails at the
    earliest such time; the lost weight 1 - |P psi|^2 of each sample is
    kept.  Once the population of levels cutoff - 2 and cutoff - 1 of the
    normalized projection exceeds the ceiling, all later samples are
    flagged untrusted; an initial state already over the ceiling is
    rejected outright.
    """
    mats = np.asarray(matrices, dtype=float)
    if mats.ndim != 3 or mats.shape[1:] != (2 * psi0.n_modes,) * 2:
        raise DimensionMismatch(f"flow acts on {mats.shape[-1] // 2} modes, the state has "
                                f"{psi0.n_modes}")
    n_samples = sample_count(step_count(t_final, cfg.dt), store_every)
    if len(mats) != n_samples:
        raise DimensionMismatch(f"{len(mats)} flow matrices for {n_samples} sample times")
    if abs(psi0.norm - 1.0) > 1e-8:
        raise ValueError(f"initial state norm {psi0.norm} not 1")
    if top_level_population(psi0.amplitudes[None])[0] > cfg.leak_ceiling:
        raise TruncationLeak("fock stage at t=0: initial state already exceeds the leak "
                             "ceiling; raise the cutoff")
    check_size(psi0.n_modes, psi0.cutoff, n_samples)
    times = sample_times(t_final, cfg.dt, store_every)

    amplitudes = _projection(psi0, *_ladder_blocks(mats), psi0.cutoff + MARGIN)
    # squared norms from the real view: no copy of the stack
    flat = amplitudes.reshape(n_samples, -1).view(float)
    norm2 = np.einsum("ij,ij->i", flat, flat)
    bad = np.flatnonzero(norm2 > 1.0 + NORM_SLACK)
    if len(bad):
        i = bad[0]
        raise RuntimeError(f"fock stage at t={times[i]:.6g}: projection norm^2 exceeds 1 by "
                           f"{norm2[i] - 1.0:.3g}; M(t) is not symplectic")
    amplitudes /= np.sqrt(norm2).reshape((n_samples,) + (1,) * psi0.n_modes)
    leaks = top_level_population(amplitudes, psi0.cutoff)
    return FockTrajectory(times=times, amplitudes=amplitudes, leaks=leaks,
                          trusted=~np.logical_or.accumulate(leaks > cfg.leak_ceiling),
                          lost=1.0 - norm2)


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
    vacuum normalized to the identity.  q psi and p psi come from ladder
    shifts of the amplitude tensor, with the truncated a and a^dag.  The
    result is validity-checked with an uncertainty slack widened by the
    measured top-level population: chopping the amplitude tail can push the
    moments below the bound by an amount of the truncation size.
    """
    leak = top_level_population(state.amplitudes[None])[0]
    psi = state.amplitudes
    applied = []
    for mode in range(state.n_modes):
        lower, upper = _ladder(psi, mode, False), _ladder(psi, mode, True)
        applied += [(lower + upper) / np.sqrt(2.0), (lower - upper) / (1j * np.sqrt(2.0))]
    dim = 2 * state.n_modes
    z = np.array([np.real(np.vdot(psi, applied[a])) for a in range(dim)])
    g = np.empty((dim, dim))
    for a in range(dim):
        for b in range(a, dim):
            g[a, b] = g[b, a] = 2.0 * np.real(np.vdot(applied[a], applied[b])) - 2.0 * z[a] * z[b]
    williamson_spectrum(g, uncertainty_slack=max(1e-9, 100.0 * leak))
    return g, z
