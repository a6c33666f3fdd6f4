"""Reference computations the tests check the package against.

No pipeline stage runs any of these.  They draw random symplectic and
covariance matrices, list the piece handovers of a Hamiltonian, check
the entropy corridor and the polar-factor spectra, evaluate the
asymptotic mutual information and the gSSA objective from formed
log-determinants, parse the builtin scenarios from their documents and
the shipped oracle config from its file, and step Fock states by
Chebyshev series on the sparse Hamiltonian, the Schrodinger reference of
the oracle's recurrence.  pytest puts ``tests/`` on
the import path, so the test modules import this one as ``reference``.
"""

import json
import math
import pathlib
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from operator import itemgetter

import numpy as np
from scipy import sparse
from scipy.fft import dct
from scipy.special import jv

import entgrowth.fock as fock

from entgrowth.config import parse_config
from entgrowth.dynamics import (
    PropagationResult,
    expm,
    polar_decompose,
    sample_times,
    step_count,
)
from entgrowth.entropy import (
    LN_E_OVER_2,
    _half_logdet_factor,
    asymptotic_entropy,
    logdet_pd,
    mode_entropy,
)
from entgrowth.errors import DimensionMismatch, NotConverged, NotPositiveDefinite, SingularM
from entgrowth.lyapunov import spectrum_from_propagation
from entgrowth.phase_space import (
    ModeCount,
    SubsystemSpec,
    _maxabs,
    covariance_factor,
    factor_spectrum,
    standard_omega,
)
from entgrowth.scenarios import scenario_document

CORRIDOR_SLACK = 1e-9   # roundoff allowance on each corridor inequality, in nats


# ---------------------------------------------------------------------------
# random draws


def random_symplectic(n_modes: int, rng, scale: float = 0.5) -> np.ndarray:
    """exp(Omega h) for a random symmetric h; exactly symplectic up to expm error."""
    dim = 2 * n_modes
    h = rng.normal(size=(dim, dim))
    h = 0.5 * scale * (h + h.T)
    return expm(standard_omega(n_modes) @ h)


def random_pd_symplectic(n_modes: int, rng, scale: float = 0.5) -> np.ndarray:
    """S S^T for random symplectic S: positive definite and symplectic."""
    s = random_symplectic(n_modes, rng, scale)
    m = s @ s.T
    return 0.5 * (m + m.T)


def random_covariance(n_modes: int, rng, scale: float = 0.5, mixed: bool = True) -> np.ndarray:
    """Valid covariance matrix S D S^T with symplectic S.

    ``mixed=True`` draws thermal symplectic eigenvalues in [1, 1+2 scale];
    otherwise D is the identity and the state is pure.
    """
    s = random_symplectic(n_modes, rng, scale)
    if mixed:
        nus = 1.0 + 2.0 * scale * rng.random(n_modes)
    else:
        nus = np.ones(n_modes)
    d = np.repeat(nus, 2)
    g = (s * d) @ s.T
    return 0.5 * (g + g.T)


def random_unstable_hamiltonian_form(n_modes: int, rng, scale: float = 0.6,
                                     min_rate: float = 0.2) -> np.ndarray:
    """Random symmetric form h whose generator Omega h has a real unstable pair."""
    omega = standard_omega(n_modes)
    for _ in range(200):
        h = rng.normal(size=(2 * n_modes, 2 * n_modes))
        h = 0.5 * scale * (h + h.T)
        eigs = np.linalg.eigvals(omega @ h)
        if np.max(eigs.real) > min_rate:
            return h
    raise RuntimeError("could not draw an unstable quadratic form")


# ---------------------------------------------------------------------------
# matrices and flows


def sqrt_pd(a) -> np.ndarray:
    """Symmetric square root of a symmetric positive definite matrix."""
    a = np.asarray(a, dtype=float)
    w, vecs = np.linalg.eigh(0.5 * (a + a.T))
    if w[0] <= 0:
        raise SingularM(f"matrix is not positive definite (min eig {w[0]:.3g})")
    root = (vecs * np.sqrt(w)) @ vecs.T
    return 0.5 * (root + root.T)


def breakpoints(ham, t_final: float) -> list:
    """Times in (0, t_final) where one piece of ``ham`` hands over to the next, ascending."""
    if ham.period is None or len(ham.pieces) < 2:
        return []
    times = []
    for n in range(int(t_final // ham.period) + 1):
        for start in ham._starts:
            b = n * ham.period + start
            if 0.0 < b < t_final:
                times.append(b)
    return times


# ---------------------------------------------------------------------------
# builtin scenarios


def default_scenario(name: str):
    """The parsed config of a builtin scenario."""
    return parse_config(json.dumps(scenario_document(name)))


SHIPPED_ORACLE_CONFIG = (pathlib.Path(__file__).resolve().parent.parent / "configs"
                         / "oracle_two_mode_squeezing.json")


def inverted_pair_exponents(kappa1=1.0, kappa2=0.8, coupling=0.2):
    """Closed-form Lyapunov exponents of the inverted pair (descending)."""
    growth = np.linalg.eigvalsh(np.array([[kappa1 ** 2, -coupling],
                                          [-coupling, kappa2 ** 2]]))
    if growth[0] <= 0:
        raise ValueError("coupling destroyed the instability")
    lam = np.sqrt(growth)[::-1]
    return np.array([lam[0], lam[1], -lam[1], -lam[0]])


# ---------------------------------------------------------------------------
# entropies


@dataclass(frozen=True)
class EntropyReport:
    """Von Neumann, Renyi-2 and asymptotic entropies of one covariance matrix."""

    s_vn: float
    s_r2: float
    s_as: float
    n_modes: int


def corridor_check(g) -> EntropyReport:
    """Compute all three entropies and verify the two-sided corridor.

    Checks s_r2 <= s_vn <= s_r2 + N ln(e/2), and the near-saturation bound
    s_as - s_vn <= (N / nu_min^2) ln(e/2): the upper corridor wall becomes
    exact when all symplectic eigenvalues are large.  A violation raises
    AssertionError.
    """
    ell = covariance_factor(g)
    nus = factor_spectrum(ell)
    n = len(nus)
    s_vn = float(np.sum(mode_entropy(nus)))
    s_r2 = float(_half_logdet_factor(ell))
    s_as = s_r2 + n * LN_E_OVER_2
    report = EntropyReport(s_vn=s_vn, s_r2=s_r2, s_as=s_as, n_modes=n)
    if not (s_r2 - CORRIDOR_SLACK <= s_vn <= s_as + CORRIDOR_SLACK):
        raise AssertionError(
            f"entropy corridor violated: S2={s_r2:.12g}, S={s_vn:.12g}, Sas={s_as:.12g}")
    nu_min = float(np.min(nus))
    if s_as - s_vn > n / nu_min ** 2 * LN_E_OVER_2 + CORRIDOR_SLACK:
        raise AssertionError(
            f"near-saturation bound violated: gap={s_as - s_vn:.12g} at nu_min={nu_min:.6g}")
    return report


def split_blocks(g, split: ModeCount):
    """A- and B-blocks of a covariance matrix under a first-modes bipartition."""
    g = np.asarray(g, dtype=float)
    if g.shape[0] != 2 * split.n_total:
        raise DimensionMismatch(f"covariance is {g.shape}, split expects {2 * split.n_total}")
    k = 2 * split.n_a
    return g[:k, :k], g[k:, k:]


def mutual_information_asymptotic(g, split: ModeCount) -> float:
    """Asymptotic-entropy mutual information on the PD cone.

    The N ln(e/2) constants cancel across the bipartition, leaving
    0.5 (ln det G_A + ln det G_B - ln det G).  Can be negative for general
    positive definite G.
    """
    g_a, g_b = split_blocks(g, split)
    return 0.5 * (logdet_pd(g_a) + logdet_pd(g_b) - logdet_pd(g))


# ---------------------------------------------------------------------------
# the gSSA objective and its stationarity condition, from formed G


@dataclass(frozen=True)
class SubsystemFamily:
    """Weighted family of form-preserving selectors.

    Each member is a pair (F_i, p_i) with F_i preserving the symplectic
    form and the weights satisfying the scaling condition
    sum_i p_i N_i = N.
    """

    members: tuple
    n_total: int

    def __post_init__(self):
        scaled = 0.0
        checked = []
        for f, p in self.members:
            if p < 0:
                raise ValueError("weights must be nonnegative")
            sub = SubsystemSpec(f)   # checks the shape and the form
            if sub.n_total != self.n_total:
                raise DimensionMismatch(
                    f"selector shape {sub.selector.shape} for {self.n_total} modes")
            scaled += p * sub.n_a
            checked.append((sub.selector, float(p)))
        if abs(scaled - self.n_total) > 1e-12 * max(1.0, self.n_total):
            raise ValueError(f"scaling condition violated: sum p_i N_i = {scaled} != {self.n_total}")
        object.__setattr__(self, "members", tuple(checked))

    @classmethod
    def transported_pair(cls, split: ModeCount, m) -> "SubsystemFamily":
        """The four-member family {A, B, A M, B M} at weight 1/2 each."""
        m = np.asarray(m, dtype=float)
        f_a = SubsystemSpec.first_modes(split.n_a, split.n_total).selector
        f_b = SubsystemSpec.modes(range(split.n_a, split.n_total), split.n_total).selector
        return cls(members=((f_a, 0.5), (f_b, 0.5), (f_a @ m, 0.5), (f_b @ m, 0.5)),
                   n_total=split.n_total)


def _inverse(a, what):
    """np.linalg.inv of ``a``; a singular ``a`` raises NotPositiveDefinite naming ``what``."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{what} is singular") from exc


def stationarity_terms(g, fam: SubsystemFamily):
    """G^{-1} and sum_i p_i F_i^T (F_i G F_i^T)^{-1} F_i, whose difference vanishes at a minimum.

    A singular or non-PD G, or a singular block F_i G F_i^T, raises
    NotPositiveDefinite.
    """
    g = np.asarray(g, dtype=float)
    g_inv = _inverse(g, "matrix")
    logdet_pd(g)  # raises NotPositiveDefinite for non-PD input
    acc = np.zeros_like(g)
    for f, p in fam.members:
        if p == 0.0:
            continue
        block = f @ g @ f.T
        acc += p * (f.T @ _inverse(0.5 * (block + block.T), "block F G F^T") @ f)
    return g_inv, acc


def stationarity_residual(g, fam: SubsystemFamily) -> float:
    """Relative residual of G^{-1} = sum_i p_i F_i^T (F_i G F_i^T)^{-1} F_i."""
    g_inv, acc = stationarity_terms(g, fam)
    return _maxabs(g_inv - acc) / _maxabs(g_inv)


def gss_objective(g, fam: SubsystemFamily) -> float:
    """S_as(G) - sum_i p_i S_as(F_i G F_i^T); the quantity the supremum runs over."""
    g = np.asarray(g, dtype=float)
    if g.shape != (2 * fam.n_total, 2 * fam.n_total):
        raise DimensionMismatch(f"matrix shape {g.shape} vs family on {fam.n_total} modes")
    total = asymptotic_entropy(g)
    for f, p in fam.members:
        if p == 0.0:
            continue
        block = f @ g @ f.T
        total -= p * asymptotic_entropy(0.5 * (block + block.T))
    return total


# ---------------------------------------------------------------------------
# polar-factor spectra


@dataclass(frozen=True)
class PolarExponentComparison:
    """Spectra of M(t), of its positive polar factor T(t), and of sqrt(T(t)).

    ``dev_t`` and ``dev_sqrt`` are the per-exponent deviations, ``tol``
    the per-exponent tolerance they are held to.
    """

    exponents_m: np.ndarray
    exponents_t: np.ndarray
    exponents_sqrt_t: np.ndarray
    dev_t: np.ndarray
    dev_sqrt: np.ndarray
    residual: float
    tol: np.ndarray

    @property
    def worst_ratio(self) -> float:
        """Largest deviation in units of its tolerance; at most 1 when the check passed."""
        return float(max(np.max(self.dev_t / self.tol), np.max(self.dev_sqrt / self.tol)))


def _exponent_resolution(exponents, t: float) -> np.ndarray:
    """Roundoff resolution of each finite-horizon exponent ln(sigma_i)/t of a 2N x 2N flow.

    A backward-stable SVD or symmetric eigensolve of an n x n matrix finds
    sigma_i to about n eps sigma_1, a relative error of n eps sigma_1 /
    sigma_i.  The polar comparison resolves sigma_i on two such paths (the
    SVD of M, the eigensolve of the formed T), and the M path also forms
    and eigensolves ln(M M^T)/(2t), adding n eps max|lambda|; ln and the
    division round within eps |lambda_i| on each path.  Together:
    n eps (2 sigma_1 / (sigma_i t) + 2 max|lambda|), with n = 2N.
    """
    lam = np.asarray(exponents, dtype=float)
    n = len(lam)
    ratio = np.exp((np.max(lam) - lam) * t)   # sigma_1 / sigma_i
    return n * np.finfo(float).eps * (2.0 * ratio / t + 2.0 * np.max(np.abs(lam)))


def polar_factor_exponents(series: PropagationResult) -> PolarExponentComparison:
    """Check lambda(T) = lambda(M) and lambda(sqrt T) = lambda(M)/2.

    The three spectra are estimated through different numerical paths (SVD
    of M, eigensolve of the polar factor, eigensolve of its square root)
    at the final horizon.  Each exponent is compared within twice the
    convergence residual or its roundoff resolution
    (:func:`_exponent_resolution`), whichever is larger.
    """
    t_star = series.t_final
    m = series.final_matrix
    data = spectrum_from_propagation(series)
    lam_m = data.raw_exponents

    t_part = polar_decompose(m).t_part
    w_t = np.sort(np.linalg.eigvalsh(t_part))[::-1]
    if w_t[-1] <= 0:
        raise SingularM("polar factor lost positivity")
    lam_t = np.log(w_t) / t_star
    lam_sqrt = np.log(np.linalg.eigvalsh(sqrt_pd(t_part))[::-1]) / t_star

    dev_t = np.abs(lam_t - lam_m)
    dev_sqrt = np.abs(lam_sqrt - lam_m / 2.0)
    tol = np.maximum(2.0 * data.residual, _exponent_resolution(lam_m, t_star))
    if np.any(dev_t > tol) or np.any(dev_sqrt > tol):
        worst = int(np.argmax(np.maximum(dev_t, dev_sqrt) / tol))
        raise NotConverged(
            f"polar-factor spectra disagree beyond tolerance at exponent {worst}: "
            f"dev(T)={dev_t[worst]:.3g}, dev(sqrt T)={dev_sqrt[worst]:.3g}, "
            f"tol={tol[worst]:.3g}")
    return PolarExponentComparison(
        exponents_m=lam_m, exponents_t=lam_t, exponents_sqrt_t=lam_sqrt,
        dev_t=dev_t, dev_sqrt=dev_sqrt, residual=data.residual, tol=tol)


# ---------------------------------------------------------------------------
# Schrodinger reference of the Fock oracle


CHEBYSHEV_CUT = 1e-17     # a series ends where |J_k| falls below this
# largest x = tau w one recurrence spans: its outputs cost samples x terms x dim,
# which grows with the square of the span
SPAN_CAP = 64.0


@dataclass(frozen=True, eq=False)
class Frame:
    """A Hermitian op as ``doubled`` = 2 (op - c) / w, for its spectrum inside [c - w, c + w].

    Frames compare by identity: segments on one frame share one recurrence.
    """

    doubled: "sparse.csr_matrix"
    c: float
    w: float


def chebyshev_frame(op) -> Frame:
    """The frame of a Hermitian ``op`` from the union of its Gershgorin discs."""
    diag = op.diagonal()
    radius = np.asarray(abs(op).sum(axis=1)).ravel() - np.abs(diag)
    low, high = float(np.min(diag.real - radius)), float(np.max(diag.real + radius))
    c, w = 0.5 * (high + low), 0.5 * (high - low)
    # w = 0 means op = c, and the series has one term; a subnormal w, whose
    # 2 / w overflows, is op = c to within w and is taken as 0 too
    scale = 2.0 / w if w > 0.0 else 0.0
    if not math.isfinite(scale):
        scale = w = 0.0
    return Frame(((op - c * sparse.identity(op.shape[0], format="csr")) * scale).tocsr(), c, w)


@lru_cache(maxsize=64)
def term_count(x: float) -> int:
    """Terms of the series at x = tau w: up to the last k with |J_k(x)| above ``CHEBYSHEV_CUT``.

    Cached: each J_k call costs a few microseconds at these orders.
    """
    # |J_k(x)| < (x/2)^k / k!, far below the cut at k = 1.5 x + 50 for any x
    ks = np.arange(int(1.5 * x) + 50)
    return int(np.nonzero(np.abs(jv(ks, x)) >= CHEBYSHEV_CUT)[0][-1]) + 1


def chebyshev_coefficients(xs, n_terms: int) -> np.ndarray:
    """(2 - delta_k0) (-i)^k J_k(x) for k < ``n_terms``, one row per x of ``xs``.

    By Jacobi-Anger, exp(-i x cos theta) = sum_k (2 - delta_k0) (-i)^k
    J_k(x) cos(k theta), so one DCT-I of its samples at the N + 1
    Chebyshev-Lobatto angles theta_n = pi n / N gives every row.  Each
    coefficient picks up aliases of index 2N - k and above; with N =
    ``n_terms`` they lie below the cut for every x up to the one that set
    ``n_terms``, since J_k(x) grows with x for k >= x.
    """
    theta = np.pi * np.arange(n_terms + 1) / n_terms
    coef = dct(np.exp(-1j * np.multiply.outer(xs, np.cos(theta))), type=1, axis=-1)[..., :n_terms]
    coef /= n_terms
    coef[..., 0] *= 0.5
    return coef


def chebyshev_series(frame: Frame, psi, taus, out) -> None:
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
    n_terms = term_count(xs[-1])
    vecs = np.empty((n_terms, psi.size), dtype=complex)
    vecs[0] = psi
    if n_terms > 1:
        vecs[1] = 0.5 * (frame.doubled @ psi)
        for k in range(2, n_terms):
            np.subtract(frame.doubled @ vecs[k - 1], vecs[k - 2], out=vecs[k])
    coef = chebyshev_coefficients(xs, n_terms) * np.exp(-1j * frame.c * np.asarray(taus))[:, None]
    np.matmul(coef, vecs, out=out)


def chebyshev_states(frame: Frame, psi, lengths, stored, out):
    """Write exp(-i tau_j op) psi to ``out`` at each partial sum tau_j of ``lengths`` that
    ``stored`` flags, one row each in order, and return the state at the last sum.

    One recurrence (:func:`chebyshev_series`) serves every tau_j within
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
            chebyshev_series(frame, psi, offsets / parts, block)
            psi = block[-1]
        out[count:count + len(rows)] = block[:len(rows)]
        count += len(rows)
        start = stop
    return psi


def chebyshev_evolve(psi0, ham, t_final: float, dt: float, store_every: int = 1):
    """(times, amplitudes): exp(-i s H) psi0 under piece data ``ham`` at the stored times.

    The independent Schrodinger evolution the oracle's recurrence is held
    to, on the sparse truncated Hamiltonian (:func:`entgrowth.fock.build_hamiltonian`).
    Its segments are its own, not the package's step loop's: the run is
    cut at the stored times and at the piece handovers of
    :func:`breakpoints`, and a handover within 1e-9 steps of a stored time
    is merged into that time, so no segment is empty.  The operator is
    built once per piece, so a constant Hamiltonian is built once.
    Consecutive segments on one operator share one Chebyshev recurrence
    (:func:`chebyshev_states`), accurate to roundoff.  Stored states are
    copied out of their block into one stack on the times of
    ``propagate``, whose norm drift is checked once, failing at the
    earliest stored time.
    """
    if not ham.pieces:
        raise ValueError("the Chebyshev reference steps piecewise-constant data alone")
    times = sample_times(t_final, dt, store_every)
    snap = 1e-9 * t_final / step_count(t_final, dt)
    handovers = [b for b in breakpoints(ham, t_final) if np.min(np.abs(times - b)) > snap]
    cuts = sorted([(t, True) for t in times[1:]] + [(b, False) for b in handovers])
    frames = {}    # piece index -> Chebyshev frame of its Fock operator

    def frame_at(t_mid):
        piece = ham.piece_at(t_mid)
        if piece not in frames:
            frames[piece] = chebyshev_frame(fock.build_hamiltonian(ham, t_mid, psi0.cutoff))
        return frames[piece]

    # (frame, length, stored): every segment in order
    segments = [(frame_at(0.5 * (a + b)), b - a, stored)
                for a, (b, stored) in zip([0.0] + [t for t, _ in cuts], cuts)]

    amplitudes = np.empty(times.shape + psi0.amplitudes.shape, dtype=complex)
    rows = amplitudes.reshape(len(times), -1)    # a view: its rows are the stack's states
    rows[0] = psi0.amplitudes.ravel()
    psi, count = rows[0], 1
    for frame, group in groupby(segments, key=itemgetter(0)):
        _, lengths, stored = zip(*group)
        psi = chebyshev_states(frame, psi, lengths, stored, rows[count:])
        count += sum(stored)

    flat = rows.view(float)
    drift = np.abs(np.sqrt(np.einsum("ij,ij->i", flat, flat)) - 1.0)
    bad = np.nonzero(drift > 1e-8 * np.maximum(times, 1.0))[0]
    if len(bad):
        i = bad[0]
        raise RuntimeError(f"chebyshev reference at t={times[i]:.6g}: norm drift {drift[i]:.3g}; "
                           f"step unitary is broken")
    return times, amplitudes
