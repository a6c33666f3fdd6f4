"""Phase-space conventions, covariance-matrix checks, and subsystem restriction.

Conventions used everywhere in this package:

* quadrature basis order is (q1, p1, ..., qN, pN);
* hbar = 1 and the vacuum covariance matrix is the identity;
* the symplectic form is block diagonal with 2x2 blocks [[0, 1], [-1, 0]].

Covariance matrices are plain ``numpy`` arrays; the one validity check,
``williamson_spectrum``, returns the symplectic eigenvalues that all
entropy formulas consume; callers that read its factor L run its two steps.

The per-sample functions here and in ``entropy``, ``dynamics``, ``ssa``
and ``subsystem`` take one (d, d) matrix or an (n, d, d) stack of them and
work on the last two axes with numpy's stacked ``linalg`` and ``matmul``,
which run the same LAPACK/BLAS kernel per matrix: sample i of a stacked
result equals the call on sample i alone, bit for bit.  A stack fails the
way a loop over its samples fails: at the earliest failing sample and,
within it, at the first failing check, with an error that carries the
sample's ``index``.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotDarboux,
    NotPositiveDefinite,
    NotSymmetric,
    UncertaintyViolated,
)

SYMMETRY_TOL = 1e-12
UNCERTAINTY_SLACK = 1e-9
PURITY_TOL = 1e-8
FORM_TOL = 1e-12


def _maxabs(a):
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def _mT(a):
    """Transpose of each matrix of a stack (of the last two axes)."""
    return np.swapaxes(a, -1, -2)


def _maxabs_each(a):
    """Largest absolute entry of each matrix of a stack (0-d for one matrix)."""
    return np.abs(a).max(axis=(-2, -1))


def _float_or_stack(x):
    """A per-matrix result: a float for one matrix, an array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _fail(error, detail, index, prefix=None):
    """Raise ``error(detail)``, naming sample ``index`` unless it is None (one matrix).

    A stack's error reads "<prefix>: <detail>", the prefix defaulting to
    "sample <index>", and carries ``index`` and ``detail``.
    """
    if index is None:
        raise error(detail)
    exc = error(f"{prefix or f'sample {index}'}: {detail}")
    exc.index, exc.detail = index, detail
    raise exc


def _fail_first(bad, error, detail):
    """Raise ``error`` at the first sample that the mask ``bad`` marks, if any.

    ``detail`` is the message, or a function of the sample index (``()``
    for one matrix, whose mask is 0-d) that words it.
    """
    bad = np.asarray(bad)
    if not bad.any():
        return
    index = int(np.argmax(bad)) if bad.ndim else None
    _fail(error, detail if isinstance(detail, str) else detail(() if index is None else index),
          index)


def _first_not_pd(a) -> int:
    """Index of the first matrix that Cholesky rejects (a failed stack does not say)."""
    for i, mat in enumerate(a.reshape(-1, *a.shape[-2:])):
        try:
            np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            return i


def _earliest_failure(fn):
    """Make a function of a stack fail the way a loop over its samples fails.

    Each check of ``fn`` raises at its own first failing sample, one check
    after the other, so a later check may fail an earlier sample.  After a
    failure at sample i, ``fn`` re-runs on the samples before i, and their
    failure, if there is one, is raised instead.
    """
    @functools.wraps(fn)
    def run(stack, *args, **kwargs):
        try:
            return fn(stack, *args, **kwargs)
        except (ValueError, RuntimeError) as exc:
            if not getattr(exc, "index", None):
                raise
            run(stack[:exc.index], *args, **kwargs)
            raise
    return run


def standard_omega(n_modes: int) -> np.ndarray:
    """Symplectic form for ``n_modes`` modes in (q1, p1, ..., qN, pN) order."""
    if n_modes < 1:
        raise ValueError("need at least one mode")
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for i in range(n_modes):
        omega[2 * i:2 * i + 2, 2 * i:2 * i + 2] = block
    return omega


def n_modes_of(g: np.ndarray) -> int:
    """Mode count of a square even-dimensional matrix, or of each matrix of a stack."""
    g = np.asarray(g)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2] or g.shape[-1] % 2:
        raise DimensionMismatch(f"expected square even-dimensional matrix, got shape {g.shape}")
    return g.shape[-1] // 2


def is_symmetric(a):
    """Symmetry to ``SYMMETRY_TOL`` relative to the entry size; a mask for a stack."""
    a = np.asarray(a)
    # tolerance scales with the entry size so that long propagations
    # (entries ~ e^{2 lambda t}) are not rejected on roundoff
    return _maxabs_each(a - _mT(a)) <= SYMMETRY_TOL * (1.0 + _maxabs_each(a))


def complex_structure(g: np.ndarray) -> np.ndarray:
    """Linear complex structure J = G Omega^{-1} of a covariance matrix."""
    g = np.asarray(g, dtype=float)
    omega = standard_omega(n_modes_of(g))
    return -g @ omega  # Omega^{-1} = -Omega


@dataclass(frozen=True)
class ModeCount:
    """Bipartition of ``n_total`` modes; subsystem A is the first ``n_a`` modes."""

    n_total: int
    n_a: int

    def __post_init__(self):
        if not (0 < self.n_a < self.n_total):
            raise ValueError(f"need 0 < n_a < n_total, got n_a={self.n_a}, n_total={self.n_total}")

    @property
    def n_b(self) -> int:
        return self.n_total - self.n_a


@_earliest_failure
def covariance_factor(g) -> np.ndarray:
    """Cholesky factor L of a covariance matrix (of each of a stack): symmetry and PD checks."""
    g = np.asarray(g, dtype=float)
    n_modes_of(g)
    _fail_first(~is_symmetric(g), NotSymmetric, "covariance check failed: not_symmetric")
    sym = 0.5 * (g + _mT(g))
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        _fail(NotPositiveDefinite, "covariance check failed: not_positive_definite",
              _first_not_pd(sym) if g.ndim > 2 else None)


def row_factor(w) -> np.ndarray:
    """Lower-triangular L with L L^T = W W^T, of a row block W (of each of a stack).

    L is the transposed R of a QR factorization of W^T, its diagonal made
    positive: the factor of W W^T without forming W W^T, whose conditioning
    is that of W squared.  A zero or non-finite pivot fails the covariance
    check's positive definiteness.
    """
    r = np.linalg.qr(_mT(np.asarray(w, dtype=float)), mode="r")
    pivots = np.diagonal(r, axis1=-2, axis2=-1)
    _fail_first(~(np.isfinite(pivots) & (pivots != 0)).all(axis=-1), NotPositiveDefinite,
                "covariance check failed: not_positive_definite")
    return _mT(r * np.where(pivots < 0, -1.0, 1.0)[..., None])


def factor_spectrum(ell, uncertainty_slack=UNCERTAINTY_SLACK) -> np.ndarray:
    """Symplectic eigenvalues of G = L L^T from its factor L, and the uncertainty check.

    They are the singular values of the antisymmetric L^T Omega L, of which
    only the antisymmetric part is kept: a product that should cancel, such
    as L_00 L_10 - L_10 L_00, may be rounded once (a fused multiply-add) and
    leave about eps L_00 L_10 on the diagonal, which for a block with
    L_10 >> L_11 is far above the spectrum's own roundoff.
    """
    x = _mT(ell) @ standard_omega(n_modes_of(ell)) @ ell
    nus = np.linalg.svd(0.5 * (x - _mT(x)), compute_uv=False)[..., 0::2]
    _fail_first(nus[..., -1] ** 2 < 1.0 - uncertainty_slack, UncertaintyViolated,
                lambda i: "covariance check failed: uncertainty_violated "
                          f"(min symplectic eigenvalue = {nus[i][-1]:.12g})")
    return nus


@_earliest_failure
def williamson_spectrum(g, uncertainty_slack=UNCERTAINTY_SLACK) -> np.ndarray:
    """Symplectic eigenvalues nu_1 >= ... >= nu_N of a valid covariance matrix.

    The covariance check: in order, symmetry and positive definiteness
    (:func:`covariance_factor`), then the uncertainty bound nu_N^2 >= 1 -
    ``uncertainty_slack`` (:func:`factor_spectrum`); raises the typed error
    of the first failed check.  The nu are the singular values of L^T Omega
    L, far better conditioned at large squeezing than an eigensolve of
    Omega G or of -J^2 (for one mode it is det L, exact).  A stack gives
    one row per matrix and fails at its earliest failing matrix.
    """
    return factor_spectrum(covariance_factor(g), uncertainty_slack)


def is_pure(g, tol: float = PURITY_TOL) -> bool:
    """True iff J^2 = -identity to within ``tol`` (max-abs entry)."""
    j = complex_structure(np.asarray(g, dtype=float))
    dim = j.shape[0]
    return _maxabs(j @ j + np.eye(dim)) <= tol


@dataclass(frozen=True)
class SubsystemSpec:
    """Selector of a subsystem: rows combine quadratures into new canonical pairs.

    ``selector`` is a (2 N_A) x (2 N) matrix F with F Omega F^T equal to the
    standard form of the subsystem, so the selected quadratures satisfy the
    canonical commutation relations.
    """

    selector: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.selector, dtype=float)
        if f.ndim != 2 or f.shape[0] % 2 or f.shape[1] % 2 or f.shape[0] > f.shape[1]:
            raise DimensionMismatch(f"bad selector shape {f.shape}")
        object.__setattr__(self, "selector", f)
        omega_full = standard_omega(f.shape[1] // 2)
        omega_sub = standard_omega(f.shape[0] // 2)
        defect = _maxabs(f @ omega_full @ f.T - omega_sub)
        # absolute tolerance, scaled up only when the selector itself has
        # large entries (e.g. transported selectors F M at large time)
        if defect > FORM_TOL * (1.0 + _maxabs(f) ** 2):
            raise NotDarboux(f"selector does not preserve the symplectic form (defect {defect:.3g})")

    @property
    def n_a(self) -> int:
        return self.selector.shape[0] // 2

    @property
    def n_total(self) -> int:
        return self.selector.shape[1] // 2

    @classmethod
    def first_modes(cls, n_a: int, n_total: int) -> "SubsystemSpec":
        return cls.modes(range(n_a), n_total)

    @classmethod
    def modes(cls, mode_indices, n_total: int) -> "SubsystemSpec":
        """Subsystem made of the given modes (0-based), in the given order."""
        idx = list(mode_indices)
        if len(set(idx)) != len(idx) or any(not 0 <= m < n_total for m in idx):
            raise ValueError(f"bad mode indices {idx} for {n_total} modes")
        f = np.zeros((2 * len(idx), 2 * n_total))
        for k, m in enumerate(idx):
            f[2 * k, 2 * m] = 1.0
            f[2 * k + 1, 2 * m + 1] = 1.0
        return cls(f)


def restrict(g, sub: SubsystemSpec) -> np.ndarray:
    """Covariance matrix of the subsystem, F G F^T (symmetrized), of a matrix or each of a stack."""
    g = np.asarray(g, dtype=float)
    f = sub.selector
    if g.shape[-1] != f.shape[1]:
        raise DimensionMismatch(f"covariance is {g.shape}, selector expects {f.shape[1]} columns")
    out = f @ g @ f.T
    return 0.5 * (out + _mT(out))
