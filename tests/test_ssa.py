"""Subadditivity objective, stationarity condition, minimizer, entropy bounds."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from entgrowth import ssa
from entgrowth.dynamics import polar_decompose
from entgrowth.entropy import LN_E_OVER_2
from entgrowth.errors import DimensionMismatch, NotDarboux, NotPositiveDefinite
from entgrowth.phase_space import ModeCount, standard_omega
from entgrowth.scenarios import inverted_pair_form, metastable_form, two_mode_squeezing_form
from entgrowth.ssa import (
    _newton_step,
    _rhs_terms,
    gss_rhs_minimize,
    minimize,
    op_norm,
    squashed_bounds,
)
from reference import (
    SubsystemFamily,
    gss_objective,
    mutual_information_asymptotic,
    random_covariance,
    random_pd_symplectic,
    random_symplectic,
    random_unstable_hamiltonian_form,
    stationarity_residual,
    stationarity_terms,
)

SPLIT = ModeCount(2, 1)


def two_mode_squeezer(r):
    return expm(standard_omega(2) @ two_mode_squeezing_form(r))


def test_family_scaling_condition():
    fam = SubsystemFamily.transported_pair(SPLIT, np.eye(4))
    assert sum(p * (f.shape[0] // 2) for f, p in fam.members) == 2
    with pytest.raises(ValueError):
        bad = ((np.eye(4)[:2], 0.5),)   # 0.5 * 1 != 2
        SubsystemFamily(members=bad, n_total=2)


def test_family_members_must_preserve_the_form():
    f_a = np.eye(4)[:2].copy()
    f_a[0, 0] = 2.0   # q1 -> 2 q1, so F Omega F^T = 2 Omega
    with pytest.raises(NotDarboux):
        SubsystemFamily(members=((f_a, 1.0), (np.eye(4)[2:], 1.0)), n_total=2)


def test_family_members_must_span_all_modes():
    with pytest.raises(DimensionMismatch):
        SubsystemFamily(members=((np.eye(6)[:2], 2.0),), n_total=2)


def test_objective_identity_transport_is_zero():
    fam = SubsystemFamily.transported_pair(SPLIT, np.eye(4))
    assert abs(gss_objective(np.eye(4), fam)) < 1e-12


def test_objective_whole_system_family():
    fam = SubsystemFamily(members=((np.eye(4), 1.0),), n_total=2)
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = random_covariance(2, rng, mixed=True)
        assert abs(gss_objective(g, fam)) < 1e-12


def test_objective_matches_mutual_information_sum():
    # objective = -(I_as(G) + I_as(M G M^T))/2 for the transported family
    r = 0.6
    m = two_mode_squeezer(r)
    fam = SubsystemFamily.transported_pair(SPLIT, m)
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = random_covariance(2, rng, mixed=True)
        lhs = gss_objective(g, fam)
        rhs = -0.5 * (mutual_information_asymptotic(g, SPLIT)
                      + mutual_information_asymptotic(m @ g @ m.T, SPLIT))
        assert abs(lhs - rhs) < 1e-10
    # at G = identity the transported term is the squeezer mutual information
    val = gss_objective(np.eye(4), fam)
    assert abs(val + 0.5 * mutual_information_asymptotic(m @ m.T, SPLIT)) < 1e-12


def test_objective_scale_invariance():
    m = two_mode_squeezer(0.8)
    fam = SubsystemFamily.transported_pair(SPLIT, m)
    rng = np.random.default_rng(7)
    g = random_covariance(2, rng, mixed=True)
    base = gss_objective(g, fam)
    for c in (0.1, 3.0, 42.0):
        assert abs(gss_objective(c * g, fam) - base) < 1e-10


def test_stationarity_at_inverse_for_pd_symplectic():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = random_pd_symplectic(2, rng)
        fam = SubsystemFamily.transported_pair(SPLIT, m)
        assert stationarity_residual(np.linalg.inv(m), fam) < 1e-10


def test_stationarity_whole_system_always_zero():
    fam = SubsystemFamily(members=((np.eye(4), 1.0),), n_total=2)
    rng = np.random.default_rng(13)
    for _ in range(5):
        g = random_covariance(2, rng, mixed=True)
        assert stationarity_residual(g, fam) < 1e-12


def test_stationarity_singular_block_is_not_positive_definite():
    # M = I + t Omega v v^T with t = 1e20 and v = (1, 1, 1, 1): rows 0 and 1
    # of M round to +-t v, so the block (F_A M) G (F_A M)^T at G = I is
    # exactly singular in floating point while G itself is fine
    v = np.ones(4)
    m = np.eye(4) + 1e20 * standard_omega(2) @ np.outer(v, v)
    fam = SubsystemFamily.transported_pair(SPLIT, m)
    with pytest.raises(NotPositiveDefinite, match="block F G F\\^T is singular"):
        stationarity_residual(np.eye(4), fam)


def test_stationarity_generic_point_nonzero():
    rng = np.random.default_rng(17)
    m = random_pd_symplectic(2, rng)
    fam = SubsystemFamily.transported_pair(SPLIT, m)
    g = random_covariance(2, rng, mixed=True)
    assert stationarity_residual(g, fam) > 1e-4


def test_minimize_pd_symplectic_reaches_known_value():
    rng = np.random.default_rng(19)
    m = random_pd_symplectic(2, rng)
    target = 2.0 * mutual_information_asymptotic(m, SPLIT)
    rep = gss_rhs_minimize(m, SPLIT)
    assert abs(rep.value - target) < 1e-6
    assert rep.residual < 1e-5
    assert not rep.diverged


def test_minimize_block_diagonal_orthogonal():
    theta = 0.8
    rot = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    m = np.zeros((4, 4))
    m[:2, :2] = rot
    m[2:, 2:] = rot.T
    rep = gss_rhs_minimize(m, SPLIT)
    assert abs(rep.value) < 1e-8


def test_minimize_metastable_below_constant():
    k = standard_omega(2) @ metastable_form()
    for t in (1.0, 100.0):
        m = np.eye(4) + t * k
        rep = gss_rhs_minimize(m, SPLIT)
        assert rep.value <= 2 * LN_E_OVER_2 + 1e-6
        assert rep.diverged   # infimum sits at the cone boundary


# line searches on a finite-difference gradient overflow at 849 onward and
# return a bound above the ceiling; 630 and 671 break a gradient taken
# through inverses of blocks of the formed M G M^T
FORMER_FAILURE_TIMES = (630, 671, 849, 856, 857, 898, 926, 972, 1004, 1010, 1015, 1018,
                        1023, 1035, 1079, 1080)


def test_minimize_metastable_former_failure_times():
    k = standard_omega(2) @ metastable_form()
    for t in FORMER_FAILURE_TIMES:
        rep = gss_rhs_minimize(np.eye(4) + t * k, SPLIT)
        assert math.isfinite(rep.value) and rep.value <= 2 * LN_E_OVER_2 + 1e-6, (t, rep)
        assert math.isfinite(rep.residual), (t, rep)


def test_minimize_stop_summary_names_the_reason(monkeypatch):
    m = random_pd_symplectic(2, np.random.default_rng(19))
    with monkeypatch.context() as patch:
        patch.setattr(ssa, "BUDGET", 3)
        rep = gss_rhs_minimize(m, SPLIT)
        assert not rep.converged and rep.iterations == 3
        assert rep.stop_summary == "exhausted its budget of 3 iterations"
    rep = gss_rhs_minimize(m, SPLIT)
    assert rep.converged and rep.iterations < ssa.BUDGET
    stopped = dataclasses.replace(rep, converged=False)
    assert stopped.stop_summary == f"stopped before converging: {rep.stop_reason}"


def _factor(x, dim):
    """Lower-triangular C from its packed lower triangle, with a log-parametrized diagonal."""
    rows, cols = np.tril_indices(dim)
    c = np.zeros((dim, dim))
    c[rows, cols] = np.where(rows == cols, np.exp(x), x)
    return c


def _rhs_value(m, split, r):
    """I_as(A;B)(G) + I_as(A;B)(M G M^T) at G = R R^T, from the minimizer's own terms."""
    return _rhs_terms(m, 2 * split.n_a, r)[0] - np.linalg.slogdet(m)[1]


def _along(r, y, s):
    """A factor of R e^{sY} R^T: the affine-invariant geodesic from R R^T along symmetric Y."""
    w, v = np.linalg.eigh(y)
    return (r @ v) * np.exp(0.5 * s * w)


@st.composite
def factor_points(draw, limit=1.5):
    """(M, split, C): random symplectic M and a Cholesky factor C, packed entries in [-limit, limit].

    Both N_A = N_B and N_A != N_B are drawn, so row blocks of both equal
    and unequal heights occur.
    """
    n_total = draw(st.integers(2, 4))
    split = ModeCount(n_total, draw(st.integers(1, n_total - 1)))
    m = random_symplectic(n_total, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    dim = 2 * n_total
    x = draw(hnp.arrays(np.float64, dim * (dim + 1) // 2, elements=st.floats(-limit, limit)))
    return m, split, _factor(x, dim)


# the step at which the third and fourth derivatives are read: differences
# there carry a truncation O(WIDE_STEP^2) and a roundoff O(rounding /
# WIDE_STEP^4), far below the derivatives they estimate
WIDE_STEP = 1e-2
# the error bounds below held with a margin of 2.3x or more on 800 drawn
# points with 2-4 modes, a quarter of them at x = -1.5 everywhere
MODEL_SLACK = 4.0


def _central_derivatives(phi, rounding):
    """Central-difference slope and curvature of phi at 0, each with its error bound.

    ``rounding`` bounds the absolute roundoff of one value of phi.  With d3
    and d4 the third and fourth derivatives, the slope at step h is off by
    at most h^2 |d3| / 6 + rounding / h, and the curvature by h^2 |d4| / 12
    + 4 rounding / h^2: truncation plus roundoff.  |d3| and |d4| are read
    from the differences at WIDE_STEP, and each h minimizes its bound, at
    most WIDE_STEP / 10 so that the derivatives read there still hold.
    """
    f = [phi(k * WIDE_STEP) for k in (-2, -1, 0, 1, 2)]
    d3 = abs(f[4] - 2 * f[3] + 2 * f[1] - f[0]) / (2 * WIDE_STEP ** 3)
    d4 = abs(f[4] - 4 * f[3] + 6 * f[2] - 4 * f[1] + f[0]) / WIDE_STEP ** 4
    h1 = min((3 * rounding / max(d3, rounding)) ** (1 / 3), 0.1 * WIDE_STEP)
    h2 = min((48 * rounding / max(d4, rounding)) ** (1 / 4), 0.1 * WIDE_STEP)
    slope = (phi(h1) - phi(-h1)) / (2 * h1)
    curvature = (phi(h2) - 2 * f[2] + phi(-h2)) / h2 ** 2
    return (slope, h1 ** 2 * d3 / 6 + rounding / h1,
            curvature, h2 ** 2 * d4 / 12 + 4 * rounding / h2 ** 2)


def _extreme_point():
    """N = 4, N_A = 1, every packed entry at -1.5: cond C = 4.6e7."""
    m = random_symplectic(4, np.random.default_rng(0))
    return m, ModeCount(4, 1), _factor(np.full(36, -1.5), 8)


@settings(max_examples=40, deadline=None)
@given(factor_points(), st.integers(0, 2**32 - 1))
@example(_extreme_point(), 0)
def test_factor_gradient_matches_central_differences(point, seed):
    # along a random symmetric Y the slope is <(1/2) sum_i P_i - I, Y>; along
    # the Newton step X (H X = -grad) the slope is -decrement and the
    # curvature +decrement, which checks the Hessian the step inverts
    m, split, c = point
    _, roundoff, proj = _rhs_terms(m, 2 * split.n_a, c)
    step, decrement, _ = _newton_step(proj)
    y = np.random.default_rng(seed).normal(size=c.shape)
    y = 0.5 * (y + y.T)
    # a value carries the roundoff the minimizer reports for its log terms,
    # plus eps cond(C) from the factor it is evaluated at
    rounding = roundoff + np.finfo(float).eps * np.linalg.cond(c)

    def phi(direction):
        return lambda s: _rhs_value(m, split, _along(c, direction, s))

    slope, bound, _, _ = _central_derivatives(phi(y), rounding)
    grad = 0.5 * proj.sum(axis=0) - np.eye(len(c))
    assert abs(slope - np.sum(grad * y)) <= MODEL_SLACK * bound
    # along the step scaled to unit largest |eigenvalue|
    size = np.max(np.abs(np.linalg.eigvalsh(step)))
    if size == 0.0:
        return
    unit, slope_unit, curvature_unit = step / size, -decrement / size, decrement / size ** 2
    slope, bound, curvature, curvature_bound = _central_derivatives(phi(unit), rounding)
    assert abs(slope - slope_unit) <= MODEL_SLACK * bound
    assert abs(curvature - curvature_unit) <= MODEL_SLACK * curvature_bound


@settings(max_examples=60, deadline=None)
@given(factor_points(limit=0.5))
def test_factor_value_matches_formed_objective(point):
    # the formed reference loses about eps * cond(C C^T), which reaches 1e11
    # at x = -1.5 everywhere; |x| <= 0.5 keeps cond < 1e4
    m, split, c = point
    formed = -2.0 * gss_objective(c @ c.T, SubsystemFamily.transported_pair(split, m))
    value = _rhs_value(m, split, c)
    assert abs(value - formed) <= 1e-10 * (1.0 + abs(value))


@settings(max_examples=60, deadline=None)
@given(factor_points(limit=0.5))
def test_whitened_gradient_is_the_formed_stationarity_equation(point):
    # I - (1/2) sum_i P_i = R^T (G^{-1} - sum_i p_i F_i^T (F_i G F_i^T)^{-1} F_i) R,
    # so the minimizer's residual is the stationarity residual of the formed
    # G, read without forming it; |x| <= 0.5 keeps cond G < 1e4
    m, split, c = point
    proj = _rhs_terms(m, 2 * split.n_a, c)[2]
    whitened = np.eye(len(c)) - 0.5 * proj.sum(axis=0)
    g_inv, acc = stationarity_terms(c @ c.T, SubsystemFamily.transported_pair(split, m))
    formed = c.T @ (g_inv - acc) @ c
    assert np.max(np.abs(whitened - formed)) <= 1e-9 * np.max(np.abs(c.T @ acc @ c))
    assert _newton_step(proj)[2] == np.max(np.abs(whitened))


@settings(max_examples=60, deadline=None)
@given(factor_points())
def test_factor_value_nonnegative(point):
    # Fischer's inequality: ln det G <= ln det G_A + ln det G_B
    m, split, c = point
    assert _rhs_value(m, split, c) >= -1e-12


@st.composite
def unstable_flow_points(draw):
    """(M, split, C): M = exp(t Omega h) for a random h with a real unstable pair, on 2-3 modes.

    C is a Cholesky factor as in ``factor_points``, packed entries in [-1, 1].
    """
    n_total = draw(st.integers(2, 3))
    split = ModeCount(n_total, draw(st.integers(1, n_total - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = random_unstable_hamiltonian_form(n_total, rng)
    m = expm(draw(st.floats(0.5, 4.0)) * standard_omega(n_total) @ h)
    dim = 2 * n_total
    x = draw(hnp.arrays(np.float64, dim * (dim + 1) // 2, elements=st.floats(-1.0, 1.0)))
    return m, split, _factor(x, dim)


@settings(max_examples=60, deadline=None)
@given(unstable_flow_points(), st.integers(0, 2**32 - 1))
def test_objective_is_geodesically_convex(point, seed):
    # no second difference along an affine-invariant geodesic R e^{sY} R^T
    # through a random PD point is negative, beyond roundoff
    m, split, c = point
    y = np.random.default_rng(seed).normal(size=c.shape)
    y = 0.5 * (y + y.T)
    y /= np.max(np.abs(np.linalg.eigvalsh(y)))
    values = [_rhs_value(m, split, _along(c, y, s)) for s in np.linspace(-1.0, 1.0, 9)]
    assert min(np.diff(values, 2)) >= -1e-10 * max(1.0, max(abs(v) for v in values))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_minimum_does_not_depend_on_the_start(n_total, seed):
    # the objective is geodesically convex, so a descent from any PD start
    # finds the value of the descent from the identity
    rng = np.random.default_rng(seed)
    split = ModeCount(n_total, int(rng.integers(1, n_total)))
    m = random_symplectic(n_total, rng)
    reference = gss_rhs_minimize(m, split)
    assert reference.converged
    for _ in range(3):
        start = np.linalg.cholesky(random_covariance(n_total, rng, scale=1.0))
        other = minimize(m, 2 * split.n_a, start)
        assert other.converged and abs(other.value - reference.value) <= 1e-8
        other = gss_rhs_minimize(m, split, start)
        assert other.converged and abs(other.value - reference.value) <= 1e-8


def test_minimizer_rejects_a_transformation_or_start_of_the_wrong_size():
    with pytest.raises(DimensionMismatch, match="transformation shape"):
        gss_rhs_minimize(np.eye(6), SPLIT)
    with pytest.raises(DimensionMismatch, match="start factor shape"):
        gss_rhs_minimize(np.eye(4), SPLIT, np.eye(6))


def test_minimize_inverted_pair_long_horizons():
    # L-BFGS-B on Cholesky entries stopped at 17.6996347655 (t=8.04, 2,000
    # iterations, residual 3.7e-5) and 32.2216179071 (t=12)
    k = standard_omega(2) @ inverted_pair_form()
    rep = gss_rhs_minimize(expm(8.04 * k), SPLIT)
    assert rep.converged and not rep.diverged, rep
    assert rep.residual <= 1e-8 and rep.value <= 17.6986, rep
    rep = gss_rhs_minimize(expm(12.0 * k), SPLIT)
    assert rep.converged and rep.value <= 32.12, rep
    # cond G is about 3e12 at the minimum: the relative residual of the
    # formed G^{-1} = sum_i p_i F_i^T (F_i G F_i^T)^{-1} F_i reads 1.8e-3
    # there, while the whitened one the descent stops on reads 3.4e-8
    rep = gss_rhs_minimize(expm(16.08 * k), SPLIT)
    assert rep.converged and rep.residual <= 1e-6, rep


def test_minimize_reports_a_singular_last_iterate_unconverged():
    # a rank-one shear I + t Omega v v^T whose infimum 0 sits at the cone
    # boundary: the descent meets its stop rule where the formed G = R R^T
    # fails a Cholesky factorization, so the last iterate is reported,
    # unconverged
    rng = np.random.default_rng(54)
    v = random_symplectic(2, rng)[:, 0]
    m = np.eye(4) + rng.uniform(1, 1000) * standard_omega(2) @ np.outer(v, v)
    rep = gss_rhs_minimize(m, SPLIT)
    assert rep.stop_reason == "G is numerically singular at the last iterate", rep
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(rep.factor @ rep.factor.T)
    assert not rep.converged and rep.diverged and rep.residual <= 1e-6
    assert abs(rep.value) <= 1e-6


def test_minimize_cold_start_success_rate():
    # the known stationary point is found from the identity start in every
    # random PD-symplectic case
    rng = np.random.default_rng(808)
    hits = 0
    for _ in range(20):
        m = random_pd_symplectic(2, rng, scale=0.5)
        target = 2.0 * mutual_information_asymptotic(m, SPLIT)
        rep = gss_rhs_minimize(m, SPLIT)
        if abs(rep.value - target) <= 1e-6:
            hits += 1
    assert hits == 20


def test_minimize_never_beats_known_optimum():
    rng = np.random.default_rng(909)
    for _ in range(10):
        m = random_pd_symplectic(2, rng, scale=0.5)
        target = 2.0 * mutual_information_asymptotic(m, SPLIT)
        rep = gss_rhs_minimize(m, SPLIT)
        assert rep.value >= target - 1e-9


def test_minimize_local_minimum_certificate():
    rng = np.random.default_rng(23)
    m = random_pd_symplectic(2, rng)
    rep = gss_rhs_minimize(m, SPLIT)
    assert rep.residual <= 1e-8
    fam = SubsystemFamily.transported_pair(SPLIT, m)
    g = rep.factor @ rep.factor.T

    def objective(g):
        return -2.0 * gss_objective(g, fam)

    base = objective(g)
    for _ in range(20):
        d = rng.normal(size=(4, 4))
        d = d @ d.T
        d *= 1e-3 * np.max(np.abs(g)) / np.max(np.abs(d))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        trial = g + sign * d
        try:
            val = objective(trial)
        except NotPositiveDefinite:
            continue
        assert val >= base - 1e-6


def test_squashed_bounds_identity_point():
    lower, upper = squashed_bounds(np.eye(4), np.eye(4), SPLIT)
    assert abs(upper - LN_E_OVER_2) < 1e-12
    assert abs(lower - (-2 * LN_E_OVER_2)) < 1e-12
    assert lower <= upper


def test_squashed_bounds_scale_with_initial_norm():
    t_mat = two_mode_squeezer(0.5)
    g0 = np.diag([3.0, 3.0, 1.0, 1.0])
    lower1, upper1 = squashed_bounds(t_mat, np.eye(4), SPLIT)
    lower3, upper3 = squashed_bounds(t_mat, g0, SPLIT)
    assert np.isclose(upper3 - upper1, 0.5 * 2 * math.log(3.0), atol=1e-12)
    assert np.isclose(lower1 - lower3, 2 * math.log(3.0), atol=1e-12)


def test_op_norm():
    rng = np.random.default_rng(29)
    g = random_covariance(2, rng, mixed=True)
    assert np.isclose(op_norm(g), np.linalg.eigvalsh(g)[-1])


def test_bounds_accept_symplectic_and_reject_non_symplectic_transformation():
    # the bounds read the polar factor of M from its SVD, so a generic
    # symplectic M, neither symmetric nor positive definite, is accepted
    rng = np.random.default_rng(31)
    m = random_symplectic(2, rng)
    assert np.max(np.abs(m - m.T)) > 1e-3
    lower, upper = squashed_bounds(m, np.eye(4), SPLIT)
    assert lower <= upper
    with pytest.raises(NotDarboux, match="not symplectic"):
        squashed_bounds(1.01 * m, np.eye(4), SPLIT)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.data(), st.integers(0, 2 ** 32 - 1), st.floats(0.1, 1.5))
def test_bounds_of_m_equal_the_bounds_of_its_polar_factor(n, data, seed, scale):
    # a positive definite symplectic T is its own polar factor, so callers
    # that pass T get the bounds of M = T u, to roundoff (at most 24 eps
    # (1 + |bound|) over 2,000 draws)
    split = ModeCount(n, data.draw(st.integers(1, n - 1)))
    rng = np.random.default_rng(seed)
    m = random_symplectic(n, rng, scale)
    g0 = random_covariance(n, rng, mixed=True)
    from_t = squashed_bounds(polar_decompose(m).t_part, g0, split)
    for bound, expected in zip(squashed_bounds(m, g0, split), from_t):
        assert abs(bound - expected) <= 256 * np.finfo(float).eps * (1.0 + abs(expected))
