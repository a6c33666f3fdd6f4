"""Gaussian entropy formulas, the bounding corridor, mutual informations."""

import json
import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from entgrowth.config import matrix_to_json, parse_config
from entgrowth.entropy import (
    LN_E_OVER_2,
    asymptotic_entropy,
    mode_entropy,
    renyi2_entropy,
    von_neumann_entropy,
)
from entgrowth.errors import NotPositiveDefinite
from entgrowth.phase_space import ModeCount, standard_omega, williamson_spectrum
from entgrowth.scenarios import inverted_pair_form, run_scenario, scenario_document
from reference import (
    corridor_check,
    mutual_information_asymptotic,
    random_covariance,
    random_symplectic,
)


def thermal_entropy_series(n_bar, n_terms=400):
    """Independent oracle: -sum p_n ln p_n for p_n = nbar^n / (1+nbar)^{n+1}."""
    total = 0.0
    for n in range(n_terms):
        p = n_bar ** n / (1.0 + n_bar) ** (n + 1)
        if p > 0:
            total -= p * math.log(p)
    return total


def two_mode_squeezer(r):
    k = np.zeros((4, 4))
    k[0, 2] = k[2, 0] = 1.0
    k[1, 3] = k[3, 1] = -1.0
    return expm(r * k)


def test_vacuum_entropies_vanish():
    g = np.eye(2)
    assert von_neumann_entropy(g) == 0.0
    assert abs(renyi2_entropy(g)) < 1e-14


def test_thermal_single_mode_against_series_oracle():
    # nu = 2 corresponds to mean occupation 0.5
    oracle = thermal_entropy_series(0.5)
    got = von_neumann_entropy(2.0 * np.eye(2))
    assert abs(got - oracle) < 1e-12
    assert abs(got - 0.9547712524422192) < 1e-12


def test_pure_two_mode_balance():
    rng = np.random.default_rng(41)
    for _ in range(10):
        s = random_symplectic(2, rng)
        g = s @ s.T
        s_a = von_neumann_entropy(g[:2, :2])
        s_b = von_neumann_entropy(g[2:, 2:])
        assert abs(s_a - s_b) < 1e-8


def test_renyi2_thermal():
    assert abs(renyi2_entropy(2.0 * np.eye(2)) - math.log(2.0)) < 1e-12


def test_renyi2_equals_sum_log_nu():
    rng = np.random.default_rng(43)
    for _ in range(100):
        g = random_covariance(2, rng, mixed=True)
        assert np.isclose(renyi2_entropy(g), np.sum(np.log(williamson_spectrum(g))),
                          rtol=1e-9, atol=1e-9)


def test_asymptotic_entropy_reference_values():
    assert abs(asymptotic_entropy(np.eye(2)) - LN_E_OVER_2) < 1e-14
    assert abs(asymptotic_entropy((2.0 / math.e) * np.eye(2))) < 1e-13


def test_asymptotic_entropy_scaling():
    rng = np.random.default_rng(47)
    g = random_covariance(3, rng, mixed=True)
    for t in (0.5, 2.0, 17.0):
        assert np.isclose(asymptotic_entropy(t * g), asymptotic_entropy(g) + 3 * math.log(t),
                          rtol=0, atol=1e-9)


def test_asymptotic_entropy_on_pd_cone_only():
    # valid on matrices below the uncertainty bound, rejects non-PD
    assert asymptotic_entropy(0.25 * np.eye(2)) == pytest.approx(LN_E_OVER_2 + math.log(0.25))
    with pytest.raises(NotPositiveDefinite):
        asymptotic_entropy(np.diag([1.0, -1.0]))


def test_corridor_vacuum():
    rep = corridor_check(np.eye(2))
    assert rep.s_vn == 0.0 and abs(rep.s_r2) < 1e-14
    assert abs(rep.s_as - LN_E_OVER_2) < 1e-12


def test_corridor_thermal_gap():
    rep = corridor_check(2.0 * np.eye(2))
    gap = rep.s_vn - rep.s_r2
    assert abs(gap - 0.2616240718822742) < 1e-10   # 0.954771... - ln 2
    assert gap <= LN_E_OVER_2


def test_corridor_near_saturation_large_nu():
    rep = corridor_check(100.0 * np.eye(2))
    assert rep.s_as - rep.s_vn <= LN_E_OVER_2 / 1e4 + 1e-9


def test_corridor_property_random():
    rng = np.random.default_rng(53)
    for _ in range(300):
        g = random_covariance(2, rng, mixed=rng.random() < 0.7, scale=0.6)
        rep = corridor_check(g)
        assert -1e-9 <= rep.s_vn - rep.s_r2 <= 2 * LN_E_OVER_2 + 1e-9


def test_corridor_renyi2_is_renyi2_entropy():
    # one Renyi-2 route: sum ln diag L of the checked factor, bit for bit
    rng = np.random.default_rng(1)
    for _ in range(200):
        g = random_covariance(3, rng)
        assert corridor_check(g).s_r2 == renyi2_entropy(g)


def test_symplectic_invariance_of_entropy():
    rng = np.random.default_rng(59)
    for _ in range(20):
        g = random_covariance(2, rng, mixed=True)
        s = random_symplectic(2, rng)
        assert abs(von_neumann_entropy(s @ g @ s.T) - von_neumann_entropy(g)) < 1e-9


def test_mode_entropy_branches_agree():
    # the series, direct and log1p forms join at nu = 1 + 1e-6 and nu = 1.5:
    # on either side of each edge the two forms that meet there agree to
    # roundoff (absolute, or relative where s > 1), and so does s(nu)
    def series(nu):
        eps = 0.5 * (nu - 1.0)
        return eps * (1.0 - math.log(eps)) + 0.5 * eps * eps

    def direct(nu):
        eps, hi = 0.5 * (nu - 1.0), 0.5 * (nu + 1.0)
        return hi * math.log(hi) - eps * math.log(eps)

    def log1p_form(nu):
        eps = 0.5 * (nu - 1.0)
        return math.log(eps) + 0.5 * (nu + 1.0) * math.log1p(1.0 / eps)

    tol = 2.0 * np.finfo(float).eps
    for lower, upper, edge in ((series, direct, 1.0 + 1e-6), (direct, log1p_form, 1.5)):
        for nu in (0.5 * (1.0 + edge), edge, 2.0 * edge - 1.0):
            s = mode_entropy(nu)
            assert abs(lower(nu) - upper(nu)) <= tol * max(1.0, s), nu
            assert abs(s - lower(nu)) <= tol * max(1.0, s), nu
    # roundoff below 1 is clamped to the limit s(1) = 0
    assert mode_entropy(1.0) == mode_entropy(1.0 - 1e-12) == 0.0


# s(nu) = ((nu+1)/2) ln((nu+1)/2) - ((nu-1)/2) ln((nu-1)/2) at 40 digits
# (mpmath, at the double nearest each nu)
MODE_ENTROPY_40_DIGITS = (
    (1.0 + 1e-9, 1.120820739487915581107388298473231877949e-8),
    (1.0 + 1e-6, 7.754328993665299606235109367573672829837e-6),
    (1.2, 0.3350997070841618612061756310658397662849),
    (1.5, 0.625503029422734849416484923616381413256),
    (2.0, 0.9547712524422192276756357339256119888957),
    (8.8e5, 13.99453000589422867858269862511379674418),
    (1e6, 14.12236337740416212802404988998134201084),
    (1e12, 27.93787393536860289879866516808752725647),
)


def test_mode_entropy_matches_high_precision_values():
    # the direct form at large nu cancels about eps * nu: it read 3.7e-11
    # relative off at nu = 8.8e5.  The error is absolute, or relative where s > 1
    for nu, exact in MODE_ENTROPY_40_DIGITS:
        value = mode_entropy(nu)
        assert type(value) is float
        assert abs(value - exact) <= 4.0 * np.finfo(float).eps * max(1.0, exact), (nu, value)
    # an array of eigenvalues, of any shape, gives the one-eigenvalue values bit for bit
    nus = np.array([nu for nu, _ in MODE_ENTROPY_40_DIGITS])
    singles = [mode_entropy(nu) for nu in nus.tolist()]
    assert mode_entropy(nus).tolist() == singles
    assert mode_entropy(nus.reshape(2, 4)).ravel().tolist() == singles


def test_von_neumann_matches_trace_formula():
    # the eigenvalue form equals tr[A ln|A|] with A = (1 + iJ)/2, whose
    # eigenvalues are (1 +- nu)/2; zero eigenvalues (pure directions)
    # contribute the 0 ln 0 limit
    from entgrowth.phase_space import complex_structure
    rng = np.random.default_rng(71)
    for _ in range(10):
        g = random_covariance(2, rng, mixed=rng.random() < 0.7)
        j = complex_structure(g)
        a_eigs = np.linalg.eigvals(0.5 * (np.eye(4) + 1j * j))
        assert np.max(np.abs(a_eigs.imag)) < 1e-9
        total = sum(a.real * math.log(abs(a.real)) for a in a_eigs if abs(a.real) > 1e-12)
        assert abs(von_neumann_entropy(g) - total) < 1e-9


def test_odd_dimension_rejected():
    from entgrowth.errors import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        williamson_spectrum(np.eye(3))


def test_geometric_renyi_identity():
    # S2 equals the log metric volume of any unit-symplectic-volume parallelepiped
    rng = np.random.default_rng(61)
    for _ in range(20):
        g = random_covariance(2, rng, mixed=True)
        basis = random_symplectic(2, rng)        # rows span a Darboux parallelepiped
        gram = basis @ g @ basis.T
        log_vol = 0.5 * np.log(np.linalg.det(gram))
        assert abs(renyi2_entropy(g) - log_vol) < 1e-9


def pipeline_rows(g0, coupling):
    """The CSV rows of an inverted pair of the given coupling run from covariance ``g0``."""
    doc = scenario_document("inverted_pair")
    doc["hamiltonian"]["params"] = {"coupling": coupling}
    doc["initial_state"]["covariance"] = matrix_to_json(g0)
    doc["run"].update(t_final=6.0, store_every=100)
    return run_scenario(parse_config(json.dumps(doc)), write_outputs=False).rows


def _exact_mode_entropy(nu):
    half_up, half_down = (nu + 1) / 2, (nu - 1) / 2
    return half_up * mpmath.log(half_up) - (half_down * mpmath.log(half_down) if nu > 1 else 0)


def flow_blocks(t, g0, coupling):
    """S(A) and S(B) of G = M(t) g0 M(t)^T at 40 digits, and the pipeline's error model.

    M(t) = exp(t Omega h) is mpmath's exponential of the double h; each block
    is one mode, whose symplectic eigenvalue is sqrt(det).  The pipeline
    reads each block off the QR factor of its rows of M(t) C0, never from
    the formed G, so I(A;B) carries an error of at most 0.82 eps |G| on
    every row (measured); the tolerance is 1e-14 + 2 eps |G|.  The formed
    blocks lost about eps |G|^2: 1.2e-6 at t = 6 on the product state.
    """
    with mpmath.workdps(40):
        m = mpmath.expm(mpmath.mpf(t) * mpmath.matrix(standard_omega(2)
                                                      @ inverted_pair_form(coupling=coupling)))
        g = m * mpmath.matrix(g0) * m.T
        s_a, s_b = (_exact_mode_entropy(mpmath.sqrt(g[i, i] * g[i + 1, i + 1]
                                                    - g[i, i + 1] * g[i + 1, i]))
                    for i in (0, 2))
        return s_a, s_b, 1e-14 + 2.0 * np.finfo(float).eps * float(max(abs(x) for x in g))


def test_mutual_information_product_state():
    # an uncoupled flow keeps a product state a product: I(A;B) = 0
    g0 = np.diag([2.0, 2.0, 3.0, 3.0])
    rows = pipeline_rows(g0, coupling=0.0)
    assert len(rows) > 10
    for row in rows:
        assert abs(row.i_ab) <= flow_blocks(row.t, g0, coupling=0.0)[2], row


def test_mutual_information_two_mode_squeezed():
    # a pure global state: I(A;B) = S(A) + S(B) = 2 S(A)
    g0 = np.eye(4)
    for row in pipeline_rows(g0, coupling=0.2):
        assert row.i_ab == 2 * row.s_vn_a, row
        s_a, s_b, tol = flow_blocks(row.t, g0, coupling=0.2)
        assert abs(row.i_ab - float(s_a + s_b)) <= tol, (row, s_a, s_b)


def test_mutual_information_nonnegative():
    # a mixed state under a coupled flow: I(A;B) = S(A) + S(B) - S(AB) >= 0
    rng = np.random.default_rng(67)
    g0 = random_covariance(2, rng, mixed=True)
    s_ab = von_neumann_entropy(g0)
    for row in pipeline_rows(g0, coupling=0.2):
        assert row.i_ab >= -1e-9, row
        s_a, s_b, tol = flow_blocks(row.t, g0, coupling=0.2)
        expected = float(s_a + s_b - s_ab)
        assert abs(row.i_ab - expected) <= tol, (row, expected)


def test_mutual_information_asymptotic_values():
    split = ModeCount(2, 1)
    assert abs(mutual_information_asymptotic(np.eye(4), split)) < 1e-12
    r = 0.65
    t_mat = two_mode_squeezer(r)
    assert np.isclose(mutual_information_asymptotic(t_mat, split), 2 * math.log(math.cosh(r)),
                      atol=1e-12)
    block = np.diag([1.7, 0.9, 4.0, 0.3])
    assert abs(mutual_information_asymptotic(block, split)) < 1e-12
