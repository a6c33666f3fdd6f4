"""Generators, propagation, polar factors, stroboscopic extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

import entgrowth.dynamics as dynamics
from entgrowth.dynamics import (
    DEFECT_FACTOR,
    PolarPair,
    QuadraticHamiltonian,
    evolve_covariance,
    generator,
    polar_decompose,
    propagate,
    sample_times,
    sqrt_pd,
    step_loop,
    stroboscopic_generator,
)
from entgrowth.errors import NoRealLogarithm, NonSymmetricH
from entgrowth.fock import FockConfig, FockState, evolve_fock
from entgrowth.phase_space import ModeCount, is_pure, standard_omega, williamson_spectrum
from entgrowth.sampling import random_symplectic
from entgrowth.scenarios import metastable_form
from entgrowth.ssa import squashed_bounds


def test_generator_harmonic():
    ham = QuadraticHamiltonian.constant(np.eye(2))
    assert np.array_equal(generator(ham, 0.0), [[0.0, 1.0], [-1.0, 0.0]])


def test_generator_inverted():
    ham = QuadraticHamiltonian.constant(np.diag([-1.0, 1.0]))
    k = generator(ham, 0.0)
    assert np.array_equal(k, [[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(sorted(np.linalg.eigvals(k).real), [-1.0, 1.0])


def test_generator_metastable_nilpotent():
    ham = QuadraticHamiltonian.constant(metastable_form())
    k = generator(ham, 0.0)
    assert np.max(np.abs(k @ k)) == 0.0
    assert abs(np.trace(k)) < 1e-10


def test_generator_rejects_asymmetric_form():
    h = np.zeros((2, 2))
    h[0, 1] = 1.0
    ham = QuadraticHamiltonian(h=lambda t: h, n_modes=1)
    with pytest.raises(NonSymmetricH):
        generator(ham, 0.0)


def test_propagate_constant_matches_expm():
    h = np.diag([-1.0, 1.0])
    ham = QuadraticHamiltonian.constant(h)
    series = propagate(ham, 1.0, 1e-3)
    k = standard_omega(1) @ h
    assert np.max(np.abs(series.final_matrix - expm(k))) < 1e-8


def test_propagate_metastable_exact_affine_flow():
    ham = QuadraticHamiltonian.constant(metastable_form())
    k = standard_omega(2) @ metastable_form()
    series = propagate(ham, 50.0, 0.5)
    for idx, t in enumerate(series.times):
        assert np.max(np.abs(series.matrices[idx] - (np.eye(4) + t * k))) < 1e-10 * (1 + t)


def test_propagate_harmonic_full_period():
    ham = QuadraticHamiltonian.constant(np.eye(2))
    series = propagate(ham, 2 * np.pi, 1e-3)
    assert np.max(np.abs(series.final_matrix - np.eye(2))) < 1e-8


def test_propagate_symplectic_defect_monitored():
    rng = np.random.default_rng(3)
    h = rng.normal(size=(4, 4))
    h = 0.3 * (h + h.T)
    ham = QuadraticHamiltonian.constant(h)
    series = propagate(ham, 20.0, 0.01)
    norms = np.array([np.max(np.abs(m)) for m in series.matrices])
    assert np.all(series.defects <= 1e-8 * (1.0 + norms ** 2))
    # the det-1 check is only conditioned while kappa(M) * eps stays small;
    # restrict it to the early horizon
    for m in series.matrices:
        if np.linalg.cond(m) < 1e7:
            assert abs(np.linalg.det(m) - 1.0) < 1e-8


@st.composite
def constant_flows(draw):
    """(h, t, dt, n_a): a symmetric form on 1-3 modes with |entries| <= 0.5 and t <= 3."""
    n = draw(st.integers(1, 3))
    a = draw(hnp.arrays(np.float64, (2 * n, 2 * n), elements=st.floats(-0.5, 0.5)))
    n_a = draw(st.integers(1, n - 1)) if n > 1 else None
    return 0.5 * (a + a.T), draw(st.floats(0.01, 3.0)), draw(st.floats(0.005, 0.5)), n_a


@settings(max_examples=60, deadline=None)
@given(constant_flows())
def test_propagate_is_the_exponential_and_stays_symplectic(flow):
    h, t, dt, n_a = flow
    n = h.shape[0] // 2
    series = propagate(QuadraticHamiltonian.constant(h), t, dt)
    m = series.final_matrix
    assert np.max(np.abs(m - expm(t * standard_omega(n) @ h))) <= 1e-10 * (1.0 + np.max(np.abs(m)))
    norms = np.array([np.max(np.abs(mat)) for mat in series.matrices])
    assert np.all(series.defects <= DEFECT_FACTOR * (1.0 + norms ** 2))
    if n_a is not None:
        lower, upper = squashed_bounds(polar_decompose(m).t_part, np.eye(2 * n), ModeCount(n, n_a))
        assert lower <= upper


def test_constant_propagate_makes_at_most_two_exponentials(monkeypatch):
    calls = []

    def counting_expm(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(dynamics, "expm", counting_expm)
    ham = QuadraticHamiltonian.constant(np.diag([-1.0, 1.0]))
    propagate(ham, 24.0, 0.002, store_every=60)          # 200 equal segments
    assert len(calls) == 1
    calls.clear()
    propagate(ham, 24.0, 0.002, store_every=70)          # and a shorter last one
    assert len(calls) == 2


def test_propagate_second_order_convergence():
    # smooth drive; halving dt should cut the error by about 4
    def h_of_t(t):
        return np.array([[1.0 + 0.5 * np.cos(1.3 * t), 0.0], [0.0, 1.0]])

    ham = QuadraticHamiltonian(h=h_of_t, n_modes=1)
    ref = propagate(ham, 5.0, 5e-5, store_every=10 ** 5).final_matrix
    errs = []
    for dt in (0.02, 0.01, 0.005):
        got = propagate(ham, 5.0, dt, store_every=10 ** 6).final_matrix
        errs.append(np.max(np.abs(got - ref)))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 3.0 < r1 < 5.2 and 3.0 < r2 < 5.2


def test_last_step_ends_at_t_final():
    # 99 / (99/81) rounds to 81 steps, and 81 * (99/81) is one ulp above 99
    t_final, dt = 99.0, 99.0 / 81
    assert 81 * (t_final / 81) != t_final
    ham = QuadraticHamiltonian.constant(np.eye(2))
    assert sample_times(t_final, dt, 14)[-1] == t_final
    assert [t for _, t, _ in step_loop(ham, t_final, 81, [40, 81])][-1] == t_final
    series = propagate(ham, t_final, dt, store_every=14)
    assert series.t_final == t_final
    assert np.array_equal(series.times, sample_times(t_final, dt, 14))
    traj = evolve_fock(FockState.fock((0,), 4), ham, t_final, FockConfig(dt=dt), store_every=14)
    assert np.array_equal(traj.times, series.times)


def test_evolve_covariance_basics():
    g0 = np.diag([1.5, 1.5])
    assert np.allclose(evolve_covariance(g0, np.eye(2)), g0)
    theta = 0.7
    rot = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    assert np.allclose(evolve_covariance(np.eye(2), rot), np.eye(2))
    r = 0.4
    squeeze = np.diag([np.exp(r), np.exp(-r)])
    assert np.allclose(evolve_covariance(np.eye(2), squeeze),
                       np.diag([np.exp(2 * r), np.exp(-2 * r)]))


def test_evolve_covariance_preserves_spectrum_and_purity():
    rng = np.random.default_rng(11)
    g0 = np.repeat([1.0, 1.7], 2) * np.eye(4)
    s = random_symplectic(2, rng)
    g1 = evolve_covariance(g0, s)
    assert np.allclose(williamson_spectrum(g1), [1.7, 1.0], atol=1e-9)
    s2 = random_symplectic(2, rng)
    assert is_pure(evolve_covariance(s2 @ s2.T, s))


def test_polar_orthogonal_input():
    theta = 1.1
    rot = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    pair = polar_decompose(rot)
    assert np.allclose(pair.t_part, np.eye(2), atol=1e-12)
    assert np.allclose(pair.u_part, rot, atol=1e-12)


def test_polar_symmetric_pd_input():
    rng = np.random.default_rng(13)
    s = random_symplectic(2, rng)
    m = s @ s.T
    pair = polar_decompose(m)
    assert np.allclose(pair.t_part, m, atol=1e-9)
    assert np.allclose(pair.u_part, np.eye(4), atol=1e-9)


def test_polar_round_trip_and_symplectic_factors():
    rng = np.random.default_rng(17)
    omega = standard_omega(2)
    for _ in range(10):
        t0 = random_symplectic(2, rng)
        t0 = sqrt_pd(t0 @ t0.T)                      # symplectic PD
        u0 = polar_decompose(random_symplectic(2, rng)).u_part
        m = t0 @ u0
        pair = polar_decompose(m)
        assert np.max(np.abs(pair.t_part - t0)) < 1e-9 * (1 + np.max(np.abs(t0)))
        assert np.max(np.abs(pair.u_part - u0)) < 1e-9
        for factor in (pair.t_part, pair.u_part):
            assert np.max(np.abs(factor @ omega @ factor.T - omega)) < 1e-9


def test_stroboscopic_identity_and_round_trip():
    assert np.max(np.abs(stroboscopic_generator(np.eye(4), 2.0))) < 1e-12
    rng = np.random.default_rng(19)
    h = rng.normal(size=(4, 4))
    h = 0.1 * (h + h.T)
    k0 = standard_omega(2) @ h
    k = stroboscopic_generator(expm(k0), 1.0)
    assert np.max(np.abs(k - k0)) < 1e-9


def test_stroboscopic_rejects_negative_real_eigenvalue():
    # rotation by pi has eigenvalues -1
    m = np.diag([-1.0, -1.0])
    with pytest.raises(NoRealLogarithm):
        stroboscopic_generator(m, 1.0)


def test_stroboscopic_generator_is_quadratic_form():
    rng = np.random.default_rng(23)
    m = random_symplectic(2, rng, scale=0.3)
    k = stroboscopic_generator(m, 0.7)
    omega_k = standard_omega(2) @ k
    assert np.max(np.abs(omega_k - omega_k.T)) < 1e-8 * (1 + np.max(np.abs(omega_k)))
