"""Limiting-matrix estimates, spectra, regularity, polar-factor comparisons."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entgrowth.dynamics import PolarPair, QuadraticHamiltonian, propagate
from entgrowth.errors import NotConverged
from entgrowth.lyapunov import (
    floquet_spectrum,
    limiting_matrix_estimate,
    lyapunov_spectrum,
    qr_spectrum,
    qr_block_steps,
    regularity_check,
    spectrum_from_propagation,
)
from entgrowth.phase_space import standard_omega
from entgrowth.scenarios import (
    coupled_chain_form,
    inverted_pair_form,
    metastable_form,
    parametric_drive_hamiltonian,
)
import reference
from reference import inverted_pair_exponents, polar_factor_exponents

INVERTED = QuadraticHamiltonian.constant(np.diag([-1.0, 1.0]))
HARMONIC = QuadraticHamiltonian.constant(np.eye(2))


def test_limiting_matrix_identity():
    assert np.max(np.abs(limiting_matrix_estimate(np.eye(4), 3.0))) < 1e-14


def test_limiting_matrix_diagonal():
    lam, t = 0.8, 5.0
    m = np.diag([np.exp(lam * t), np.exp(-lam * t)])
    assert np.allclose(limiting_matrix_estimate(m, t), np.diag([lam, -lam]), atol=1e-12)


def test_limiting_matrix_metastable_decays():
    k = standard_omega(2) @ metastable_form()
    norms = []
    for t in (10.0, 100.0, 1000.0):
        norms.append(np.max(np.abs(limiting_matrix_estimate(np.eye(4) + t * k, t))))
    assert norms[0] > norms[1] > norms[2]
    assert norms[2] < 1.5 * np.log(1000.0) / 1000.0


def test_spectrum_inverted_oscillator():
    data = lyapunov_spectrum(INVERTED, t_star=20.0, dt=1e-3, residual_tol=0.2)
    assert np.allclose(data.exponents, [1.0, -1.0], atol=1e-6)
    assert np.allclose(data.basis @ data.basis.T, np.eye(2), atol=1e-10)


def test_spectrum_harmonic_oscillator():
    data = lyapunov_spectrum(HARMONIC, t_star=20.0, dt=1e-3, residual_tol=1e-6)
    assert np.allclose(data.exponents, 0.0, atol=1e-9)


def _roundoff_bound(k):
    """Roundoff of the exact exponents Re lambda of a generator K.

    Each eigenvalue moves by at most cond(V) times the backward error
    eps ||K|| of the eigensolve (Bauer-Fike); the factor 16 n covers the
    norm equivalences.
    """
    vecs = np.linalg.eig(k)[1]
    return 16 * len(k) * np.finfo(float).eps * np.linalg.cond(vecs) * np.linalg.norm(k, 2)


def test_spectrum_matches_generator_eigenvalues():
    # time-independent case: exponents equal sorted real parts of eig(K), to roundoff
    rng = np.random.default_rng(5)
    h = rng.normal(size=(4, 4))
    h = 0.4 * (h + h.T)
    ham = QuadraticHamiltonian.constant(h)
    k = standard_omega(2) @ h
    expected = np.sort(np.linalg.eigvals(k).real)[::-1]
    data = lyapunov_spectrum(ham, t_star=1.0, dt=0.01, residual_tol=0.0)
    # read off K itself: no horizon, and no propagated map
    assert data.method == "floquet" and data.horizon == 0.0 and data.residual == 0.0
    error = np.max(np.abs(data.exponents - expected))
    assert error <= _roundoff_bound(k) and error < 1e-14


@st.composite
def constant_flows(draw):
    """A constant flow on 2 to 4 modes whose generator has a real unstable pair."""
    n_modes = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return QuadraticHamiltonian.constant(reference.random_unstable_hamiltonian_form(n_modes, rng))


@settings(max_examples=25, deadline=None)
@given(constant_flows())
def test_constant_spectrum_is_exact_and_the_limit_of_the_qr_estimate(ham):
    # a constant flow's exponents are the real parts of eig(K) to roundoff,
    # and QR at a long horizon lies within its residual plus the
    # 2 ln cond(V) / t* of a bounded direction
    k = standard_omega(ham.n_modes) @ ham.pieces[0][1]
    exact = lyapunov_spectrum(ham, 1.0, 0.01, residual_tol=0.0)
    assume(exact.method == "floquet")
    expected = np.sort(np.linalg.eigvals(k).real)[::-1]
    assert np.max(np.abs(exact.exponents - expected)) <= _roundoff_bound(k)
    assert np.allclose(exact.basis @ exact.basis.T, np.eye(len(k)), atol=1e-12)
    t_star = 600.0
    qr = qr_spectrum(ham, t_star, 0.05, residual_tol=np.inf)
    bias = 2.0 * np.log(np.linalg.cond(np.linalg.eig(k)[1])) / t_star
    deviation = np.sort(qr.exponents)[::-1] - exact.exponents
    assert np.max(np.abs(deviation)) <= qr.residual + bias + 1e-12


def test_qr_and_svd_agree_at_moderate_horizon():
    ham = QuadraticHamiltonian.constant(inverted_pair_form())
    series = propagate(ham, 12.0, 0.01, store_every=10)
    svd_data = spectrum_from_propagation(series, residual_tol=np.inf)
    qr_data = qr_spectrum(ham, 12.0, 0.01, residual_tol=np.inf)
    assert np.max(np.abs(svd_data.exponents - qr_data.exponents)) < 0.05
    # bases span the same flag up to sign
    overlap = np.abs(np.sum(svd_data.basis * qr_data.basis, axis=1))
    assert np.all(overlap > 0.99)


def test_qr_resolves_contracting_directions_at_long_horizon():
    ham = QuadraticHamiltonian.constant(inverted_pair_form())
    expected = inverted_pair_exponents()
    data = qr_spectrum(ham, 120.0, 0.01, residual_tol=np.inf)
    # Richardson refinement across the halved horizon recovers 4 digits
    assert np.max(np.abs(data.exponents - expected)) < 2e-3
    assert np.max(np.abs(data.raw_exponents - expected)) < 4 * data.residual


@pytest.fixture
def qr_calls(monkeypatch):
    calls = []
    real_qr = np.linalg.qr

    def counting_qr(a, *args, **kwargs):
        calls.append(a.shape)
        return real_qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    return calls


def test_qr_blocks_follow_the_growth_rate(qr_calls):
    # one QR per block of growth e^2, plus the half horizon and t*
    h = coupled_chain_form()
    lam = float(np.max(np.linalg.eigvals(standard_omega(4) @ h).real))
    qr_spectrum(QuadraticHamiltonian.constant(h), 120.0, 0.01, residual_tol=np.inf)
    assert abs(len(qr_calls) - (lam * 120.0 / 2.0 + 3.0)) <= 3.0, len(qr_calls)
    # a periodic drive is pushed one period map per block: at most 2 QRs per period
    qr_calls.clear()
    qr_spectrum(parametric_drive_hamiltonian(), 60 * 2.2, 2.2 / 220.0, residual_tol=np.inf)
    assert len(qr_calls) <= 2 * 60
    # a nilpotent K has no exponential growth, and still gets finite blocks
    qr_calls.clear()
    ham = QuadraticHamiltonian.constant(metastable_form())
    assert qr_block_steps(ham, 0.25, 4000) < 4000
    qr_spectrum(ham, 1000.0, 0.25, residual_tol=np.inf)
    assert len(qr_calls) > 3


@st.composite
def two_piece_flows(draw):
    """A periodic flow of two pieces on 2 or 3 modes, with generic random forms.

    The forms are seeded normal draws: sparse or axis-aligned forms can
    leave the QR estimate's identity start frame with no component along a
    flow direction, which only roundoff seeds (an error near ln(1/eps) / t*).
    """
    dim = 2 * draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pieces = []
    for _ in range(2):
        a = draw(st.floats(0.1, 1.0)) * rng.normal(size=(dim, dim))
        pieces.append((draw(st.floats(0.2, 1.5)), 0.5 * (a + a.T)))
    return QuadraticHamiltonian.piecewise(pieces, sum(d for d, _ in pieces))


@settings(max_examples=25, deadline=None)
@given(two_piece_flows())
def test_floquet_spectrum_is_the_limit_of_the_qr_estimate(ham):
    # M(t*) = V diag(mu)^k V^-1 at t* = k tau, so its log singular values
    # are within ln cond(V) of k ln|mu|: the estimate's bias, on top of the
    # 1/t* drift its residual measures, is at most 2 ln cond(V) / t*, plus
    # roundoff
    tau = ham.period
    period_map = propagate(ham, tau, tau / 50, store_every=50).final_matrix
    exact = lyapunov_spectrum(ham, 1.0, tau / 50, residual_tol=np.inf, period_map=period_map)
    assume(exact.method == "floquet")
    assert np.array_equal(np.sort(exact.exponents)[::-1], exact.exponents)
    assert np.allclose(exact.basis @ exact.basis.T, np.eye(len(period_map)), atol=1e-12)
    # whole periods, so that M(t*) = M(tau)^k; the estimate's order within
    # a cluster of near-equal exponents is arbitrary, so both are sorted
    t_star = tau * math.ceil(600.0 / tau)
    qr = qr_spectrum(ham, t_star, tau / 50, residual_tol=np.inf)
    bias = 2.0 * np.log(np.linalg.cond(np.linalg.eig(period_map)[1])) / t_star
    deviation = np.sort(qr.exponents)[::-1] - exact.exponents
    assert np.max(np.abs(deviation)) <= qr.residual + bias + 1e-12


def test_periodic_spectrum_routes_by_the_period_map():
    # a drive's map is well conditioned; a one-piece metastable map is a
    # Jordan block, and keeps the QR estimate
    drive = parametric_drive_hamiltonian()
    data = lyapunov_spectrum(drive, 132.0, 0.01, residual_tol=0.0)
    assert data.method == "floquet" and data.residual == 0.0 and data.horizon == 2.2
    assert np.array_equal(data.exponents, data.raw_exponents)
    defective = QuadraticHamiltonian.piecewise([(1.0, metastable_form())], 1.0)
    period_map = propagate(defective, 1.0, 0.25, store_every=4).final_matrix
    assert floquet_spectrum(period_map, 1.0) is None
    data = lyapunov_spectrum(defective, 1000.0, 0.25, residual_tol=np.inf)
    qr = qr_spectrum(defective, 1000.0, 0.25, residual_tol=np.inf)
    assert data.method == "qr" and np.array_equal(data.exponents, qr.exponents)


def test_trace_free_spectrum():
    ham = QuadraticHamiltonian.constant(inverted_pair_form())
    data = qr_spectrum(ham, 80.0, 0.01, residual_tol=np.inf)
    assert abs(np.sum(data.raw_exponents)) < 1e-8


def test_not_converged_raised():
    # non-normal generator: the finite-horizon estimate drifts like 1/t.  A
    # callable h has no exact map, so it takes the QR estimate
    ham = QuadraticHamiltonian(h=lambda t: inverted_pair_form(), n_modes=2)
    with pytest.raises(NotConverged):
        lyapunov_spectrum(ham, t_star=4.0, dt=1e-3, residual_tol=1e-6)


def test_regularity_inverted_and_random():
    data = lyapunov_spectrum(INVERTED, t_star=20.0, dt=1e-3, residual_tol=0.2)
    rep = regularity_check(data, tol=max(1e-8, 2 * data.residual))
    assert rep.is_regular
    rng = np.random.default_rng(11)
    h = rng.normal(size=(4, 4))
    h = 0.4 * (h + h.T)
    ham = QuadraticHamiltonian.constant(h)
    data = qr_spectrum(ham, 90.0, 0.01, residual_tol=np.inf)
    rep = regularity_check(data, tol=max(1e-8, 4 * data.residual))
    assert rep.is_regular


def test_regularity_free_particle():
    # h = p^2/2: nilpotent generator, all exponents zero
    ham = QuadraticHamiltonian.constant(np.diag([0.0, 1.0]))
    data = lyapunov_spectrum(ham, 500.0, 0.5, residual_tol=np.inf)
    assert np.max(np.abs(data.raw_exponents)) < 0.02
    assert regularity_check(data, tol=0.05).is_regular


def test_polar_factor_exponents_orthogonal_flow():
    series = propagate(HARMONIC, 30.0, 1e-3, store_every=100)
    comp = polar_factor_exponents(series, residual_tol=np.inf)
    assert np.max(np.abs(comp.exponents_m)) < 1e-8
    assert np.max(np.abs(comp.exponents_t)) < 1e-8


def test_polar_factor_exponents_inverted():
    series = propagate(INVERTED, 14.0, 1e-3, store_every=100)
    comp = polar_factor_exponents(series, residual_tol=np.inf)
    assert np.allclose(comp.exponents_m, [1.0, -1.0], atol=1e-3)
    assert np.allclose(comp.exponents_t, [1.0, -1.0], atol=1e-3)
    assert np.allclose(comp.exponents_sqrt_t, [0.5, -0.5], atol=1e-3)


def test_polar_factor_exponents_random_unstable():
    rng = np.random.default_rng(13)
    h = rng.normal(size=(4, 4))
    h = 0.5 * (h + h.T)
    ham = QuadraticHamiltonian.constant(h)
    k = standard_omega(2) @ h
    top = np.max(np.linalg.eigvals(k).real)
    if top < 0.2:
        pytest.skip("seed produced a stable form")
    t_star = min(14.0 / top, 40.0)
    series = propagate(ham, t_star, 0.01, store_every=20)
    comp = polar_factor_exponents(series, residual_tol=np.inf)
    assert np.all(comp.dev_t <= comp.tol)
    assert np.all(comp.dev_sqrt <= comp.tol)
    assert comp.worst_ratio <= 1.0


def test_polar_factor_exponents_catch_a_moved_top_exponent(monkeypatch):
    # T's top eigenvalue scaled by e^(1e-6 t*) moves lambda_1(T) by 1e-6
    series = propagate(INVERTED, 14.0, 1e-3, store_every=100)
    t_star = series.t_final
    real_polar = reference.polar_decompose

    def moved_polar(m):
        pair = real_polar(m)
        w, v = np.linalg.eigh(pair.t_part)
        w[-1] *= np.exp(1e-6 * t_star)
        return PolarPair(t_part=(v * w) @ v.T, u_part=pair.u_part)

    comp = polar_factor_exponents(series, residual_tol=np.inf)
    assert comp.tol[0] < 1e-6
    monkeypatch.setattr(reference, "polar_decompose", moved_polar)
    with pytest.raises(NotConverged, match="exponent 0"):
        polar_factor_exponents(series, residual_tol=np.inf)


def test_polar_factor_exponents_catch_a_wrong_square_root(monkeypatch):
    # a root scaled by e^(t*) moves every lambda(sqrt T) by 1; T's spectrum is untouched
    series = propagate(INVERTED, 14.0, 1e-3, store_every=100)
    t_star = series.t_final
    real_sqrt = reference.sqrt_pd
    monkeypatch.setattr(reference, "sqrt_pd", lambda a: real_sqrt(a) * np.exp(t_star))
    with pytest.raises(NotConverged, match="dev\\(sqrt T\\)=1"):
        polar_factor_exponents(series, residual_tol=np.inf)
