"""Piecewise-constant Hamiltonians as data: pieces, breakpoints, kept piece exponentials."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import entgrowth.dynamics as dynamics
from entgrowth.config import parse_config
from entgrowth.dynamics import QuadraticHamiltonian, generator, propagate, step_loop
from entgrowth.errors import DimensionMismatch, NonSymmetricH
from entgrowth.fock import FockConfig, FockState, evolve_fock
from entgrowth.lyapunov import qr_spectrum
from entgrowth.phase_space import standard_omega
from entgrowth.scenarios import (
    _chain_form,
    parametric_drive_hamiltonian,
    run_scenario,
)
from reference import breakpoints, default_scenario

PERIOD, T_ON = 2.2, 0.6
H_ON = _chain_form([1.0, 1.0], 0.15)
H_OFF = _chain_form([-1.0, 1.0], 0.15)


def _piecewise_config_ham():
    doc = {
        "modes": {"total": 2, "subsystem": 1},
        "hamiltonian": {"type": "piecewise", "period": PERIOD, "pieces": [
            {"duration": T_ON, "h": {"rows": 4, "cols": 4, "data": H_ON.ravel().tolist()}},
            {"duration": PERIOD - T_ON,
             "h": {"rows": 4, "cols": 4, "data": H_OFF.ravel().tolist()}}]},
        "initial_state": {"type": "gaussian", "covariance": "vacuum"},
        "run": {"t_final": 4 * PERIOD, "dt": 0.01},
    }
    cfg = parse_config(json.dumps(doc))
    return cfg.hamiltonian


def _callable_wrapper(ham):
    return QuadraticHamiltonian(h=lambda t: ham.h(t), n_modes=ham.n_modes, period=ham.period)


def test_pieces_are_checked_at_construction():
    asym = np.zeros((2, 2))
    asym[0, 1] = 1.0
    with pytest.raises(NonSymmetricH):
        QuadraticHamiltonian.piecewise([(1.0, np.eye(2)), (1.0, asym)], 2.0)
    with pytest.raises(DimensionMismatch):
        QuadraticHamiltonian.piecewise([(1.0, np.eye(2)), (1.0, np.eye(4))], 2.0)
    with pytest.raises(ValueError, match="sum"):
        QuadraticHamiltonian.piecewise([(1.0, np.eye(2)), (1.5, np.eye(2))], 2.0)
    with pytest.raises(ValueError, match="positive"):
        QuadraticHamiltonian.piecewise([(2.5, np.eye(2)), (-0.5, np.eye(2))], 2.0)
    with pytest.raises(NonSymmetricH):
        QuadraticHamiltonian.constant(asym)


def test_h_of_t_is_derived_from_the_pieces():
    ham = parametric_drive_hamiltonian(omega_on=1.0, kappa=1.0, coupling=0.15)
    assert ham.h(0.0) is ham.pieces[0][1]
    assert ham.h(T_ON) is ham.pieces[1][1]          # a breakpoint starts its piece
    assert ham.h(T_ON - 1e-9) is ham.pieces[0][1]
    assert ham.h(3 * PERIOD + 0.1) is ham.pieces[0][1]
    assert ham.h(-0.1) is ham.pieces[1][1]
    assert np.array_equal(ham.h(1.0), H_OFF)
    assert [round(b, 12) for b in breakpoints(ham, 5.0)] == [0.6, 2.2, 2.8, 4.4]
    const = QuadraticHamiltonian.constant(np.eye(2))
    assert len(const.pieces) == 1 and const.period is None
    assert breakpoints(const, 100.0) == [] and const.piece_at(1e6) == 0
    with pytest.raises(ValueError):
        ham.pieces[0][1][0, 0] = 5.0                 # forms are read-only


def test_misaligned_grid_matches_aligned_grid():
    # segments crossing a jump are split there into exact piece exponentials,
    # so a grid that misses the breakpoints loses nothing
    ham = parametric_drive_hamiltonian()
    ref = propagate(ham, 17.6, 0.01, store_every=10 ** 6).final_matrix
    scale = np.max(np.abs(ref))
    for dt in (0.0137, 0.0137 / 4):
        got = propagate(ham, 17.6, dt, store_every=7).final_matrix
        assert np.max(np.abs(got - ref)) <= 1e-9 * scale, dt


def test_breakpoint_near_grid_point_does_not_split():
    ham = parametric_drive_hamiltonian()
    # dt = 0.01 puts every breakpoint on the grid, and segments of 10 steps
    # put them on segment edges: no segment is split
    n_steps = 1760
    aligned = list(step_loop(ham, 17.6, n_steps, range(10, n_steps + 1, 10)))
    assert all(len(factors) == 1 for _, _, factors in aligned)
    # on a grid that misses them, each breakpoint splits the segment it lies in once
    events = [*range(7, 1285, 7), 1285]
    split = [len(factors) - 1 for _, _, factors in step_loop(ham, 17.6, 1285, events)]
    assert sum(split) == len(breakpoints(ham, 17.6)) and max(split) == 1


def test_piecewise_config_builtin_agree_bitwise_and_callable_to_roundoff():
    built = parametric_drive_hamiltonian(omega_on=1.0, kappa=1.0, coupling=0.15)
    from_config = _piecewise_config_ham()
    wrapped = _callable_wrapper(built)
    runs = [propagate(ham, 4 * PERIOD, 0.01, store_every=55).matrices
            for ham in (built, from_config, wrapped)]
    assert np.array_equal(runs[0], runs[1])
    # the callable is stepped per dt, the data per segment: same flow, other roundoff
    assert np.max(np.abs(runs[2] - runs[0])) <= 1e-10 * (1.0 + np.max(np.abs(runs[0])))

    cfg = FockConfig(dt=0.01, leak_ceiling=1.0)
    psi0 = FockState.fock((0, 0), 8)
    stacks = [evolve_fock(psi0, propagate(ham, 1.2, 0.01, store_every=30).matrices, 1.2, cfg,
                          store_every=30).amplitudes
              for ham in (built, from_config, wrapped)]
    assert np.array_equal(stacks[0], stacks[1])
    assert np.max(np.abs(stacks[2] - stacks[0])) <= 1e-10


@pytest.fixture
def expm_calls(monkeypatch):
    """The shapes of the arguments of every ``dynamics.expm`` call."""
    calls = []
    package_expm = dynamics.expm

    def counting_expm(a):
        calls.append(a.shape)
        return package_expm(a)

    monkeypatch.setattr(dynamics, "expm", counting_expm)
    return calls


def test_step_exponentials_are_computed_once_per_piece(expm_calls):
    calls = expm_calls
    ham = parametric_drive_hamiltonian()
    # each stored segment is one period: the period map of the two piece exponentials
    series = propagate(ham, 17.6, 0.01, store_every=220)
    assert len(calls) == 2
    m_tau = series.matrices[1]
    assert np.allclose(series.matrices[2], m_tau @ m_tau, rtol=1e-12, atol=1e-12)
    # the Hamiltonian keeps them: another stage on it makes none
    calls.clear()
    qr_spectrum(ham, 60 * PERIOD, PERIOD / 220.0, residual_tol=0.5)
    assert calls == []
    qr_spectrum(parametric_drive_hamiltonian(), 60 * PERIOD, PERIOD / 220.0, residual_tol=0.5)
    assert len(calls) == 2
    # a callable keeps one fresh exponential per step, stacked per stored segment
    calls.clear()
    propagate(_callable_wrapper(ham), PERIOD, 0.01)
    assert calls == [(1, 4, 4)] * 220
    calls.clear()
    propagate(_callable_wrapper(ham), PERIOD, 0.01, store_every=220)
    assert calls == [(220, 4, 4)]


def test_every_flow_stage_of_a_run_shares_the_piece_exponentials(expm_calls):
    # propagation and the Floquet stage's one period read the same two
    # matrices; a second run of the same config makes none.  A constant flow
    # makes one for its stored steps; its spectrum is read off K
    drive = default_scenario("parametric_drive")
    assert run_scenario(drive, write_outputs=False).ok
    assert len(expm_calls) == 2
    expm_calls.clear()
    assert run_scenario(drive, write_outputs=False).ok
    assert expm_calls == []
    assert run_scenario(default_scenario("coupled_chain"), write_outputs=False).ok
    assert len(expm_calls) == 1


def test_kept_piece_exponentials_are_read_only():
    ham = parametric_drive_hamiltonian()
    factor = ham.exponential(0.6, 0.3)
    assert factor is ham.exponential(0.6, 2.5)          # same piece one period later
    assert np.array_equal(factor, dynamics.expm(0.6 * generator(ham, 0.3)))
    with pytest.raises(ValueError):
        factor[0, 0] = 5.0
    with pytest.raises(ValueError):
        _callable_wrapper(ham).exponential(0.6, 0.3)


def _per_step_product(ham, t_final, n_steps):
    """M(t_k) at every grid step, one step at a time, each split at the breakpoints inside it."""
    dt = t_final / n_steps
    jumps = breakpoints(ham, t_final)
    m = np.eye(2 * ham.n_modes)
    out = [m]
    for k in range(n_steps):
        lo, hi = k * dt, t_final if k == n_steps - 1 else (k + 1) * dt
        edges = [lo, *(b for b in jumps if lo < b < hi), hi]
        for a, b in zip(edges, edges[1:]):
            m = expm((b - a) * generator(ham, 0.5 * (a + b))) @ m
        out.append(m)
    return np.array(out)


def _assert_stored_match_per_step(ham, t_final, dt, store_every):
    series = propagate(ham, t_final, dt, store_every=store_every)
    n_steps = dynamics.step_count(t_final, dt)
    want = _per_step_product(ham, t_final, n_steps)[dynamics.stored_steps(n_steps, store_every)]
    assert np.max(np.abs(series.matrices - want), axis=(1, 2)).max() <= \
        1e-10 * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("ham, t_final, dt, store_every", [
    (parametric_drive_hamiltonian(), 17.6, 0.01, 220),
    (parametric_drive_hamiltonian(), 17.6, 0.0137, 50),
    (QuadraticHamiltonian.constant(_chain_form([-1.0, -0.64], 0.2)), 24.0, 0.002, 60),
])
def test_stored_matrices_match_the_per_step_product(ham, t_final, dt, store_every):
    _assert_stored_match_per_step(ham, t_final, dt, store_every)


@settings(max_examples=30, deadline=None)
@given(pieces=st.lists(st.tuples(st.floats(0.05, 1.0), st.lists(st.floats(-0.8, 0.8), min_size=3,
                                                                 max_size=3)),
                       min_size=2, max_size=3),
       periods=st.floats(0.3, 4.0), n_steps=st.integers(5, 200),
       store_every=st.integers(1, 60))
def test_stride_matches_the_per_step_product(pieces, periods, n_steps, store_every):
    pieces = [(d, np.array([[v[0], v[1]], [v[1], v[2]]])) for d, v in pieces]
    period = sum(d for d, _ in pieces)
    ham = QuadraticHamiltonian.piecewise(pieces, period)
    t_final = periods * period
    _assert_stored_match_per_step(ham, t_final, t_final / n_steps, store_every)


_forms = st.lists(st.floats(-0.8, 0.8), min_size=3, max_size=3).map(
    lambda v: np.array([[v[0], v[1]], [v[1], v[2]]]))


@settings(max_examples=40, deadline=None)
@given(pieces=st.lists(st.tuples(st.floats(0.05, 1.0), _forms), min_size=2, max_size=3),
       dt=st.floats(0.003, 0.4))
def test_one_period_is_the_ordered_product_of_piece_exponentials(pieces, dt):
    period = sum(d for d, _ in pieces)
    ham = QuadraticHamiltonian.piecewise(pieces, period)
    got = propagate(ham, period, dt, store_every=10 ** 6).final_matrix
    want = np.eye(2)
    for duration, form in pieces:
        want = expm(duration * (standard_omega(1) @ form)) @ want
    assert np.max(np.abs(got - want)) <= 1e-10 * (1.0 + np.max(np.abs(want)))


def test_generator_of_a_piece_is_its_form():
    ham = parametric_drive_hamiltonian()
    k = generator(ham, 0.3)
    assert np.array_equal(k, standard_omega(2) @ ham.pieces[0][1])
    assert math.isinf(QuadraticHamiltonian.constant(np.eye(2)).pieces[0][0])
