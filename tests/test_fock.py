"""Truncated-number-basis oracle: operators, the Chebyshev reference, the recurrence,
entropies, moments."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm
from scipy.special import jv

import entgrowth.fock as fock
import reference
from entgrowth.config import matrix_to_json, parse_config
from entgrowth.dynamics import QuadraticHamiltonian, evolve_covariance, propagate
from entgrowth.entropy import renyi2_entropy, von_neumann_entropy
from entgrowth.errors import DimensionMismatch, TruncationLeak
from entgrowth.fitting import fit_slope
from entgrowth.fock import (
    FockConfig,
    FockState,
    build_hamiltonian,
    build_quadratures,
    covariance_of,
    evolve_fock,
    reduced_entropy,
    top_level_population,
)
from entgrowth.phase_space import SubsystemSpec, restrict
from entgrowth.scenarios import metastable_form, run_scenario, two_mode_squeezing_form
from reference import SPAN_CAP, chebyshev_evolve

TMS = QuadraticHamiltonian.constant(two_mode_squeezing_form())


def _oracle(psi0, ham, t_final, dt, store_every=1, leak_ceiling=1.0):
    """The recurrence's trajectory on the flow ``propagate`` stores for ``ham``."""
    matrices = propagate(ham, t_final, dt, store_every).matrices
    return evolve_fock(psi0, matrices, t_final, FockConfig(dt=dt, leak_ceiling=leak_ceiling),
                       store_every=store_every)


def test_quadrature_matrix_smallest_cutoff():
    q = build_quadratures(1, 4)[0].toarray()
    assert np.allclose(q[:2, :2].real, [[0.0, 1 / math.sqrt(2)], [1 / math.sqrt(2), 0.0]])


def test_vacuum_quadrature_variance():
    q, p = (m.toarray() for m in build_quadratures(1, 8))
    vac = np.zeros(8)
    vac[0] = 1.0
    assert abs(vac @ (q @ q) @ vac - 0.5) < 1e-12
    assert abs(vac @ (p @ p).real @ vac - 0.5) < 1e-12


def test_commutator_on_interior_block():
    q, p = (m.toarray() for m in build_quadratures(1, 10))
    comm = q @ p - p @ q
    interior = comm[: 9, : 9]
    assert np.allclose(interior, 1j * np.eye(9), atol=1e-12)


def test_two_mode_commutators_cross_vanish():
    q1, p1, q2, p2 = (m.toarray() for m in build_quadratures(2, 5))
    assert np.max(np.abs(q1 @ q2 - q2 @ q1)) < 1e-14
    assert np.max(np.abs(q1 @ p2 - p2 @ q1)) < 1e-14


def test_harmonic_hamiltonian_interior_spectrum():
    ham = QuadraticHamiltonian.constant(np.eye(2))
    op = build_hamiltonian(ham, 0.0, 12).toarray()
    # (q^2 + p^2)/2 is diagonal on the ladder: n + 1/2 on interior levels,
    # with the truncation anomaly confined to the very top entry
    assert np.max(np.abs(op - np.diag(np.diag(op)))) < 1e-12
    diag = np.diag(op).real
    assert np.allclose(diag[:11], np.arange(11) + 0.5, atol=1e-12)
    assert abs(diag[11] - 5.5) < 1e-12   # (d-1)/2 at the top


def test_metastable_hamiltonian_is_hermitian_coupling():
    ham = QuadraticHamiltonian.constant(metastable_form())
    op = build_hamiltonian(ham, 0.0, 6).toarray()
    assert np.max(np.abs(op - op.conj().T)) < 1e-12
    # equals (p1 q2 + q2 p1)/2 built directly from the quadratures
    _, p1, q2, _ = (m.toarray() for m in build_quadratures(2, 6))
    direct = 0.5 * (p1 @ q2 + q2 @ p1)
    assert np.max(np.abs(op - direct)) < 1e-12


@st.composite
def fock_forms(draw):
    """(h, cutoff): a symmetric form on 1-3 modes scaled by 1e-3 to 1e3, and a cutoff of 4-6."""
    n = draw(st.integers(1, 3))
    a = draw(hnp.arrays(np.float64, (2 * n, 2 * n), elements=st.floats(-1.0, 1.0)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    return scale * (0.5 * (a + a.T)), draw(st.integers(4, 6))


@settings(max_examples=40, deadline=None)
@given(fock_forms())
@example(form=(np.full((2, 2), 2.22507386e-313), 4))
def test_build_hamiltonian_is_exactly_hermitian(form):
    # (op + op^H) / 4 adds the same two numbers at (i, j) and, conjugated,
    # at (j, i), so the operator needs no Hermiticity check; every entry is
    # the dense (1/4) h_ab (xi_a xi_b + xi_b xi_a) to roundoff, which for a
    # subnormal form is a few smallest subnormals where the relative term
    # underflows to 0
    h, cutoff = form
    op = build_hamiltonian(QuadraticHamiltonian.constant(h), 0.0, cutoff).toarray()
    assert np.array_equal(op, op.conj().T)
    xi = [m.toarray() for m in build_quadratures(h.shape[0] // 2, cutoff)]
    dense = sum(0.25 * h[a, b] * (xi[a] @ xi[b] + xi[b] @ xi[a])
                for a in range(len(xi)) for b in range(len(xi)))
    atol = 1e-14 * cutoff * np.abs(h).sum() + 4 * h.size * np.finfo(float).smallest_subnormal
    assert np.allclose(op, dense, rtol=0.0, atol=atol)


@st.composite
def propagation_cases(draw, top_cutoff_3=10):
    """(h, cutoff, s, psi): a symmetric form with entries in [-1, 1] on 1-3 modes, a cutoff
    of 4-10 (4 to ``top_cutoff_3`` on 3 modes), a segment length of 1e-3 to 2 and a random
    normalized state."""
    n = draw(st.integers(1, 3))
    a = draw(hnp.arrays(np.float64, (2 * n, 2 * n), elements=st.floats(-1.0, 1.0)))
    cutoff = draw(st.integers(4, 10 if n < 3 else top_cutoff_3))
    s = 10.0 ** draw(st.floats(-3.0, math.log10(2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    psi = rng.normal(size=cutoff ** n) + 1j * rng.normal(size=cutoff ** n)
    return 0.5 * (a + a.T), cutoff, s, psi / np.linalg.norm(psi)


@settings(max_examples=30, deadline=None)
@given(propagation_cases())
def test_chebyshev_step_matches_dense_exponential(case):
    # one segment of length s: the propagator against the dense exponential
    # of the same sparse operator
    h, cutoff, s, psi = case
    n = h.shape[0] // 2
    ham = QuadraticHamiltonian.constant(h)
    _, amplitudes = chebyshev_evolve(FockState(psi.reshape((cutoff,) * n)), ham, s, s)
    out = amplitudes[-1].ravel()
    exact = expm(-1j * s * build_hamiltonian(ham, 0.0, cutoff).toarray()) @ psi
    assert np.max(np.abs(out - exact)) < 1e-12
    assert abs(np.linalg.norm(out) - 1.0) < 1e-13


@settings(max_examples=15, deadline=None)
@given(propagation_cases(top_cutoff_3=7), st.lists(st.floats(0.1, 1.0), min_size=2, max_size=3),
       st.integers(2, 4), st.integers(3, 12), st.integers(1, 7))
def test_periodic_pieces_match_the_dense_product(case, durations, periods, per_period, store):
    # a second form per extra piece, on a step grid that need not meet the breakpoints;
    # three modes stop at cutoff 7, where each dense exponential takes 0.1 s, not 2 s
    h, cutoff, _, psi = case
    n = h.shape[0] // 2
    forms = [h] + [np.roll(h, k, axis=(0, 1)) * (-1) ** k for k in range(1, len(durations))]
    period = sum(durations)
    ham = QuadraticHamiltonian.piecewise(list(zip(durations, forms)), period)
    _, amplitudes = chebyshev_evolve(FockState(psi.reshape((cutoff,) * n)), ham,
                                     periods * period, period / per_period, store)
    one_period = np.eye(cutoff ** n)
    for d, form in zip(durations, forms):
        op = build_hamiltonian(QuadraticHamiltonian.constant(form), 0.0, cutoff).toarray()
        one_period = expm(-1j * d * op) @ one_period
    exact = np.linalg.matrix_power(one_period, periods) @ psi
    assert np.max(np.abs(amplitudes[-1].ravel() - exact)) < 1e-12


def _random_state(cutoff, n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(cutoff,) * n) + 1j * rng.normal(size=(cutoff,) * n)
    return FockState(psi / np.linalg.norm(psi))


def test_every_stored_state_of_a_constant_run_matches_the_dense_exponential(monkeypatch):
    # 300 stored samples on one operator; at cutoff 8 the frame half-width is
    # w = 13, so the horizon spans x = 78 > SPAN_CAP and one restart runs
    spans = []    # the x of each recurrence
    real_count = reference.term_count
    monkeypatch.setattr(reference, "term_count", lambda x: spans.append(x) or real_count(x))
    op = build_hamiltonian(TMS, 0.0, 8)
    assert 6.0 * reference.chebyshev_frame(op).w > SPAN_CAP
    psi0 = _random_state(8, 2, 5)
    _, amplitudes = chebyshev_evolve(psi0, TMS, 6.0, 0.02, 1)
    assert len(amplitudes) == 301 and len(spans) == 2 and max(spans) <= SPAN_CAP
    step = expm(-1j * 0.02 * op.toarray())
    psi = psi0.amplitudes.ravel()
    for amp in amplitudes[1:]:
        psi = step @ psi
        assert np.max(np.abs(amp.ravel() - psi)) < 1e-12
    # one stored segment of x = 78 runs as two equal parts
    spans.clear()
    last = chebyshev_evolve(psi0, TMS, 6.0, 0.02, 300)[1][-1]
    assert len(spans) == 2 and max(spans) <= SPAN_CAP
    assert np.max(np.abs(last.ravel() - psi)) < 1e-12


def test_every_stored_state_of_a_piecewise_run_matches_the_dense_exponentials():
    # pieces of 1.63 and 1.57 on a 0.05 grid: 31-33 stored samples per piece
    # run, and every breakpoint falls inside a step
    beam = np.zeros((4, 4))
    beam[0, 2] = beam[2, 0] = beam[1, 3] = beam[3, 1] = 0.7
    beam += np.diag([1.0, 1.0, 0.6, 0.6])
    forms = [two_mode_squeezing_form(), beam]
    durations = [1.63, 1.57]
    ham = QuadraticHamiltonian.piecewise(list(zip(durations, forms)), 3.2)
    psi0 = _random_state(6, 2, 6)
    times, amplitudes = chebyshev_evolve(psi0, ham, 6.4, 0.05, 1)
    ops = [build_hamiltonian(QuadraticHamiltonian.constant(f), 0.0, 6).toarray() for f in forms]
    assert len(times) == 129
    psi, t_prev = psi0.amplitudes.ravel(), 0.0
    edges = [1.63, 3.2, 4.83, 6.4]
    for t, amp in zip(times[1:], amplitudes[1:]):
        cuts = [t_prev] + [e for e in edges if t_prev < e < t] + [t]
        for a, b in zip(cuts, cuts[1:]):
            psi = expm(-1j * (b - a) * ops[ham.piece_at(0.5 * (a + b))]) @ psi
        assert np.max(np.abs(amp.ravel() - psi)) < 1e-12
        t_prev = t


def test_chebyshev_coefficients_match_bessel_functions():
    # the DCT rows against J_k(x) from scipy, for x over [0, SPAN_CAP]: 1e-15
    # up to x = 16, then a bound growing like x, as the sampled phase x cos
    # theta carries a rounding of order x ulp (near x = 64 the two differ
    # by up to 2.4e-15, and scipy's J_k alone by up to 1.8e-15 from mpmath)
    n_terms = reference.term_count(SPAN_CAP)
    xs = np.linspace(0.0, SPAN_CAP, 641)
    ks = np.arange(n_terms)
    coef = reference.chebyshev_coefficients(xs, n_terms)
    bessel = coef / ((-1j) ** ks * np.where(ks == 0, 1.0, 2.0))
    err = np.max(np.abs(bessel - jv(ks, xs[:, None])), axis=1)
    assert np.all(err <= np.maximum(1e-15, 6e-17 * xs))
    # past the term count every J_k(x) is below the cut, for every x up to the cap
    tail = jv(np.arange(n_terms, n_terms + 40), xs[:, None])
    assert np.max(np.abs(tail)) < reference.CHEBYSHEV_CUT


@settings(max_examples=25, deadline=None)
@given(propagation_cases(top_cutoff_3=7), st.floats(0.0, 3.0), st.floats(1e-3, 3.0))
def test_one_recurrence_equals_two_in_turn(case, s1, s2):
    # exp(-i (s1 + s2) H) psi from one recurrence, from s1 then s2, and as
    # the second row of one recurrence over both
    h, cutoff, _, psi = case
    frame = reference.chebyshev_frame(build_hamiltonian(QuadraticHamiltonian.constant(h), 0.0,
                                                        cutoff))

    def states(start, lengths):
        out = np.empty((len(lengths), start.size), dtype=complex)
        last = reference.chebyshev_states(frame, start, lengths, [True] * len(lengths), out)
        assert np.array_equal(last, out[-1])
        return out

    whole = states(psi, [s1 + s2])[0]
    halves = states(states(psi, [s1])[0], [s2])[0]
    rows = states(psi, [s1, s2])
    assert np.max(np.abs(whole - halves)) < 1e-12
    assert np.max(np.abs(whole - rows[1])) < 1e-12


def _random_form(n_modes, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2 * n_modes, 2 * n_modes))
    return scale * (a + a.T)


def _padded(amplitudes):
    """A state given on few levels, as a maker of the same state at any cutoff."""
    def make(cutoff):
        amp = np.zeros((cutoff,) * amplitudes.ndim, dtype=complex)
        amp[(slice(len(amplitudes)),) * amplitudes.ndim] = amplitudes
        return FockState(amp)
    return make


def _two_piece_flow():
    beam = np.diag([1.0, 1.0, 0.6, 0.6])
    beam[0, 2] = beam[2, 0] = beam[1, 3] = beam[3, 1] = 0.7
    pieces = [(0.13, two_mode_squeezing_form(0.5)), (0.17, beam + _random_form(2, 3, 0.1))]
    return QuadraticHamiltonian.piecewise(pieces, 0.3)


# (state maker by cutoff, Hamiltonian, t_final, dt, store_every, cutoff): every kind of
# initial state, generic forms (B with all its entries), a periodic flow and three modes
RECURRENCE_CASES = {
    "fock": (lambda c: FockState.fock((1, 0), c),
             QuadraticHamiltonian.constant(_random_form(2, 1)), 0.2, 0.01, 1, 14),
    "superfock": (lambda c: FockState.superposition([(1.0, (0, 0)), (1j, (2, 1))], c, 2),
                  QuadraticHamiltonian.constant(_random_form(2, 2)), 0.2, 0.01, 1, 14),
    "coherent": (lambda c: FockState.coherent([0.5, -0.3j], c),
                 QuadraticHamiltonian.constant(_random_form(2, 4)), 0.2, 0.01, 1, 16),
    "cat": (lambda c: FockState.cat(0.8 + 0.3j, c, n_modes=2, mode=1),
            QuadraticHamiltonian.constant(_random_form(2, 5)), 0.2, 0.01, 1, 16),
    "raw tensor": (_padded(_random_state(4, 2, 7).amplitudes),
                   QuadraticHamiltonian.constant(_random_form(2, 6, 0.3)), 0.2, 0.01, 1, 16),
    "two-piece periodic": (
        lambda c: FockState.superposition([(1.0, (0, 0)), (1.0, (1, 1))], c, 2),
        _two_piece_flow(), 1.0, 0.01, 5, 14),
    "three modes": (_padded(_random_state(2, 3, 8).amplitudes),
                    QuadraticHamiltonian.constant(_random_form(3, 9, 0.2)), 0.2, 0.01, 1, 10),
}


@pytest.mark.parametrize("kind", list(RECURRENCE_CASES))
def test_recurrence_matches_the_chebyshev_reference(kind):
    # the reference runs 10 levels above the oracle's cutoff and is projected
    # onto the oracle's levels; wherever the oracle loses less than 1e-12
    # weight above them and the reference less than 1e-12 in its top two
    # levels, the amplitudes agree to 1e-10 after one global phase per sample
    make, ham, t_final, dt, store_every, cutoff = RECURRENCE_CASES[kind]
    traj = _oracle(make(cutoff), ham, t_final, dt, store_every)
    _, ref = chebyshev_evolve(make(cutoff + 10), ham, t_final, dt, store_every)
    projected = ref[(slice(None),) + (slice(cutoff + fock.MARGIN),) * (ref.ndim - 1)]
    compared = (traj.lost < 1e-12) & (top_level_population(ref) < 1e-12)
    assert compared.sum() >= 8, kind
    assert np.all(traj.lost > -1e-12)
    rec = traj.amplitudes * np.sqrt(1.0 - traj.lost).reshape((-1,) + (1,) * (ref.ndim - 1))
    for got, want in zip(rec[compared], projected[compared]):
        overlap = np.vdot(want, got)
        assert np.max(np.abs(got - overlap / abs(overlap) * want)) < 1e-10, kind


def test_high_occupation_state_fits_its_count_and_matches_the_reference(monkeypatch):
    # fock:11,11 at cutoff 14, its occupation three below the top: the Horner
    # polynomials of degree 22 outgrow the room beside the stack, so the
    # samples form in chunks, and the run's traced peak stays within the bytes
    # check_size counts; wherever the reference keeps less than 1e-12 in its
    # top two levels, the amplitudes agree to 1e-10 after one global phase
    chunks = []
    number_sum = fock._number_sum
    monkeypatch.setattr(fock, "_number_sum", lambda *args: chunks.append(len(args[1]))
                        or number_sum(*args))
    ham = QuadraticHamiltonian.constant(_random_form(2, 1, 0.3))
    cutoff, t_final, dt = 14, 0.3, 0.01
    matrices = propagate(ham, t_final, dt).matrices
    tracemalloc.start()
    try:
        traj = evolve_fock(FockState.fock((11, 11), cutoff), matrices, t_final,
                           FockConfig(dt=dt, leak_ceiling=1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(chunks) > 1 and sum(chunks) == len(matrices) == 31
    assert peak <= fock._run_bytes(2, cutoff, len(matrices))
    _, ref = chebyshev_evolve(FockState.fock((11, 11), cutoff + 14), ham, t_final, dt)
    projected = ref[:, :cutoff + fock.MARGIN, :cutoff + fock.MARGIN]
    compared = top_level_population(ref) < 1e-12
    assert compared.sum() >= 8
    rec = traj.amplitudes * np.sqrt(1.0 - traj.lost).reshape((-1, 1, 1))
    for got, want in zip(rec[compared], projected[compared]):
        overlap = np.vdot(want, got)
        assert np.max(np.abs(got - overlap / abs(overlap) * want)) < 1e-10


def test_normalized_coherent_and_cat_states_keep_their_terms():
    # the oracle maps the exact terms of either state, normalized or not
    for psi0 in (FockState.coherent([0.5, -0.3j], 12), FockState.cat(0.8, 12, n_modes=2)):
        again = psi0.normalized()
        assert again._terms is psi0._terms and len(psi0._terms) > 0
        assert np.array_equal(_oracle(psi0, TMS, 0.2, 0.01, 10).amplitudes,
                              _oracle(again, TMS, 0.2, 0.01, 10).amplitudes)
        assert FockState(psi0.amplitudes)._terms == ()


@pytest.mark.parametrize("name, cutoff, t_final", [("two_mode_squeezing", 24, 0.8),
                                                   ("inverted_pair", 30, 1.5)])
def test_vacuum_oracle_entropy_equals_the_gaussian_pipeline(name, cutoff, t_final):
    # no Schrodinger reference: the Schmidt entropy of the projected U|0> against
    # the Gaussian rows' S_vn_A, at every sample that loses less than 1e-12 weight
    # (the horizons are too short for the Gaussian exponent gate, whose failure
    # leaves the rows in place)
    def doc(state):
        return json.dumps({
            "modes": {"total": 2, "subsystem": 1},
            "hamiltonian": {"type": "builtin", "name": name},
            "initial_state": state,
            "run": {"t_final": t_final, "dt": 0.005, "store_every": 4},
            "tolerances": {"leak_ceiling": 1.0, "slope_rel_tol": 10.0}})

    fock_cfg = parse_config(doc({"type": "fock", "state": "fock:0,0", "cutoff": cutoff}))
    oracle = run_scenario(fock_cfg, write_outputs=False)
    gauss = run_scenario(parse_config(doc({"type": "gaussian", "covariance": "vacuum"})),
                         write_outputs=False)
    run = fock_cfg.run
    lost = _oracle(fock_cfg.initial_state, fock_cfg.hamiltonian, run.t_final, run.dt,
                   run.store_every).lost
    kept = lost < 1e-12
    assert 10 <= kept.sum() < len(kept)
    dev = np.abs(oracle.rows.s_vn_a - gauss.rows.s_vn_a)[kept]
    assert np.max(dev) < 1e-10, np.max(dev)


def test_subnormal_form_keeps_the_state_without_a_warning():
    # h12 = 1e-310 gives a Gershgorin half-width whose 2 / w overflows; the
    # frame takes it as w = 0, so no NaN enters the operator and the state
    # stays; the recurrence on the same flow keeps it to roundoff
    h = np.array([[0.0, 1e-310], [1e-310, 0.0]])
    ham = QuadraticHamiltonian.constant(h)
    psi0 = FockState.superposition([(1.0, (0,)), (1j, (1,))], 4, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, amplitudes = chebyshev_evolve(psi0, ham, 1.0, 0.1, 2)
        traj = _oracle(psi0, ham, 1.0, 0.1, store_every=2)
    assert len(amplitudes) == 6
    for amp in amplitudes:
        assert np.array_equal(amp, psi0.amplitudes)
    padded = _padded(psi0.amplitudes)(4 + fock.MARGIN).amplitudes
    assert np.max(np.abs(traj.amplitudes - padded)) < 1e-15


def test_harmonic_eigenstate_survival():
    ham = QuadraticHamiltonian.constant(np.eye(2))
    psi0 = FockState.fock((1,), 10)
    traj = _oracle(psi0, ham, 2.0, 0.01, store_every=20, leak_ceiling=1e-6)
    for amp in traj.amplitudes:
        assert abs(abs(amp[1]) - 1.0) < 1e-10


def test_constant_hamiltonian_is_built_once(monkeypatch):
    # the reference builds the operator once; the recurrence builds none
    builds = []

    def counting_build(*args):
        builds.append(args[1])
        return build_hamiltonian(*args)

    monkeypatch.setattr(fock, "build_hamiltonian", counting_build)
    times, _ = chebyshev_evolve(FockState.fock((0, 0), 8), TMS, 0.63, 0.005, 40)
    assert len(times) == 5 and len(builds) == 1     # 126 steps, a shorter last segment
    assert len(_oracle(FockState.fock((0, 0), 8), TMS, 0.63, 0.005, 40).times) == 5
    assert len(builds) == 1


def _flow(kind):
    """(Hamiltonian, t_final, dt, store_every) of one kind of Hamiltonian data."""
    if kind == "constant":
        return TMS, 0.63, 0.005, 40
    if kind == "multi-piece":
        beam = np.diag([1.0, 1.0, 0.6, 0.6])
        beam[0, 2] = beam[2, 0] = beam[1, 3] = beam[3, 1] = 0.7
        pieces = [(0.13, two_mode_squeezing_form(0.5)), (0.17, beam)]
        return QuadraticHamiltonian.piecewise(pieces, 0.3), 1.0, 0.01, 7
    if kind == "one-piece-periodic":
        return QuadraticHamiltonian.piecewise([(0.1, two_mode_squeezing_form(0.2))], 0.1), 2.0, 0.01, 50
    mod = np.zeros((4, 4))
    mod[0, 0] = 0.5
    cfg = parse_config(json.dumps({
        "modes": {"total": 2, "subsystem": 1},
        "hamiltonian": {"type": "fourier", "period": 2.0,
                        "base": matrix_to_json(two_mode_squeezing_form()),
                        "terms": [{"omega": math.pi, "cos": matrix_to_json(mod)}]},
        "initial_state": {"type": "gaussian", "covariance": "vacuum"},
        "run": {"t_final": 1.0, "dt": 0.01}}))
    return cfg.hamiltonian, 1.0, 0.01, 5


@pytest.mark.parametrize("kind", ["constant", "multi-piece", "one-piece-periodic", "fourier"])
def test_trajectory_is_one_stack_on_the_propagation_grid(kind):
    # the times of propagate bit for bit, and a stack whose memory holds its
    # stored states alone: no working tensor stays alive behind a sample
    ham, t_final, dt, store_every = _flow(kind)
    cutoff = 12
    traj = _oracle(FockState.fock((1, 0), cutoff), ham, t_final, dt, store_every)
    assert np.array_equal(traj.times, propagate(ham, t_final, dt, store_every).times)
    levels = cutoff + fock.MARGIN
    assert traj.amplitudes.shape == (len(traj.times), levels, levels)
    memory = traj.amplitudes
    while memory.base is not None:
        memory = memory.base
    assert memory.size == len(traj.times) * levels ** 2


def test_recurrence_blocks_hold_only_stored_rows(monkeypatch):
    # period = dt: 200 period maps on one operator, of which 4 end at a
    # stored sample; the reference's recurrence forms those and no others
    blocks = []
    real_series = reference.chebyshev_series

    def counting_series(frame, psi, taus, out):
        blocks.append(len(out))
        return real_series(frame, psi, taus, out)

    monkeypatch.setattr(reference, "chebyshev_series", counting_series)
    form = two_mode_squeezing_form(0.2)
    ham = QuadraticHamiltonian.piecewise([(0.01, form)], 0.01)
    times, amplitudes = chebyshev_evolve(FockState.fock((0, 0), 12), ham, 2.0, 0.01, 50)
    assert len(times) == 5
    assert 0 < max(blocks) <= len(times)
    m = propagate(QuadraticHamiltonian.constant(form), 2.0, 0.01, store_every=50).matrices
    g = np.array([fock.covariance_of(FockState(amp))[0] for amp in amplitudes])
    assert np.allclose(g, evolve_covariance(np.eye(4), m), atol=1e-9)


def test_tms_covariance_matches_gaussian_propagation():
    psi0 = FockState.fock((0, 0), 16)
    traj = _oracle(psi0, TMS, 0.6, 0.005, store_every=40, leak_ceiling=1e-6)
    gauss = propagate(TMS, 0.6, 0.005, store_every=40)
    for idx, t in enumerate(traj.times):
        if not traj.trusted[idx]:
            break
        g_fock, z = covariance_of(FockState(traj.amplitudes[idx]))
        g_exact = evolve_covariance(np.eye(4), gauss.matrices[idx])
        assert np.max(np.abs(g_fock - g_exact)) < 1e-6
        assert np.max(np.abs(z)) < 1e-8


def test_three_modes_at_cutoff_20_match_gaussian_propagation():
    # dimension 8000, over the former cap of 4096, fits the memory budget;
    # two-mode squeezing of modes 1-2, a beam splitter to an oscillating mode 3
    h = np.zeros((6, 6))
    h[:4, :4] = two_mode_squeezing_form()
    h[2, 4] = h[4, 2] = h[3, 5] = h[5, 3] = 0.5
    h[4, 4] = h[5, 5] = 1.0
    cfg = parse_config(json.dumps({
        "modes": {"total": 3, "subsystem": 1},
        "hamiltonian": {"type": "constant", "h": matrix_to_json(h)},
        "initial_state": {"type": "fock", "state": "fock:0,0,0", "cutoff": 20},
        "run": {"t_final": 0.8, "dt": 0.01, "store_every": 20}}))
    run = cfg.run
    gauss = propagate(cfg.hamiltonian, run.t_final, run.dt, store_every=run.store_every)
    traj = evolve_fock(cfg.initial_state, gauss.matrices, run.t_final,
                       FockConfig(dt=run.dt, leak_ceiling=1e-6), store_every=run.store_every)
    assert cfg.initial_state.amplitudes.size == 8000 and traj.trusted.all() and len(traj.times) == 5
    for amp, leak, m in zip(traj.amplitudes, traj.leaks, gauss.matrices):
        g_fock, _ = covariance_of(FockState(amp))
        # the slack covariance_of widens by the leak
        slack = max(1e-9, 100.0 * leak)
        assert np.max(np.abs(g_fock - evolve_covariance(np.eye(6), m))) <= slack


def test_metastable_fock_log_growth():
    # mode-1 volume element grows like t, so the Renyi-2 entropy of the
    # oracle covariance follows 0.5 ln(1 + t^2), i.e. ln t growth; the
    # occupation grows ~ t^2/4, so the cutoff only covers a couple of e-folds
    ham = QuadraticHamiltonian.constant(metastable_form())
    psi0 = FockState.fock((0, 0), 20)
    traj = _oracle(psi0, ham, 4.0, 0.01, store_every=20, leak_ceiling=1e-4)
    sub = SubsystemSpec.first_modes(1, 2)
    ts, s2 = [], []
    for idx, t in enumerate(traj.times):
        if t >= 0.8 and traj.trusted[idx]:
            g, _ = covariance_of(FockState(traj.amplitudes[idx]))
            ts.append(t)
            s2.append(renyi2_entropy(restrict(g, sub)))
    ts = np.array(ts)
    s2 = np.array(s2)
    assert ts[-1] >= 1.8
    expected = 0.5 * np.log(1.0 + ts ** 2)
    assert np.max(np.abs(s2 - expected)) < 0.02
    fit = fit_slope(np.log(ts), s2)
    assert 0.4 < fit.slope < 1.1   # approaching the asymptotic ln-t slope of 1


def test_reduced_entropy_product_state():
    psi = FockState.fock((2, 3), 8)
    assert reduced_entropy(psi, (0,)) < 1e-12


def test_reduced_entropy_bell_like():
    psi = FockState.superposition([(1.0, (0, 0)), (1.0, (1, 1))], 6, 2)
    assert abs(reduced_entropy(psi, (0,)) - math.log(2.0)) < 1e-12


def test_reduced_entropy_matches_gaussian_for_squeezed_vacuum():
    psi0 = FockState.fock((0, 0), 20)
    traj = _oracle(psi0, TMS, 0.5, 0.005, store_every=100, leak_ceiling=1e-6)
    state = FockState(traj.amplitudes[-1])
    assert traj.trusted[-1]
    s_fock = reduced_entropy(state, (0,))
    g, _ = covariance_of(state)
    s_gauss = von_neumann_entropy(restrict(g, SubsystemSpec.first_modes(1, 2)))
    assert abs(s_fock - s_gauss) < 1e-5


def test_global_purity_of_schmidt_spectrum():
    psi0 = FockState.superposition([(1.0, (0, 0)), (1.0, (2, 0))], 14, 2)
    traj = _oracle(psi0, TMS, 0.4, 0.01, store_every=40, leak_ceiling=1e-4)
    from entgrowth.fock import _schmidt_values
    for sv in _schmidt_values(traj.amplitudes, (0,)):
        assert abs(np.sum(sv ** 2) - 1.0) < 1e-8


def test_gaussian_envelope_upper_bounds_entropy():
    for psi0 in (FockState.fock((1, 0), 18),
                 FockState.superposition([(1.0, (0, 0)), (1.0, (2, 0))], 18, 2)):
        traj = _oracle(psi0, TMS, 0.7, 0.005, store_every=35, leak_ceiling=1e-4)
        for idx in range(len(traj.times)):
            if not traj.trusted[idx]:
                break
            state = FockState(traj.amplitudes[idx])
            s_true = reduced_entropy(state, (0,))
            g, _ = covariance_of(state)
            s_env = von_neumann_entropy(restrict(g, SubsystemSpec.first_modes(1, 2)))
            assert s_true <= s_env + 1e-6


def test_covariance_of_reference_states():
    g, z = covariance_of(FockState.fock((0,), 8))
    assert np.allclose(g, np.eye(2), atol=1e-12) and np.allclose(z, 0.0)
    g, z = covariance_of(FockState.fock((1,), 8))
    assert np.allclose(g, 3.0 * np.eye(2), atol=1e-12)
    alpha = 0.4 + 0.3j
    g, z = covariance_of(FockState.coherent([alpha], 16))
    assert np.allclose(g, np.eye(2), atol=1e-8)
    assert np.allclose(z, [math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag], atol=1e-8)


def test_cat_state_covariance_is_valid():
    state = FockState.cat(1.2, cutoff=20, n_modes=2, mode=0)
    g, z = covariance_of(state)
    assert np.allclose(z, 0.0, atol=1e-10)   # even cat has zero mean
    assert g[0, 0] > 1.0                     # enlarged position variance


def test_leak_flags_untrusted_tail():
    psi0 = FockState.fock((0, 0), 8)
    traj = _oracle(psi0, TMS, 2.0, 0.01, store_every=10, leak_ceiling=1e-6)
    assert not traj.trusted[-1]
    assert traj.trusted_until < 2.0
    flipped = np.nonzero(~traj.trusted)[0]
    assert np.all(~traj.trusted[flipped[0]:])   # once untrusted, stays untrusted


def test_state_and_hamiltonian_share_the_mode_count():
    # and the flow holds one matrix per sample of the grid
    matrices = propagate(TMS, 0.1, 0.01).matrices
    with pytest.raises(DimensionMismatch, match="flow acts on 2 modes, the state has 1"):
        evolve_fock(FockState.fock((0,), 4), matrices, 0.1, FockConfig(dt=0.01))
    with pytest.raises(DimensionMismatch, match="11 flow matrices for 6 sample times"):
        evolve_fock(FockState.fock((0, 0), 4), matrices, 0.1, FockConfig(dt=0.01), store_every=2)


def test_initial_leak_rejected():
    psi0 = FockState.fock((5,), 6)
    with pytest.raises(TruncationLeak):
        _oracle(psi0, QuadraticHamiltonian.constant(np.eye(2)), 1.0, 0.01, leak_ceiling=1e-6)


def _oracle_report(state, cutoff, t_final):
    # the fock pipeline's oracle section fits the entropy over the last
    # quarter of the trusted horizon
    cfg = parse_config(json.dumps({
        "modes": {"total": 2, "subsystem": 1},
        "hamiltonian": {"type": "builtin", "name": "two_mode_squeezing"},
        "initial_state": {"type": "fock", "state": state, "cutoff": cutoff},
        "run": {"t_final": t_final, "dt": 0.005, "store_every": 1, "window_fraction": 0.75},
        "tolerances": {"leak_ceiling": 3e-3, "slope_rel_tol": 0.10}}))
    rep = run_scenario(cfg, write_outputs=False)
    assert rep.ok, rep.failures
    return rep.sections["oracle"]


def test_oracle_linear_growth_smoke():
    oracle = _oracle_report("fock:0,0", 18, 1.4)
    assert abs(oracle["slope"] - 2.0) / 2.0 < 0.1
    assert oracle["stderr"] < 0.05
    assert oracle["window"][1] <= oracle["trusted_until"] + 1e-9


def test_slope_state_independence():
    # three non-Gaussian initial states whose transients fit inside the
    # cutoff window; the OLS slope error underestimates the systematic
    # transient remnant, so the pairwise gate carries a floor of 10% of
    # the mean slope on top of the combined 2 sigma
    fits = [_oracle_report(state, 20, 1.5)
            for state in ("fock:1,0", "superfock:0,0;2,0", "cat:0.8,0")]
    slopes = [f["slope"] for f in fits]
    mean = sum(slopes) / len(slopes)
    for i in range(len(fits)):
        for j in range(i + 1, len(fits)):
            tol = max(2.0 * (fits[i]["stderr"] + fits[j]["stderr"]), 0.10 * mean)
            assert abs(slopes[i] - slopes[j]) <= tol


def test_coherent_state_oracle_matches_vacuum_growth():
    # displacement never enters the entanglement: a coherent state follows
    # the vacuum entropy trajectory exactly
    psi_vac = FockState.fock((0, 0), 20)
    psi_coh = FockState.coherent([0.5, -0.3], 20)
    t_vac = _oracle(psi_vac, TMS, 0.8, 0.005, store_every=40, leak_ceiling=3e-3)
    t_coh = _oracle(psi_coh, TMS, 0.8, 0.005, store_every=40, leak_ceiling=3e-3)
    for a_vac, a_coh, ok in zip(t_vac.amplitudes, t_coh.amplitudes, t_coh.trusted):
        if not ok:
            break
        assert abs(reduced_entropy(FockState(a_vac), (0,))
                   - reduced_entropy(FockState(a_coh), (0,))) < 1e-6


@pytest.mark.parametrize("ham", [TMS, QuadraticHamiltonian.constant(_random_form(2, 7, 0.4))],
                         ids=["two_mode_squeezing", "random"])
def test_trusted_entropies_err_less_than_the_truncated_stepper(ham):
    # the margin's purpose: on every trusted row at cutoff 14, the oracle's
    # entropy is closer to the exact one (the reference at cutoff 30) than
    # the reference stepped under the Hamiltonian truncated to cutoff 14
    for make in (lambda c: FockState.fock((0, 0), c), lambda c: FockState.fock((1, 0), c),
                 lambda c: FockState.coherent([0.5, -0.3j], c),
                 lambda c: FockState.cat(0.8, c, n_modes=2)):
        traj = _oracle(make(14), ham, 1.0, 0.01, store_every=10, leak_ceiling=3e-3)
        _, stepped = chebyshev_evolve(make(14), ham, 1.0, 0.01, 10)
        _, exact = chebyshev_evolve(make(30), ham, 1.0, 0.01, 10)
        assert traj.trusted.sum() >= 5
        for i in np.flatnonzero(traj.trusted):
            s_exact = reduced_entropy(FockState(exact[i]), (0,))
            err = abs(reduced_entropy(FockState(traj.amplitudes[i]), (0,)) - s_exact)
            assert err <= abs(reduced_entropy(FockState(stepped[i]), (0,)) - s_exact) + 1e-12


def test_top_level_population_counts_both_modes():
    amp = np.zeros((6, 6))
    amp[5, 0] = 1.0
    assert top_level_population(amp[None]) == [1.0]
    amp = np.zeros((6, 6))
    amp[0, 4] = 1.0
    assert top_level_population(amp[None]) == [1.0]
    # one value per state of the stack
    vacuum, mixed = np.zeros((6, 6)), np.zeros((6, 6))
    vacuum[0, 0] = 1.0
    mixed[0, 0] = mixed[1, 1] = mixed[4, 3] = mixed[2, 5] = 0.5
    assert np.array_equal(top_level_population(np.stack([vacuum, amp, mixed])), [0.0, 1.0, 0.25])
