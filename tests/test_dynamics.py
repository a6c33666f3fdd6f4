"""Generators, the matrix exponential, propagation, polar factors, the real-logarithm check."""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

import entgrowth.dynamics as dynamics
from entgrowth.dynamics import (
    CHUNK_STEPS,
    DEFECT_FACTOR,
    PolarPair,
    QuadraticHamiltonian,
    evolve_covariance,
    expm as package_expm,
    generator,
    polar_decompose,
    propagate,
    nearest_sample,
    require_real_logarithm,
    sample_count,
    sample_times,
    step_count,
    step_loop,
)
from entgrowth.errors import NoRealLogarithm, NonSymmetricH
from entgrowth.fock import FockConfig, FockState, evolve_fock
from entgrowth.phase_space import ModeCount, is_pure, standard_omega, williamson_spectrum
from entgrowth.scenarios import (
    inverted_pair_form,
    metastable_form,
    parametric_drive_hamiltonian,
    scenario_document,
)
from entgrowth.ssa import squashed_bounds
from reference import random_symplectic, sqrt_pd


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


def _random_generator():
    """K = Omega h for a random symmetric h on 4 modes, ||K||_1 = 9.42.

    Drawn from the standard library's generator, whose stream for a seed
    does not change between Python releases.
    """
    rng = random.Random(2009)
    a = np.array([[rng.uniform(-1, 1) for _ in range(8)] for _ in range(8)])
    return 1.25 * (standard_omega(4) @ (a + a.T))


def _exponential_cases():
    duration, form = parametric_drive_hamiltonian().pieces[1]
    return {"pair": 0.12 * (standard_omega(2) @ inverted_pair_form()),
            "drive": duration * (standard_omega(2) @ form),
            "random": _random_generator()}


# exp(A) of each case to 40 digits (mpmath.expm at 60 digits on the double A)
EXP_REFERENCES = {
    "pair": """
        1.007208990186412712071788729567001116343 1.202882157330193809532261818769922803035e-1
        -1.44283565371896018825155328786274558689e-3 -5.766804379891094912497169020349596610087e-5
        1.202997493417791631437180969443105099026e-1 1.007208990186412712071788729567001116343
        -2.409455069463518059399899227746986569437e-2 -1.44283565371896018825155328786274558689e-3
        -1.44283565371896018825155328786274558689e-3 -5.766804379891094912497169020349596610087e-5
        1.004611886009718584483812197793635176788 1.201844132541813412748126656521148540953e-1
        -2.409455069463518059399899227746986569437e-2 -1.44283565371896018825155328786274558689e-3
        7.692955809143585061373473077394420836645e-2 1.004611886009718584483812197793635176788
    """,
    "drive": """
        2.58418265332917324330614772806588339461 2.377662693697587302237284658750352923048
        -1.955786496209366110200920296604161114088e-1 -1.032175819429697935484092479012732133609e-1
        2.393145330989032769837114345695308157414 2.58418265332917324330614772806588339461
        -2.534318221116682687904851092196253057785e-1 -1.955786496209366110200920296604161114088e-1
        -1.955786496209366110200920296604161114088e-1 -1.032175819429697935484092479012732133609e-1
        -2.353267494998181155721259436186254909924e-2 1.001428267791323260931232443156854063591
        -2.534318221116682687904851092196253057785e-1 -1.955786496209366110200920296604161114088e-1
        -9.859456304998777933314027562118988292248e-1 -2.353267494998181155721259436186254909924e-2
    """,
    "random": """
        7.002223178803373300235363523425170434676 -5.10297841303436579260160824103306481381
        -2.724469249467178656698381018290346201539 9.873090301133424738407919509222316055816e-1
        8.344196324440436641273587322466603154691 7.380571494444076283917198928374245956651e-1
        -1.982461191161304682948856181388375533517e-1 4.698963828529145706101047762148851956058
        4.388067895248727546587497245995212318182 -2.525680532910978034218340473687974356521
        1.820636567556534750164143942598450590796 -1.135123071693910861316707024933215957582
        3.151492391016886853100208672170502534496 -1.342280191052338692888302295734145579716
        -1.921779498843808679034126457686048921332 2.55266221928432359401226961582234180713
        -1.573160400351070834910368914574796427144 -2.66643095735656822244786857084644660167
        -1.646772480913031606998924858868168852183 1.801618714314799820417358052050766061903
        -3.242435373386277488094570612228926472652e-1 1.886419184636366675147397836540144949829
        -2.952994290936810213915214547356788735845 -6.323151085320069829700262535740908812482e-1
        -2.285752059756422241540768181036440481935 3.002893187444271280005607804325343498488
        9.364711046766052297722558071392840767376e-1 -1.062195795012457411965346756014837994036
        -2.396523280499126522040941170532170312936 -2.509486334907678767594422074651414718822e-1
        2.422745856036229067209388215000453234471 -1.904049394188447104795196686533387099762
        5.256239758043333644576639720588654876066 -1.677053795678491802771954153022158915381
        -1.299857218734957200853043374282556489033 -1.514196951081898909915622223416791909626
        8.818755662650744203493917913920716547043 9.784526704329018786385250181777204132199e-1
        4.606064572967108807190061082030836603152 2.522327054029898895700421915482941878649
        -3.289451325664819679761775139699279562474e-1 3.645732177840436633122291583824228885388e-1
        -3.737338624943035764587173041733420576969e-1 -5.772474282143700834716077052423818223515e-1
        1.520456951132526781198273068915974450611 1.026196386462837660208829885749973706183
        2.206043914829437560628148689000531695659 -5.529175419165921472338600661458597795279e-1
        6.288470714873435705435125476668759725109 -5.849672480004089014665867982454801705304
        3.566700551930306618323375095272735403559 -2.29337934357894310825816285530650604501
        6.575389206059876134768463240170808967513 -4.596742920927250956643795538948365791923e-1
        -3.284994691685102318852957032087727378527 3.044042429759705640086155974567838494787
        -7.05550709776019698362390309535656607754e-1 1.570272199143870805598149581292806495368
        -3.115351771947721393793374544237681141653 1.851330894678650642352961255120812879342
        -6.38242902951276170797508296132152552463e-1 4.038268615242459127781033835040627759766e-1
        1.964720006871777753798143569461161259083 1.787137009133552803800311412021706665418e-1
    """,
}


@pytest.mark.parametrize("name", sorted(EXP_REFERENCES))
def test_expm_matches_forty_digit_references(name):
    # the inverted_pair step (unscaled), the long inverted parametric_drive
    # piece and a random generator of 1-norm 9.4 (both scaled and squared)
    a = _exponential_cases()[name]
    want = np.array(EXP_REFERENCES[name].split(), dtype=float).reshape(a.shape)
    assert np.max(np.abs(package_expm(a) - want)) <= 4e-16 * np.max(np.abs(want))


@pytest.mark.parametrize("length", [1, 3, 4, 10, 60])
def test_expm_of_a_nilpotent_step_is_exactly_one_plus_the_step(length):
    # length 1 is the metastable builtin's stored step, 4 its QR block; the
    # longer steps are squared several times, and stay exact
    run = scenario_document("metastable")["run"]
    assert run["dt"] * run["store_every"] == 1.0
    a = length * (standard_omega(2) @ metastable_form())
    assert np.array_equal(package_expm(a), np.eye(4) + a)


def test_stacked_expm_equals_the_calls_on_each_matrix_bit_for_bit():
    rng = np.random.default_rng(29)
    mats = []
    # 1-norms from 1e-4 to 30: unscaled and scaled by up to 2^-6
    for norm in np.geomspace(1e-4, 30.0, 12):
        h = rng.normal(size=(4, 4))
        k = standard_omega(2) @ (h + h.T)
        mats.append(k * (norm / np.max(np.abs(k).sum(axis=0))))
    mats += [case for case in _exponential_cases().values() if case.shape == (4, 4)]
    stack = np.array(mats).reshape(2, -1, 4, 4)
    got = package_expm(stack)
    assert got.shape == stack.shape
    for idx in np.ndindex(stack.shape[:2]):
        assert np.array_equal(got[idx], package_expm(stack[idx]))


@st.composite
def scaled_generators(draw):
    """t K for a random symmetric h on 1-4 modes, scaled to ||t K||_1 in [1e-4, 20]."""
    n = draw(st.integers(1, 4))
    a = draw(hnp.arrays(np.float64, (2 * n, 2 * n), elements=st.floats(-1.0, 1.0)))
    k = standard_omega(n) @ (a + a.T)
    norm = np.max(np.abs(k).sum(axis=0))
    assume(norm > 1e-3)
    return k * (draw(st.floats(1e-4, 20.0)) / norm)


@settings(max_examples=60, deadline=None)
@given(scaled_generators())
def test_expm_agrees_with_scipy_and_stays_symplectic(a):
    m = package_expm(a)
    scale = np.max(np.abs(m))
    # scipy's own error grows with the norm: for [[0, -17], [-17, 0]] it is
    # 3.4e-12 of the largest entry, where this exponential equals the
    # correctly rounded mpmath value
    norm = np.max(np.abs(a).sum(axis=0))
    assert np.max(np.abs(m - expm(a))) <= 1e-12 * max(1.0, norm) * scale
    omega = standard_omega(len(a) // 2)
    assert np.max(np.abs(m @ omega @ m.T - omega)) <= DEFECT_FACTOR * (1.0 + scale ** 2)


def test_callable_steps_are_stacked_exponentials_per_segment(monkeypatch):
    calls = []

    def counting_expm(a):
        calls.append(a.shape)
        return package_expm(a)

    monkeypatch.setattr(dynamics, "expm", counting_expm)

    def h_of_t(t):
        return np.array([[1.0 + 0.5 * np.cos(1.3 * t), 0.0], [0.0, 1.0]])

    ham = QuadraticHamiltonian(h=h_of_t, n_modes=1)
    n_steps = 2 * CHUNK_STEPS + 100
    segments = [n_steps // 2, n_steps]          # each chunked from its own start
    got = [list(factors) for _, _, factors in step_loop(ham, 10.0, n_steps, segments)]
    # one call per chunk of a segment, none across a segment's end
    assert calls == [(CHUNK_STEPS, 2, 2), (50, 2, 2)] * 2
    dt = 10.0 / n_steps
    per_step = [package_expm(dt * generator(ham, j * dt + 0.5 * dt)) for j in range(n_steps)]
    assert all(np.array_equal(a, b) for a, b in zip(got[0] + got[1], per_step, strict=True))


def test_stacked_generator_names_the_earliest_asymmetric_time():
    def h_of_t(t):
        return np.array([[1.0, 0.0], [float(t > 0.25), 1.0]])

    ham = QuadraticHamiltonian(h=h_of_t, n_modes=1)
    assert generator(ham, [0.1, 0.2]).shape == (2, 2, 2)
    with pytest.raises(NonSymmetricH, match=r"h\(0\.3\) is not symmetric"):
        generator(ham, [0.1, 0.3, 0.4])
    with pytest.raises(NonSymmetricH, match=r"h\(0\.375\) is not symmetric"):
        propagate(ham, 1.0, 0.25)


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
        return package_expm(a)

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
    traj = evolve_fock(FockState.fock((0,), 4), series.matrices, t_final, FockConfig(dt=dt),
                       store_every=14)
    assert np.array_equal(traj.times, series.times)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.01, 1e3), st.integers(1, 400), st.integers(1, 60), st.floats(-0.2, 1.2),
       st.booleans())
def test_grid_rule_counts_and_finds_what_sample_times_lists(t_final, steps, store_every, u,
                                                            on_grid):
    # off-grid dt too: step_count rounds it
    dt = t_final / (steps + 0.3)
    times = sample_times(t_final, dt, store_every)
    assert sample_count(step_count(t_final, dt), store_every) == len(times)
    t = times[round(u * (len(times) - 1)) % len(times)] if on_grid else u * t_final
    index, time = nearest_sample(t_final, dt, store_every, t)
    assert index == int(np.argmin(np.abs(times - t)))
    assert time == times[index]


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


def test_stroboscopic_rejects_negative_real_eigenvalue():
    # rotation by pi has eigenvalues -1
    m = np.diag([-1.0, -1.0])
    with pytest.raises(NoRealLogarithm):
        require_real_logarithm(np.linalg.eigvals(m))
