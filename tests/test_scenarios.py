"""Built-in scenario demos and cross-checks between pipeline sections."""

import dataclasses
import importlib.util
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from entgrowth import dynamics, fock, lyapunov, scenarios, ssa
from entgrowth.config import matrix_to_json, parse_config
from entgrowth.dynamics import QuadraticHamiltonian, evolve_covariance, generator, propagate
from entgrowth.entropy import LN_E_OVER_2
from entgrowth.errors import ConfigError, NotPositiveDefinite, UncertaintyViolated
from entgrowth.phase_space import (
    ModeCount,
    SubsystemSpec,
    factor_spectrum,
    restrict,
    row_factor,
    williamson_spectrum,
)
from entgrowth.scenarios import (
    SCENARIO_NAMES,
    builtin_hamiltonian,
    classical_counterexample_mi,
    metastable_form,
    run_scenario,
    run_view,
    scenario_document,
)
from entgrowth.ssa import gss_rhs_minimize, squashed_bounds
from reference import SHIPPED_ORACLE_CONFIG, default_scenario, inverted_pair_exponents

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_classical_counterexample_closed_form():
    assert classical_counterexample_mi(0.0, 0.3) == 0.0
    # fixed t, eps -> 0 kills the mutual information
    assert classical_counterexample_mi(50.0, 1e-8) < 1e-6
    # fixed eps, large t: one unit of MI per e-fold of time
    eps = 0.1
    t = 1e4 / eps
    gain = (classical_counterexample_mi(math.e * t, eps)
            - classical_counterexample_mi(t, eps))
    assert abs(gain - 1.0) < 1e-4
    with pytest.raises(ValueError):
        classical_counterexample_mi(1.0, 0.0)


def test_metastable_scenario_report():
    rep = run_scenario(default_scenario("metastable"))
    assert rep.ok, rep.failures
    meta = rep.sections["metastable"]
    assert abs(meta["log_slope"] - 1.0) < 0.01
    assert abs(2.0 * LN_E_OVER_2 - 0.6137056388801094) < 1e-12
    bounds = {entry["t"]: entry["value"] for entry in rep.sections["bounds"]}
    assert 1.0 in bounds and 100.0 in bounds
    assert all(v <= 2.0 * LN_E_OVER_2 + 1e-6 for v in bounds.values())
    assert meta["max_abs_s2_minus_ln_t"] < 0.01


def test_gaussian_rows_keep_the_entropy_order():
    # S2_A <= S_vn_A <= S_as_A holds in exact arithmetic; the direct form of
    # s(nu) put S_vn_A above S_as_A by up to 9.0e-10 (inverted_pair) and
    # 1.3e-10 (coupled_chain)
    for name in ("inverted_pair", "coupled_chain"):
        rows = run_scenario(default_scenario(name)).rows
        assert len(rows) == 201
        assert np.all(rows.s2_a <= rows.s_vn_a), name
        assert np.max(rows.s_vn_a - rows.s_as_a) <= 1e-12, name


def _workload_document(workload, index):
    """Config document of run ``index`` of a benchmark workload at seed 11, without outputs."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    doc = workloads.make_config(workload, 11, index, "unused.csv", "unused.json")
    del doc["output"]
    return doc


def test_gaussian_rows_lie_between_their_squashed_bounds():
    # the squashed entanglement of a pure state is its entanglement entropy,
    # so bound_lower <= S_vn_A <= bound_upper in exact arithmetic.  Read off
    # the formed G_A, S_vn_A sat above bound_upper by up to 1.45e-8 on
    # inverted_pair and 2.0e-4 on the drive workload's run 1
    docs = [scenario_document(name) for name in ("inverted_pair", "coupled_chain",
                                                 "parametric_drive")]
    docs += [_workload_document(workload, index) for workload in ("chain", "drive")
             for index in range(-1, 4)]
    for doc in docs:
        rows = run_scenario(parse_config(json.dumps(doc))).rows
        assert np.all(rows.bound_lower - 1e-9 <= rows.s_vn_a), doc
        assert np.all(rows.s_vn_a <= rows.bound_upper + 1e-9), doc


# S_vn_A of the exact flow at the last stored sample, from 60-digit mpmath on
# the double h: exp(24 K) for inverted_pair, and M(tau)^8 with M(tau) the
# product of the exact piece exponentials for parametric_drive
S_VN_A_60_DIGITS = {
    "inverted_pair": (24.0, 40.4343865874416292254679547296924481427461841, 2e-12),
    "parametric_drive": (17.6, 9.32680772862634858156214451108533772425374173, 1e-11),
}


@pytest.mark.parametrize("name", sorted(S_VN_A_60_DIGITS))
def test_gaussian_entropy_matches_a_high_precision_reference(name):
    # measured relative errors: 1.7e-14 (inverted_pair, at most 3.5e-13 over
    # its stored samples) and 1.4e-12 (parametric_drive, at most 2.7e-12 on
    # the drive workload's runs); the formed G_A read 4.2e-11 and 1.8e-6
    t, exact, rel_tol = S_VN_A_60_DIGITS[name]
    rows = run_scenario(default_scenario(name)).rows
    assert rows.t[-1] == t
    assert abs(rows.s_vn_a[-1] - exact) <= rel_tol * exact


def test_constant_flow_exponents_are_the_real_parts_of_eig_k():
    # ln|mu(M(dt))| / dt carried a roundoff of about eps cond(V) / dt.  The
    # inverted pair's lambda_A is sqrt(a) + sqrt(b) for the roots a, b of
    # x^2 - (k1^2 + k2^2) x + k1^2 k2^2 - g^2, here at 40 digits (mpmath)
    rep = run_view(default_scenario("inverted_pair"), "exponent")
    lam = rep.sections["exponent"]["lambda_alg"]
    assert abs(lam - 1.785831273800234195353297637287775020649) <= 1e-15 * lam
    assert rep.sections["lyapunov"]["pairing_violation"] <= 1e-15
    # two-mode squeezing at rate 1: lambda_A = 2
    rep = run_scenario(parse_config(SHIPPED_ORACLE_CONFIG.read_text()))
    assert rep.ok, rep.failures
    assert abs(rep.sections["oracle"]["exponent"]["lambda_alg"] - 2.0) <= 2 * np.spacing(2.0)


def test_exponent_stage_fails_when_the_two_routes_disagree():
    # at t_final = 2 the volumetric fit window still sits in the transient
    cfg = default_scenario("inverted_pair")
    cfg.run.t_final = 2.0
    cfg.run.store_every = 10
    for rep in (run_view(cfg, "exponent"), run_scenario(cfg)):
        assert any("vs volumetric" in f and "disagree" in f for f in rep.failures), rep.failures


def test_inverted_pair_exponents_closed_form():
    lam = inverted_pair_exponents(1.0, 0.8, 0.2)
    assert lam[0] > lam[1] > 0 > lam[2] > lam[3]
    assert np.allclose(lam, -lam[::-1])
    # decoupled limit: plain inverted-oscillator rates
    lam0 = inverted_pair_exponents(1.0, 0.8, 0.0)
    assert np.allclose(lam0, [1.0, 0.8, -0.8, -1.0])
    # the pipeline's spectrum is exact: the closed form to roundoff
    rep = run_view(default_scenario("inverted_pair"), "lyapunov")
    assert rep.ok and rep.sections["lyapunov"]["method"] == "floquet", rep.failures
    assert np.max(np.abs(rep.sections["lyapunov"]["exponents"] - lam)) < 1e-12


def test_parametric_floquet_cross_checks():
    rep = run_scenario(default_scenario("parametric_drive"))
    assert rep.ok, rep.failures
    floq = rep.sections["floquet"]
    exp = rep.sections["exponent"]
    # exponent from the multipliers of one period matches the spectrum route
    assert abs(floq["lambda_from_multipliers"] - exp["lambda_alg"]) < 5e-3
    # the Floquet rates hold a real unstable pair
    rates = np.array(floq["rates"])
    assert rates[0] > 0.1 and rates[-1] < -0.1
    assert abs(rates[0] + rates[-1]) < 1e-9
    mults = np.array(floq["multipliers_abs"])
    assert mults[0] > 1.0 + 1e-6
    assert abs(floq["lambda_from_multipliers"]
               - math.log(mults[0]) / 2.2) < 1e-9


def test_parametric_drive_spectrum_is_exact_from_one_period_map(monkeypatch):
    # the Lyapunov stage reads the Floquet section's M(tau), propagated once:
    # the elliptic pair is exactly 0, not the +-6.0e-5 of a QR push-forward
    # to 60 periods, and no QR frame is pushed
    calls = []
    real_propagate = scenarios.propagate

    def spy(ham, t_final, dt, **kwargs):
        calls.append(t_final)
        return real_propagate(ham, t_final, dt, **kwargs)

    def no_qr(*args, **kwargs):
        raise AssertionError("qr_spectrum called on a periodic flow")

    monkeypatch.setattr(scenarios, "propagate", spy)
    monkeypatch.setattr(lyapunov, "qr_spectrum", no_qr)
    rep = run_scenario(default_scenario("parametric_drive"))
    assert rep.ok, rep.failures
    assert calls == [17.6, 2.2]
    lyap = rep.sections["lyapunov"]
    assert lyap["method"] == "floquet" and lyap["horizon"] == 2.2 and lyap["residual"] == 0.0
    assert np.max(np.abs(lyap["exponents"][1:3])) <= 1e-12
    assert np.array_equal(lyap["exponents"], rep.sections["floquet"]["rates"])
    assert abs(rep.sections["exponent"]["lambda_alg"]
               - rep.sections["floquet"]["lambda_from_multipliers"]) <= 1e-12


def _defective_document():
    # one metastable piece with period 1: M(tau) = I + K is a Jordan block
    return {"modes": {"total": 2, "subsystem": 1},
            "hamiltonian": {"type": "piecewise", "period": 1.0,
                            "pieces": [{"duration": 1.0, "h": matrix_to_json(metastable_form())}]},
            "initial_state": {"type": "gaussian", "covariance": "vacuum"},
            "run": {"t_final": 10.0, "dt": 0.25, "lyapunov_t_star": 1000.0,
                    "lyapunov_dt": 0.25}}


def test_defective_period_map_keeps_the_qr_spectrum():
    cfg = parse_config(json.dumps(_defective_document()))
    period_map = propagate(cfg.hamiltonian, 1.0, 0.25, store_every=4).final_matrix
    assert np.linalg.cond(np.linalg.eig(period_map)[1]) > lyapunov.FLOQUET_COND_MAX
    rep = run_view(cfg, "lyapunov")
    assert rep.ok, rep.failures
    section = rep.sections["lyapunov"]
    qr = lyapunov.qr_spectrum(cfg.hamiltonian, 1000.0, 0.25)
    assert section["method"] == "qr" and section["horizon"] == 1000.0
    assert np.array_equal(section["exponents"], qr.exponents)
    assert np.array_equal(section["basis"], qr.basis)
    assert section["residual"] == qr.residual
    # the values before periodic flows read M(tau)
    assert abs(section["exponents"][0] - 0.00138629136112714) <= 1e-12
    assert abs(section["residual"] - 0.005521464417854712) <= 1e-12


def _half_turn_document(state, store_every):
    # h = I turns phase space by pi in one period: M(tau) = -1 has no real log
    return {"modes": {"total": 2, "subsystem": 1},
            "hamiltonian": {"type": "piecewise", "period": math.pi,
                            "pieces": [{"duration": math.pi, "h": matrix_to_json(np.eye(4))}]},
            "initial_state": state,
            "run": {"t_final": 4 * math.pi, "dt": math.pi / 100, "store_every": store_every}}


def test_half_turn_floquet_section_for_both_state_types():
    warning = ("no real stroboscopic generator: eigenvalue -1",
               "lies on the closed negative real axis")
    sections = []
    for state in ({"type": "gaussian", "covariance": "vacuum"},
                  {"type": "fock", "state": "fock:0,0", "cutoff": 8}):
        rep = run_scenario(parse_config(json.dumps(_half_turn_document(state, 10))))
        assert any(w.startswith(warning[0]) and warning[1] in w for w in rep.warnings), \
            rep.warnings
        sections.append(rep.to_json_dict()["sections"]["floquet"])
    assert sections[0] == sections[1]
    assert np.max(np.abs(sections[0]["rates"])) < 1e-12
    # five stored samples leave three in the exponent window; the Floquet
    # section is settled before that fit
    doc = _half_turn_document({"type": "gaussian", "covariance": "vacuum"}, 100)
    rep = run_scenario(parse_config(json.dumps(doc)))
    assert rep.failures == [f"WindowTooShort: exponent stage, window [{2 * math.pi:.6g}, "
                            f"{4 * math.pi:.6g}]: need at least 4 samples, got 3"], rep.failures
    assert rep.to_json_dict()["sections"]["floquet"] == sections[0]


def test_metastable_scenario_flags():
    rep = run_scenario(default_scenario("metastable"))
    assert rep.ok, rep.failures
    meta = rep.sections["metastable"]
    assert abs(meta["log_slope"] - 1.0) < 0.05
    assert meta["max_abs_s2_minus_ln_t"] < 0.5
    bounds = rep.sections["bounds"]
    assert len(bounds) == 4
    assert all(b["value"] <= 2 * (1 - math.log(2.0)) + 1e-6 for b in bounds)
    assert all(b["diverged"] for b in bounds)
    # the exponent of the nilpotent flow vanishes
    assert abs(rep.sections["exponent"]["lambda_alg"]) < 0.05


def test_scenario_registry_complete():
    assert set(SCENARIO_NAMES) == {"inverted_pair", "coupled_chain", "metastable",
                                   "parametric_drive", "classical_counterexample"}
    for name in SCENARIO_NAMES:
        default_scenario(name)   # all constructible
    with pytest.raises(ConfigError):
        default_scenario("not_a_scenario")


def test_builtin_hamiltonian_mode_count_errors():
    with pytest.raises(ConfigError):
        builtin_hamiltonian("inverted_pair", ModeCount(3, 1))
    with pytest.raises(ConfigError):
        builtin_hamiltonian("mystery", ModeCount(2, 1))


def test_custom_constant_config_runs():
    import json
    from entgrowth.config import parse_config
    h = np.diag([-1.0, 1.0, 1.0, 1.0])
    h[0, 2] = h[2, 0] = 0.3
    doc = {
        "modes": {"total": 2, "subsystem": 1},
        "hamiltonian": {"type": "constant",
                        "h": {"rows": 4, "cols": 4, "data": list(h.ravel())}},
        "initial_state": {"type": "gaussian"},
        # horizon keeps the A-block spread 2 lambda_1 t inside double range
        "run": {"t_final": 14.0, "dt": 0.002, "store_every": 100,
                "lyapunov_t_star": 150.0, "lyapunov_dt": 0.01},
        "tolerances": {"slope_rel_tol": 0.05},
    }
    rep = run_scenario(parse_config(json.dumps(doc)))
    assert rep.ok, rep.failures
    # single unstable mode coupled to a stable one: Lambda_A = lambda_1
    lam = rep.sections["lyapunov"]["exponents"]
    assert abs(rep.sections["exponent"]["lambda_alg"] - (lam[0] + lam[1])) < 1e-12
    assert rep.sections["slopes"]["rel_dev"] < 0.05


def test_overlong_horizon_fails_structurally():
    # past the conditioning wall the run must report a failure with partial
    # results, not crash with a traceback
    import json
    from entgrowth.config import parse_config
    h = np.diag([-1.0, 1.0, 1.0, 1.0])
    h[0, 2] = h[2, 0] = 0.3
    doc = {
        "modes": {"total": 2, "subsystem": 1},
        "hamiltonian": {"type": "constant",
                        "h": {"rows": 4, "cols": 4, "data": list(h.ravel())}},
        "initial_state": {"type": "gaussian"},
        "run": {"t_final": 40.0, "dt": 0.002, "store_every": 200,
                "lyapunov_t_star": 150.0, "lyapunov_dt": 0.01},
    }
    rep = run_scenario(parse_config(json.dumps(doc)))
    assert not rep.ok
    assert rep.failures
    assert "propagation" in rep.sections   # partial results preserved


def test_failure_names_stage_and_earliest_sample_time():
    # inverted_pair far past its horizon: the formed M(t) has lost its small
    # singular values, so the bounds read from its SVD fall out of order
    # before any A block fails; one typed failure, after the exponent section
    from entgrowth.errors import EntgrowthError

    doc = scenario_document("inverted_pair")
    doc["run"]["t_final"] = 120.0
    cfg = parse_config(json.dumps(doc))
    rep = run_scenario(cfg)
    prefix = "SingularM: squashed-bound stage, flow matrix at t="
    assert len(rep.failures) == 1 and rep.failures[0].startswith(prefix)
    t_text, detail = rep.failures[0][len(prefix):].split(": ", 1)
    assert detail.startswith("bound ordering violated: lower=")
    assert t_text == "114.48"
    assert list(rep.sections) == ["propagation", "lyapunov", "exponent"]

    run = cfg.run
    series = propagate(cfg.hamiltonian, run.t_final, run.dt, store_every=run.store_every)
    for t, m in zip(series.times, series.matrices):
        try:
            squashed_bounds(m, np.eye(4), cfg.modes)
        except EntgrowthError:
            break
    assert t_text == f"{t:.6g}"


@pytest.mark.parametrize("name", ["inverted_pair", "coupled_chain", "parametric_drive",
                                  "metastable"])
def test_each_a_block_is_factored_once(name, monkeypatch):
    # S_2, S_as, the volumetric exponent and the Williamson spectrum all
    # read one QR factor of the stacked rows (M_A C0)^T.  The builtins start
    # in the vacuum, C0 = I, so the bound stage's factor of (T^2)_A = M_A M_A^T
    # reads the same stack: two calls, and no third
    cfg = default_scenario(name)
    inputs = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        inputs.append(np.array(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    assert run_scenario(cfg).ok
    monkeypatch.undo()
    series = propagate(cfg.hamiltonian, cfg.run.t_final, cfg.run.dt,
                       store_every=cfg.run.store_every)
    c0 = np.linalg.cholesky(cfg.initial_state)
    rows_t = np.swapaxes(series.matrices[:, :2 * cfg.modes.n_a] @ c0, 1, 2)
    assert sum(a.shape == rows_t.shape and np.array_equal(a, rows_t) for a in inputs) == 2


def _only_failure(name):
    rep = run_scenario(default_scenario(name))
    assert len(rep.failures) == 1, rep.failures
    return rep.failures[0]


def test_propagation_failure_names_its_stage_and_time(monkeypatch):
    # the failure names the first stored sample whose defect exceeds its
    # ceiling; at 1e-17 the first nonzero defect (1.8e-18 relative) passes
    cfg = default_scenario("inverted_pair")
    series = propagate(cfg.hamiltonian, cfg.run.t_final, cfg.run.dt,
                       store_every=cfg.run.store_every)
    scale = 1.0 + np.max(np.abs(series.matrices), axis=(1, 2)) ** 2
    prefix = "StepTooLarge: propagation stage at t="
    for factor in (1e-30, 1e-17):
        monkeypatch.setattr(dynamics, "DEFECT_FACTOR", factor)
        failure = _only_failure("inverted_pair")
        assert failure.startswith(prefix), failure
        t_text, detail = failure[len(prefix):].split(": ", 1)
        first = int(np.argmax(series.defects > factor * scale))
        assert first > 0
        assert t_text == f"{series.times[first]:.6g}", (factor, first)
        assert detail.startswith(f"symplectic defect {series.defects[first]:.3g} exceeded "
                                 f"ceiling {factor * scale[first]:.3g}; "), detail
    # the lyapunov view of a constant flow reads K and propagates nothing; a
    # periodic flow's propagates only its map M(tau), and names the floquet
    # stage that reads it
    monkeypatch.setattr(dynamics, "DEFECT_FACTOR", 1e-30)
    assert run_view(cfg, "lyapunov").ok
    rep = run_view(default_scenario("parametric_drive"), "lyapunov")
    assert rep.failures[0].startswith("StepTooLarge: floquet stage at t=2.2: "), rep.failures
    assert list(rep.sections) == []


def test_overflowed_propagation_names_its_stage_and_time():
    # a rate of 400 overflows M M^T by t=1 and M itself by t=2; a NaN defect
    # passed the ceiling test, and the entropy stage failed on the blocks.
    # The overflow is reported once, as the failure, with no numpy warning
    doc = {"modes": {"total": 2, "subsystem": 1},
           "hamiltonian": {"type": "constant",
                           "h": matrix_to_json(np.diag([-160000.0, 1.0, 1.0, 1.0]))},
           "initial_state": {"type": "gaussian", "covariance": "vacuum"},
           "run": {"t_final": 10.0, "dt": 0.5}}
    with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn"):
        warnings.simplefilter("error")
        rep = run_scenario(parse_config(json.dumps(doc)))
    assert rep.failures == ["SingularM: propagation stage at t=1: M(t) overflowed, so its "
                            "symplectic defect is not finite; shorten t_final"], rep.failures
    assert list(rep.sections) == []


def test_floquet_failure_names_its_stage_and_time(monkeypatch):
    # the one-period call alone gets a zero ceiling, which the roundoff of
    # M(6) exceeds; the propagation stage to t=0.05 keeps the run's ceiling.
    # The Lyapunov stage reads that M(tau), so it never starts
    real_propagate = scenarios.propagate

    def strict_floquet(ham, t_final, dt, **kwargs):
        with pytest.MonkeyPatch.context() as patch:
            if t_final == ham.period:
                patch.setattr(dynamics, "DEFECT_FACTOR", 0.0)
            return real_propagate(ham, t_final, dt, **kwargs)

    base = np.array([[-1.0, 0, 0.2, 0], [0, 1, 0, 0], [0.2, 0, -0.6, 0], [0, 0, 0, 1]])
    cfg = parse_config(json.dumps({
        "modes": {"total": 2, "subsystem": 1},
        "hamiltonian": {"type": "fourier", "period": 6.0, "base": matrix_to_json(base),
                        "terms": [{"omega": math.pi / 3, "cos": matrix_to_json(0.1 * np.eye(4))}]},
        "initial_state": {"type": "gaussian", "covariance": "vacuum"},
        "run": {"t_final": 0.05, "dt": 0.01, "lyapunov_t_star": 20.0, "lyapunov_dt": 0.01}}))
    monkeypatch.setattr(scenarios, "propagate", strict_floquet)
    rep = run_scenario(cfg)
    assert len(rep.failures) == 1, rep.failures
    assert rep.failures[0].startswith("StepTooLarge: floquet stage at t=6: symplectic defect "), \
        rep.failures
    assert list(rep.sections) == ["propagation"]


def test_lyapunov_section_reports_its_regularity_tolerance(monkeypatch):
    # the tolerance regularity_check works out from the residual, and the
    # warning of a spectrum that misses it names it
    section = run_view(default_scenario("metastable"), "lyapunov").sections["lyapunov"]
    assert section["regularity_tol"] == max(0.05, 4.0 * section["residual"])
    monkeypatch.setattr(scenarios, "regularity_check",
                        lambda data: lyapunov.RegularityReport(False, 0.25, 0.125))
    rep = run_view(default_scenario("metastable"), "lyapunov")
    assert rep.warnings == ["spectrum not regular at tolerance 0.125: pairing violation 0.25"]
    assert rep.sections["lyapunov"]["regularity_tol"] == 0.125


def test_lyapunov_failure_names_its_stage_and_horizon(monkeypatch):
    # the nilpotent metastable flow has a defective map, so it keeps the QR
    # estimate and its residual, 0.0055
    monkeypatch.setattr(scenarios, "RESIDUAL_CEILING", 1e-11)
    failure = _only_failure("metastable")
    assert failure.startswith("NotConverged: lyapunov stage, horizon t*=1000: Lyapunov residual"), \
        failure


def test_fock_failure_names_its_stage_and_time():
    # a flow that shrinks like e^{-0.1 t} is not symplectic: the projected
    # vacuum's squared norm grows like e^{0.2 t} and first exceeds 1 at t=0.05
    ham = builtin_hamiltonian("two_mode_squeezing", ModeCount(2, 1))
    series = propagate(ham, 0.5, 0.01, store_every=5)
    lossy = series.matrices * np.exp(-0.1 * series.times)[:, None, None]
    cfg = fock.FockConfig(dt=0.01, leak_ceiling=1.0)
    with pytest.raises(RuntimeError, match=r"^fock stage at t=0\.05: projection norm\^2 exceeds 1"):
        fock.evolve_fock(fock.FockState.fock((0, 0), 8), lossy, 0.5, cfg, store_every=5)


def test_classical_fit_failure_names_its_stage_and_window():
    # at t_final 100 the fit window [100/eps, t_final/eps] holds one grid point
    doc = scenario_document("classical_counterexample")
    doc["run"]["t_final"] = 100.0
    rep = run_scenario(parse_config(json.dumps(doc)))
    assert rep.failures == ["WindowTooShort: classical_counterexample stage, window [2000, 2000]: "
                            "need at least 4 samples, got 1"], rep.failures


def test_gaussian_fit_failures_name_their_stage_and_window():
    # samples at t = 0, 6, ..., 24 leave 3 in the fit window [12, 24]
    doc = scenario_document("inverted_pair")
    doc["run"]["store_every"] = 3000
    rep = run_scenario(parse_config(json.dumps(doc)))
    assert rep.failures == ["WindowTooShort: exponent stage, window [12, 24]: "
                            "need at least 4 samples, got 3"], rep.failures
    assert list(rep.sections) == ["propagation", "lyapunov"]
    # a run.window with one stored sample fails the entropy-slope fit
    doc = scenario_document("inverted_pair")
    doc["run"]["window"] = [23.9, 24.0]
    rep = run_scenario(parse_config(json.dumps(doc)))
    assert rep.failures == ["WindowTooShort: slopes stage, window [23.9, 24]: "
                            "need at least 4 samples, got 1"], rep.failures
    # the metastable log-growth fit reads [10, t_final]: samples 10 and 11
    doc = scenario_document("metastable")
    doc["run"].update(t_final=11.0, window=[5.0, 11.0], bound_times=[], lyapunov_t_star=11.0)
    rep = run_scenario(parse_config(json.dumps(doc)))
    assert rep.failures == ["WindowTooShort: metastable stage, window [10, 11]: "
                            "need at least 4 samples, got 2"], rep.failures


def test_oracle_fit_failure_names_its_stage_and_window():
    # at cutoff 6 the leak ends trust at t=0.175, so [0.75 t, t] holds 2 samples
    doc = {"modes": {"total": 2, "subsystem": 1},
           "hamiltonian": {"type": "builtin", "name": "two_mode_squeezing"},
           "initial_state": {"type": "fock", "state": "fock:0,0", "cutoff": 6},
           "run": {"t_final": 1.5, "dt": 0.005, "store_every": 5},
           "tolerances": {"leak_ceiling": 1e-6}}
    rep = run_scenario(parse_config(json.dumps(doc)))
    assert rep.failures == ["WindowTooShort: oracle stage, window [0.13125, 0.175]: "
                            "need at least 4 samples, got 2"], rep.failures
    # what was settled before the fit stays in the report
    oracle = rep.sections["oracle"]
    assert oracle["trusted_until"] == pytest.approx(0.175)
    assert oracle["bounds_contain_entropy"] is True
    assert "slope" not in oracle


def test_metastable_bounds_meet_the_stop_rule():
    # every bound time of the builtin, t=1000 included, converges at the
    # boundary infimum: no warning but the divergence ones
    rep = run_view(default_scenario("metastable"), "bounds")
    assert rep.ok, rep.failures
    assert all(b["converged"] and b["diverged"] for b in rep.sections["bounds"])
    assert all("diverged toward the cone boundary" in w for w in rep.warnings), rep.warnings


def _bounds_config(name):
    # inverted_pair also at times where its minimum is attained, out to the
    # conditioning wall (cond G about 3e12 at t=16.08)
    doc = scenario_document(name)
    if name == "inverted_pair":
        doc["run"]["bound_times"] = [1.2, 3.96, 8.04, 12.0, 16.08]
    return parse_config(json.dumps(doc))


def _cold_bounds(cfg):
    """The bound descents from G = I at the config's bound times, on the stage's stored M."""
    series = propagate(cfg.hamiltonian, cfg.run.t_final, cfg.run.dt,
                       store_every=cfg.run.store_every)
    return [gss_rhs_minimize(m, cfg.modes)
            for m in scenarios.bound_matrices(series, cfg.run.bound_times)]


@pytest.mark.parametrize("name", ["metastable", "inverted_pair"])
def test_warm_started_bounds_match_the_cold_descents(name):
    # each descent starts from the previous time's minimizer; the objective
    # is geodesically convex, so the value does not depend on the start
    cfg = _bounds_config(name)
    rep = run_view(cfg, "bounds")
    assert rep.ok, rep.failures
    entries, cold = rep.sections["bounds"], _cold_bounds(cfg)
    for entry, ref in zip(entries, cold, strict=True):
        assert abs(entry["value"] - ref.value) <= 1e-8, (entry, ref)
        assert (entry["converged"], entry["diverged"]) == (ref.converged, ref.diverged), entry
    if name == "metastable":
        # boundary infima: 26-30 steps from G = I, a few from the last minimizer
        assert sum(e["iterations"] for e in entries) <= 0.5 * sum(r.iterations for r in cold)
    else:
        assert all(e["converged"] and not e["diverged"] and e["residual"] <= 1e-6
                   for e in entries), entries
        assert rep.warnings == []


def test_bounds_stage_reports_the_cold_descent_when_the_warm_one_fails(monkeypatch):
    cfg = _bounds_config("metastable")
    cold = _cold_bounds(cfg)
    descend = ssa.minimize

    def warm_fails(m, k, r):
        rep = descend(m, k, r)
        if np.array_equal(r, np.eye(len(r))):
            return rep
        return dataclasses.replace(rep, converged=False, stop_reason="stand-in stop")

    monkeypatch.setattr(ssa, "minimize", warm_fails)
    entries = run_view(cfg, "bounds").sections["bounds"]
    assert [(e["value"], e["residual"], e["iterations"], e["converged"]) for e in entries] \
        == [(r.value, r.residual, r.iterations, r.converged) for r in cold]


def test_bound_minimizer_failure_names_its_stage_and_time(monkeypatch):
    def singular(m, split, start=None):
        raise NotPositiveDefinite("stand-in failure")

    monkeypatch.setattr(scenarios, "gss_rhs_minimize", singular)
    rep = run_view(default_scenario("inverted_pair"), "bounds")
    t_final = default_scenario("inverted_pair").run.t_final
    assert rep.failures == [f"NotPositiveDefinite: bounds stage at t={t_final:.6g}: "
                            f"stand-in failure"], rep.failures


def test_coupled_chain_uses_two_unstable_rates():
    rep = run_scenario(default_scenario("coupled_chain"))
    assert rep.ok, rep.failures
    lam = np.array(rep.sections["lyapunov"]["exponents"])
    assert lam[0] > 0.9 and lam[1] > 0.7   # two real unstable pairs
    assert abs(lam[2]) < 0.05              # oscillatory rest
    # exact: the real parts of eig(K), to roundoff
    k = generator(default_scenario("coupled_chain").hamiltonian, 0.0)
    assert np.max(np.abs(lam - np.sort(np.linalg.eigvals(k).real)[::-1])) < 1e-11

def _metastable_gate(doc):
    rep = run_scenario(parse_config(json.dumps(doc)))
    return rep, rep.sections.get("metastable")


def test_metastable_gate_follows_the_hamiltonian_not_the_tag():
    # the inverted pair grows linearly; tagged "metastable" it is still not
    # held to the log-growth gate
    doc = scenario_document("inverted_pair")
    doc["scenario"] = "metastable"
    rep, meta = _metastable_gate(doc)
    assert rep.ok and meta is None, rep.failures
    # the metastable model is gated under any tag, or none
    doc = scenario_document("metastable")
    doc["run"].update(t_final=20.0, lyapunov_t_star=20.0, window=[10.0, 20.0], bound_times=[])
    for tag in ("custom", None):
        doc["scenario"] = tag
        rep, meta = _metastable_gate({k: v for k, v in doc.items() if v is not None})
        assert rep.ok and meta is not None, rep.failures
        assert meta["max_abs_s2_minus_ln_t"] < 0.01


def test_closed_form_follows_the_hamiltonian_not_the_tag():
    # the inverted pair tagged as the counterexample still runs the flow
    doc = scenario_document("inverted_pair")
    doc["scenario"] = "classical_counterexample"
    cfg = parse_config(json.dumps(doc))
    rep = run_scenario(cfg)
    assert rep.ok, rep.failures
    assert "propagation" in rep.sections and "classical_counterexample" not in rep.sections
    assert run_view(cfg, "lyapunov").ok
    # the shear runs the closed form under any tag, and has no flow stages
    doc = scenario_document("classical_counterexample")
    doc["scenario"] = "custom"
    cfg = parse_config(json.dumps(doc))
    rep = run_scenario(cfg)
    assert rep.ok, rep.failures
    assert "classical_counterexample" in rep.sections and "propagation" not in rep.sections
    with pytest.raises(ConfigError) as err:
        run_view(cfg, "lyapunov")
    assert err.value.field == "hamiltonian"


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"the pipeline built {what}")
    return refuse


@pytest.mark.parametrize("initial_state", [
    {"type": "gaussian", "covariance": "vacuum"},
    {"type": "fock", "state": "superfock:0,0;1,1", "cutoff": 12},
])
def test_stages_run_on_the_parsed_objects(monkeypatch, initial_state):
    doc = {"modes": {"total": 2, "subsystem": 1},
           "hamiltonian": {"type": "builtin", "name": "two_mode_squeezing"},
           "initial_state": initial_state,
           "run": {"t_final": 0.9, "dt": 0.005, "store_every": 5, "bound_times": [0.5],
                   "lyapunov_t_star": 40.0, "lyapunov_dt": 0.01},
           "tolerances": {"leak_ceiling": 3e-3, "slope_rel_tol": 0.15}}
    cfg = parse_config(json.dumps(doc))
    monkeypatch.setattr(QuadraticHamiltonian, "__post_init__", _refuse("a Hamiltonian"))
    monkeypatch.setattr(scenarios, "builtin_hamiltonian", _refuse("a builtin Hamiltonian"))
    for kind in ("fock", "superposition", "coherent", "cat"):
        monkeypatch.setattr(fock.FockState, kind, _refuse(f"a {kind} state"))
    # a refused build raises past the report; each run reaches its last section
    gaussian = initial_state["type"] == "gaussian"
    assert ("slopes" if gaussian else "oracle") in run_scenario(cfg).sections
    # a fock state's pipeline has no exponent stage, so it has no exponent view
    for view in ("lyapunov", "exponent", "bounds") if gaussian else ("lyapunov", "bounds"):
        assert view in run_view(cfg, view).sections


# an 8-site lattice chain of unstable sites, half of it in A: its A blocks
# squeeze 4 modes at once, and an eigensolve of -J^2, which squares their
# conditioning, puts them below the uncertainty bound from t = 14.7 on
LATTICE_H = scenarios._chain_form([1.5] * 8, -1.0)


def test_lattice_chain_blocks_keep_the_uncertainty_bound():
    series = propagate(QuadraticHamiltonian.constant(LATTICE_H), 20.0, 0.01, store_every=10)
    g_a = restrict(evolve_covariance(np.eye(16), series.matrices), SubsystemSpec.first_modes(4, 8))
    assert series.t_final == pytest.approx(20.0)
    assert np.all(williamson_spectrum(g_a) >= 1.0 - 1e-9)


def test_sixteen_site_lattice_keeps_its_exponent_section_at_the_wall():
    # N=16, N_A=8: the A block factored from the rows of the formed M(t)
    # leaves the uncertainty bound at t = 37.1 (the formed G_A did at 19.8),
    # as it does from the correctly rounded step exponential; the exponent
    # section, computed from the same factor before the Williamson
    # spectrum, stays in the report.  Its exact lambda_alg,
    # 1.73441, is within 0.9 % of the volumetric 1.74967, so the exponent
    # gate passes
    h = scenarios._chain_form([1.5] * 16, -1.0)
    doc = {"modes": {"total": 16, "subsystem": 8},
           "hamiltonian": {"type": "constant", "h": matrix_to_json(h)},
           "initial_state": {"type": "gaussian", "covariance": "vacuum"},
           "run": {"t_final": 48.0, "dt": 0.01, "store_every": 10}}
    rep = run_scenario(parse_config(json.dumps(doc)))
    assert list(rep.sections) == ["propagation", "lyapunov", "exponent"]
    assert abs(rep.sections["exponent"]["lambda_alg"] - 1.73441) < 5e-6
    assert rep.failures == [
        "UncertaintyViolated: entropy stage, A block at t=37.1: covariance check failed: "
        "uncertainty_violated (min symplectic eigenvalue = 0.999983753894)"]


def test_thirty_two_site_lattice_names_its_earliest_failing_sample():
    # N=32, N_A=16: the A blocks factored from the rows of the formed M(t)
    # leave the uncertainty bound first at t = 14.6 (the formed G_A did at
    # 6.3), as they do from the correctly rounded step exponential, and
    # that sample is named.  The volumetric slope on [10, 20] is still in
    # its transient, so the exponent gate fails before it
    h = scenarios._chain_form([1.5] * 32, -1.0)
    doc = {"modes": {"total": 32, "subsystem": 16},
           "hamiltonian": {"type": "constant", "h": matrix_to_json(h)},
           "initial_state": {"type": "gaussian", "covariance": "vacuum"},
           "run": {"t_final": 20.0, "dt": 0.01, "store_every": 10}}
    cfg = parse_config(json.dumps(doc))
    rep = run_scenario(cfg)
    assert list(rep.sections) == ["propagation", "lyapunov", "exponent"]
    assert rep.failures == [
        "algebraic 3.84899 vs volumetric 3.66496 disagree",
        "UncertaintyViolated: entropy stage, A block at t=14.6: covariance check failed: "
        "uncertainty_violated (min symplectic eigenvalue = 0.999999999493)"]
    series = propagate(cfg.hamiltonian, 20.0, 0.01, store_every=10)
    with pytest.raises(UncertaintyViolated) as info:
        factor_spectrum(row_factor(series.matrices[:, :32]))
    assert f"{series.times[info.value.index]:.6g}" == "14.6"


def test_lattice_chain_run_reports_no_uncertainty_violation():
    # and the run passes its exponent gate: the exact lambda_alg 0.79508 is
    # 0.7 % from the volumetric 0.80090, where a QR push-forward to t* = 60
    # read 0.77652, 3.0 % off
    doc = {"modes": {"total": 8, "subsystem": 4},
           "hamiltonian": {"type": "constant", "h": matrix_to_json(LATTICE_H)},
           "initial_state": {"type": "gaussian", "covariance": "vacuum"},
           "run": {"t_final": 20.0, "dt": 0.01, "store_every": 10}}
    rep = run_scenario(parse_config(json.dumps(doc)))
    assert not any("UncertaintyViolated" in f for f in rep.failures), rep.failures
    assert rep.ok, rep.failures
    exponent = rep.sections["exponent"]
    assert abs(exponent["lambda_alg"] - 0.79508) < 5e-6
    assert abs(exponent["lambda_vol"] - 0.80090) < 5e-6
