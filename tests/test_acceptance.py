"""Acceptance suite: one test per headline claim, at pinned tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``); the
assertions carry the same tolerances, so a plain ``pytest`` run enforces
them all.
"""

import json
import time

import numpy as np
import pytest

from entgrowth.config import parse_config
from entgrowth.dynamics import QuadraticHamiltonian, polar_decompose, propagate
from entgrowth.entropy import LN_E_OVER_2, renyi2_entropy
from entgrowth.fitting import fit_slope
from entgrowth.fock import FockConfig, FockState
from entgrowth.lyapunov import lyapunov_spectrum
from entgrowth.phase_space import ModeCount, SubsystemSpec, standard_omega
from entgrowth.scenarios import (
    classical_counterexample_mi,
    metastable_form,
    run_scenario,
    two_mode_squeezing_form,
)
from entgrowth.ssa import gss_rhs_minimize, squashed_bounds
from entgrowth.subsystem import subsystem_exponent_algebraic
from reference import (
    SubsystemFamily,
    corridor_check,
    default_scenario,
    mutual_information_asymptotic,
    polar_factor_exponents,
    random_covariance,
    random_pd_symplectic,
    random_symplectic,
    random_unstable_hamiltonian_form,
    stationarity_residual,
)

SPLIT2 = ModeCount(2, 1)
TMS = QuadraticHamiltonian.constant(two_mode_squeezing_form())


def _report(num, passed, detail):
    print(f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def test_criterion_01_gaussian_linear_growth():
    t0 = time.monotonic()
    rep = run_scenario(default_scenario("inverted_pair"))
    elapsed = time.monotonic() - t0
    slopes = rep.sections["slopes"]
    rel = slopes["rel_dev"]
    ok = rep.ok and rel <= 0.02 and elapsed < 10.0
    _report(1, ok, f"inverted_pair S_vn(A) slope {slopes['s_vn_slope']:.6f} vs "
                   f"Lambda_A {slopes['lambda_ref']:.6f} (rel dev {rel:.2e}), "
                   f"{elapsed:.1f}s")


def _oracle_config(state):
    return parse_config(json.dumps({
        "modes": {"total": 2, "subsystem": 1},
        "hamiltonian": {"type": "builtin", "name": "two_mode_squeezing"},
        "initial_state": {"type": "fock", "state": state, "cutoff": 20},
        "run": {"t_final": 1.5, "dt": 0.005, "store_every": 1, "window_fraction": 0.75},
        "tolerances": {"leak_ceiling": 3e-3, "slope_rel_tol": 0.10}}))


def test_criterion_02_non_gaussian_linear_growth():
    t0 = time.monotonic()
    lyap = lyapunov_spectrum(TMS, t_star=12.0, dt=0.01)
    lam = subsystem_exponent_algebraic(SubsystemSpec.first_modes(1, 2), lyap).lambda_a
    states = {
        "|0,0>": "fock:0,0",
        "|1,0>": "fock:1,0",
        "(|0,0>+|2,0>)/sqrt2": "superfock:0,0;2,0",
    }
    reports = {name: run_scenario(_oracle_config(state))
               for name, state in states.items()}
    slopes = {name: rep.sections["oracle"]["slope"] for name, rep in reports.items()}
    elapsed = time.monotonic() - t0
    devs = {name: abs(s - lam) / lam for name, s in slopes.items()}
    pair_gap = max(abs(a - b) for a in slopes.values() for b in slopes.values())
    ok = (all(rep.ok for rep in reports.values()) and all(d <= 0.10 for d in devs.values())
          and pair_gap <= 0.10 * lam and elapsed < 300.0)
    detail = ", ".join(f"{n}: {s:.4f} ({100 * (s - lam) / lam:+.1f}%)" for n, s in slopes.items())
    _report(2, ok, f"Lambda_A {lam:.4f}; {detail}; max pairwise gap "
                   f"{pair_gap:.4f} <= {0.10 * lam:.3f}; {elapsed:.1f}s")


def test_criterion_03_bounding_corridor():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(1000):
        mixed = rng.random() < 0.6
        g = random_covariance(2, rng, mixed=mixed, scale=0.7)
        try:
            rep = corridor_check(g)
        except Exception:
            violations += 1
            continue
        if not (-1e-9 <= rep.s_vn - rep.s_r2 <= 2 * LN_E_OVER_2 + 1e-9):
            violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 5.0
    _report(3, ok, f"0 <= S - S2 <= N ln(e/2) on 1000 random states, "
                   f"{violations} violations, {elapsed:.1f}s")


def test_criterion_04_geometric_renyi():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        g = random_covariance(2, rng, mixed=rng.random() < 0.5)
        basis = random_symplectic(2, rng)
        gram = basis @ g @ basis.T
        log_vol = 0.5 * np.log(np.linalg.det(gram))
        worst = max(worst, abs(renyi2_entropy(g) - log_vol))
    ok = worst <= 1e-9
    _report(4, ok, f"S2 vs Gram log-volume on 100 random pairs, max dev {worst:.2e} <= 1e-9")


def test_criterion_05_subsystem_exponent_algorithm():
    devs = {}
    for name in ("inverted_pair", "coupled_chain", "parametric_drive"):
        rep = run_scenario(default_scenario(name))
        exp = rep.sections["exponent"]
        devs[name] = abs(exp["lambda_alg"] - exp["lambda_vol"]) / abs(exp["lambda_alg"])
    method_ok = all(d <= 0.02 for d in devs.values())

    ham = QuadraticHamiltonian.constant(
        __import__("entgrowth.scenarios", fromlist=["inverted_pair_form"]).inverted_pair_form())
    from entgrowth.lyapunov import qr_spectrum
    lyap = qr_spectrum(ham, 120.0, 0.01)
    rng = np.random.default_rng(505)
    first = SubsystemSpec.first_modes(1, 2).selector
    agree = 0
    for _ in range(100):
        sub = SubsystemSpec(first @ random_symplectic(2, rng))
        alg = subsystem_exponent_algebraic(sub, lyap)
        if abs(alg.lambda_a - alg.generic_lambda) <= 1e-9:
            agree += 1
    ok = method_ok and agree >= 99
    detail = ", ".join(f"{n}: {100 * d:.2f}%" for n, d in devs.items())
    _report(5, ok, f"algebraic vs volumetric dev {detail} (<= 2%); "
                   f"generic shortcut agreed {agree}/100 (>= 99)")


def test_criterion_06_polar_factor_spectra():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(20):
        h = random_unstable_hamiltonian_form(2, rng, min_rate=0.25)
        ham = QuadraticHamiltonian.constant(h)
        top = float(np.max(np.linalg.eigvals(standard_omega(2) @ h).real))
        t_star = min(14.0 / top, 40.0)
        series = propagate(ham, t_star, 0.01, store_every=25)
        comp = polar_factor_exponents(series)  # raises beyond tolerance
        worst = max(worst, comp.worst_ratio)
    _report(6, worst <= 1.0, f"lambda(T)=lambda(M) and lambda(sqrt T)=lambda(M)/2 on 20 random "
                             f"unstable flows; worst dev/tol {worst:.3f}")


def test_criterion_07_stationarity_and_minimizer():
    rng = np.random.default_rng(707)
    worst_res = 0.0
    worst_gap = 0.0
    for _ in range(20):
        m = random_pd_symplectic(2, rng, scale=0.4)
        fam = SubsystemFamily.transported_pair(SPLIT2, m)
        worst_res = max(worst_res, stationarity_residual(np.linalg.inv(m), fam))
        target = 2.0 * mutual_information_asymptotic(m, SPLIT2)
        rep = gss_rhs_minimize(m, SPLIT2)
        worst_gap = max(worst_gap, abs(rep.value - target))
    ok = worst_res <= 1e-10 and worst_gap <= 1e-6
    _report(7, ok, f"20 PD-symplectic cases: residual at M^-1 max {worst_res:.2e} <= 1e-10, "
                   f"minimizer gap max {worst_gap:.2e} <= 1e-6")


def test_criterion_08_metastable_and_classical():
    # nilpotent generator: the flow is exactly affine in time, M(t) = 1 + t K
    ham = QuadraticHamiltonian.constant(metastable_form())
    k_mat = standard_omega(2) @ metastable_form()
    assert np.max(np.abs(k_mat @ k_mat)) == 0.0
    series = propagate(ham, 1000.0, dt=0.25, store_every=4)
    flow_dev = max(np.max(np.abs(m - (np.eye(4) + t * k_mat)))
                   for t, m in zip(series.times, series.matrices))
    flow_exact = flow_dev <= 1e-12 * (1.0 + 1000.0)

    rep = run_scenario(default_scenario("metastable"))
    bounds = rep.sections["bounds"]
    bound_values = [entry["value"] for entry in bounds]
    bounds_ok = ([entry["t"] for entry in bounds] == [1.0, 10.0, 100.0, 1000.0]
                 and all(v <= 2.0 * LN_E_OVER_2 + 1e-6 for v in bound_values))
    max_dev = rep.sections["metastable"]["max_abs_s2_minus_ln_t"]
    meta_ok = rep.ok and flow_exact and bounds_ok and max_dev < 0.5

    slopes = []
    for eps in (0.05, 0.3):
        ts = np.geomspace(100.0 / eps, 1e4 / eps, 80)
        mi = np.array([classical_counterexample_mi(t, eps) for t in ts])
        slopes.append(fit_slope(np.log(ts), mi).slope)
    classical_ok = all(abs(s - 1.0) <= 0.02 for s in slopes)
    ok = meta_ok and classical_ok
    _report(8, ok, f"metastable: flow exact (dev {flow_dev:.1e}), S2-ln t bounded (max "
                   f"{max_dev:.3f} < 0.5), RHS max {max(bound_values):.2e} <= 2ln(e/2)+1e-6; "
                   f"classical MI log-slopes {[f'{s:.4f}' for s in slopes]} within 1 +- 0.02")


def test_criterion_09_squashed_bounds_vs_oracle():
    cutoff = 20
    lam = 2.0  # two-mode squeezer at unit rate
    containment = []
    for occupations in ((0, 0), (1, 0)):
        psi0 = FockState.fock(occupations, cutoff)
        from entgrowth.fock import covariance_of, evolve_fock, reduced_entropy
        g0, _ = covariance_of(psi0)
        cfg = FockConfig(dt=0.005, leak_ceiling=3e-3)
        gauss = propagate(TMS, 1.4, 0.005, store_every=10)
        traj = evolve_fock(psi0, gauss.matrices, 1.4, cfg, store_every=10)
        ok_here = True
        for idx, t in enumerate(traj.times):
            if not traj.trusted[idx]:
                break
            s_true = reduced_entropy(FockState(traj.amplitudes[idx]), (0,))
            t_part = polar_decompose(gauss.matrices[idx]).t_part
            lower, upper = squashed_bounds(t_part, g0, SPLIT2)
            if not (lower - 1e-9 <= s_true <= upper + 1e-9):
                ok_here = False
        containment.append(ok_here)

    # bound trajectories on the Gaussian side, fitted past the transient
    gauss = propagate(TMS, 4.0, 0.005, store_every=20)
    times, lowers, uppers = [], [], []
    for idx, t in enumerate(gauss.times):
        if t < 2.0:
            continue
        t_part = polar_decompose(gauss.matrices[idx]).t_part
        lo, up = squashed_bounds(t_part, np.eye(4), SPLIT2)
        times.append(t)
        lowers.append(lo)
        uppers.append(up)
    slope_lo = fit_slope(np.array(times), np.array(lowers)).slope
    slope_up = fit_slope(np.array(times), np.array(uppers)).slope
    slopes_ok = abs(slope_lo - lam) <= 0.05 * lam and abs(slope_up - lam) <= 0.05 * lam
    ok = all(containment) and slopes_ok
    _report(9, ok, f"oracle S(A) within [lower, upper] at all trusted times for |0,0> and "
                   f"|1,0>: {containment}; bound slopes {slope_lo:.4f}, {slope_up:.4f} "
                   f"within 5% of {lam}")


def test_criterion_10_mechanics():
    # symplectic defect stays under its ceiling along representative runs
    from entgrowth.scenarios import coupled_chain_form, inverted_pair_form, parametric_drive_hamiltonian
    worst_ratio = 0.0
    for ham, t_final, dt in (
            (QuadraticHamiltonian.constant(inverted_pair_form()), 24.0, 0.002),
            (QuadraticHamiltonian.constant(coupled_chain_form()), 24.0, 0.002),
            (parametric_drive_hamiltonian(), 17.6, 0.01)):
        series = propagate(ham, t_final, dt, store_every=50)
        norms = np.array([np.max(np.abs(m)) for m in series.matrices])
        ratios = series.defects / (1e-8 * (1.0 + norms ** 2))
        worst_ratio = max(worst_ratio, float(np.max(ratios)))
    defect_ok = worst_ratio <= 1.0

    # second-order convergence on a smoothly driven oscillator
    def h_of_t(t):
        return np.array([[1.0 + 0.4 * np.cos(1.1 * t), 0.0], [0.0, 1.0]])

    ham = QuadraticHamiltonian(h=h_of_t, n_modes=1)
    ref = propagate(ham, 5.0, 5e-5, store_every=10 ** 6).final_matrix
    errs = [np.max(np.abs(propagate(ham, 5.0, dt, store_every=10 ** 6).final_matrix - ref))
            for dt in (0.02, 0.01, 0.005)]
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    order_ok = 3.0 < r1 < 5.2 and 3.0 < r2 < 5.2
    ok = defect_ok and order_ok
    _report(10, ok, f"defect/ceiling max {worst_ratio:.3f} <= 1; dt-halving error ratios "
                    f"{r1:.2f}, {r2:.2f} (second order ~ 4)")
