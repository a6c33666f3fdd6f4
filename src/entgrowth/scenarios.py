"""Built-in scenarios and the end-to-end pipeline behind the CLI.

One scenario per claim the package checks: a pair of inverted oscillators
(linear entropy growth with an analytically known spectrum), a
nearest-neighbor chain with tunable instability, the nilpotent metastable
model (logarithmic growth, constant subadditivity bound), a periodically
driven mode (Floquet multipliers and rates), and the classical log-growth
counterexample in closed form.

``run_scenario`` runs the whole pipeline; ``run_view`` runs only the stages
one result needs (the CLI's ``lyapunov``, ``exponent`` and ``bounds-check``),
through the same stage functions and the same error handling.
"""

import copy
import errno
import math
import os
from contextlib import contextmanager

import numpy as np

from . import fock as fock_mod
from .config import ScenarioConfig, config_hash, stored_sample_index
from .dynamics import QuadraticHamiltonian, propagate, require_real_logarithm, step_count
from .entropy import LN_E_OVER_2, _half_logdet_factor, mode_entropy, von_neumann_entropy
from .errors import (ConfigError, EntgrowthError, NoRealLogarithm, SingularM, StepTooLarge,
                     WindowTooShort)
from .fitting import fit_slope, windowed
from .lyapunov import lyapunov_spectrum, regularity_check
from .phase_space import (
    ModeCount,
    SubsystemSpec,
    _earliest_failure,
    _fail,
    covariance_factor,
    factor_spectrum,
    is_pure,
    row_factor,
)
from .reporting import RunReport, csv_rows, write_csv
from .ssa import gss_rhs_minimize, squashed_bounds
from .subsystem import (
    subsystem_exponent_algebraic,
    volumetric_slope_fit,
)

_OSCILLATOR_KINETIC = 1.0  # coefficient of p^2/2 in every builtin


def _chain_form(omega_sq, coupling):
    """h for sum_i (p_i^2 + w_i^2 q_i^2)/2 + g sum q_i q_{i+1}."""
    n = len(omega_sq)
    h = np.zeros((2 * n, 2 * n))
    for i, w2 in enumerate(omega_sq):
        h[2 * i, 2 * i] = w2
        h[2 * i + 1, 2 * i + 1] = _OSCILLATOR_KINETIC
    for i in range(n - 1):
        h[2 * i, 2 * (i + 1)] = h[2 * (i + 1), 2 * i] = coupling
    return h


def inverted_pair_form(kappa1=1.0, kappa2=0.8, coupling=0.2):
    """Two inverted oscillators with position coupling."""
    return _chain_form([-kappa1 ** 2, -kappa2 ** 2], coupling)


def coupled_chain_form(omega_sq=(-1.0, 1.0, -0.64, 1.0), coupling=0.25):
    return _chain_form(list(omega_sq), coupling)


def metastable_form():
    """h for H = (p1 q2 + q2 p1)/2; the generator Omega h is nilpotent."""
    h = np.zeros((4, 4))
    h[1, 2] = h[2, 1] = 1.0
    return h


def two_mode_squeezing_form(rate=1.0):
    """h for H = rate (q1 p2 + p1 q2); exponents (+rate, +rate, -rate, -rate)."""
    h = np.zeros((4, 4))
    h[0, 3] = h[3, 0] = rate
    h[1, 2] = h[2, 1] = rate
    return h


def parametric_drive_hamiltonian(omega_on=1.0, kappa=1.0, t_on=0.6, period=2.2,
                                 coupling=0.15) -> QuadraticHamiltonian:
    """Mode-1 frequency square-modulated between +omega_on^2 and -kappa^2.

    The long inverted phase with a short stable interlude produces real
    Floquet multipliers off the unit circle: an unstable pair of Floquet
    rates ln|mu|/period.
    """
    if not 0 < t_on < period:
        raise ValueError("need 0 < t_on < period")
    h_on = _chain_form([omega_on ** 2, 1.0], coupling)
    h_off = _chain_form([-kappa ** 2, 1.0], coupling)
    return QuadraticHamiltonian.piecewise([(t_on, h_on), (period - t_on, h_off)], period)


def _constant(form):
    """Factory of the constant Hamiltonian whose form ``form(**params)`` builds."""
    return lambda **params: QuadraticHamiltonian.constant(form(**params))


# builtin name -> factory taking the builtin's params
_BUILTINS = {"inverted_pair": _constant(inverted_pair_form),
             "coupled_chain": _constant(coupled_chain_form),
             "metastable": _constant(metastable_form),
             "classical_shear": _constant(metastable_form),
             "two_mode_squeezing": _constant(two_mode_squeezing_form),
             "parametric_drive": parametric_drive_hamiltonian}


def builtin_hamiltonian(name: str, modes: ModeCount, **params) -> QuadraticHamiltonian:
    """Resolve a builtin Hamiltonian name from a config."""
    if name not in _BUILTINS:
        raise ConfigError(f"unknown builtin hamiltonian {name!r}", "hamiltonian.name")
    ham = _BUILTINS[name](**params)
    if ham.n_modes != modes.n_total:
        raise ConfigError(f"{name} has {ham.n_modes} modes, config says {modes.n_total}",
                          "modes.total")
    return ham


CLASSICAL_EPS = 0.05   # standard deviation of the sheared pair's second Gaussian


def classical_counterexample_mi(t: float, eps: float) -> float:
    """Mutual information (1/2) ln(1 + t^2 eps^2) of the sheared Gaussian pair.

    Independent Gaussians with variances 1 and eps^2 under the shear
    X -> X + t Y: logarithmic in t for fixed eps, vanishing as eps -> 0 at
    fixed t, so the shear infimum and the long-time limit do not commute.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    return 0.5 * math.log(1.0 + (t * eps) ** 2)


# ---------------------------------------------------------------------------
# scenario registry

# builtin scenario -> its config document, less the "scenario" tag and the
# vacuum initial state that every builtin shares
_SCENARIOS = {
    "inverted_pair": {
        "modes": {"total": 2, "subsystem": 1},
        "hamiltonian": {"type": "builtin", "name": "inverted_pair"},
        "run": {"t_final": 24.0, "dt": 0.002, "store_every": 60,
                "lyapunov_t_star": 120.0, "lyapunov_dt": 0.01},
        "tolerances": {"residual_tol": 0.05}},
    "coupled_chain": {
        "modes": {"total": 4, "subsystem": 1},
        "hamiltonian": {"type": "builtin", "name": "coupled_chain"},
        "run": {"t_final": 24.0, "dt": 0.002, "store_every": 60,
                "lyapunov_t_star": 120.0, "lyapunov_dt": 0.01},
        "tolerances": {"residual_tol": 0.05}},
    "metastable": {
        "modes": {"total": 2, "subsystem": 1},
        "hamiltonian": {"type": "builtin", "name": "metastable"},
        "run": {"t_final": 1000.0, "dt": 0.25, "store_every": 4,
                "lyapunov_t_star": 1000.0, "lyapunov_dt": 0.25,
                "bound_times": [1.0, 10.0, 100.0, 1000.0], "window": [100.0, 1000.0]},
        "tolerances": {"residual_tol": 0.05}},
    # period 2.2, 8 periods.  The A block mixes e^{+lambda t} with a bounded
    # direction, which the stored M(t) itself loses to roundoff: every gate
    # passes to 24 periods, and from 32 on S2_A grows at the wrong rate,
    # which the exponent gate catches
    "parametric_drive": {
        "modes": {"total": 2, "subsystem": 1},
        "hamiltonian": {"type": "builtin", "name": "parametric_drive"},
        "run": {"t_final": 17.6, "dt": 0.01, "store_every": 220,
                "lyapunov_t_star": 132.0, "lyapunov_dt": 0.01},
        "tolerances": {"residual_tol": 0.05}},
    # closed form: the pipeline never evolves the shear
    "classical_counterexample": {
        "modes": {"total": 2, "subsystem": 1},
        "hamiltonian": {"type": "builtin", "name": "classical_shear"},
        "run": {"t_final": 1e4, "dt": 1.0}},
}

SCENARIO_NAMES = tuple(_SCENARIOS)


def scenario_document(name: str) -> dict:
    """A fresh copy of a builtin scenario's config document."""
    if name not in _SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}", "scenario")
    return {"scenario": name, "initial_state": {"type": "gaussian", "covariance": "vacuum"},
            **copy.deepcopy(_SCENARIOS[name])}


# ---------------------------------------------------------------------------
# pipeline

def _period_map(cfg):
    """A periodic flow's M(tau) at the run's step and defect ceiling; None for an aperiodic flow.

    The one matrix that the Lyapunov stage and the Floquet section read.
    """
    tau = cfg.hamiltonian.period
    if tau is None:
        return None
    # only M(tau) is read: store the last step alone
    return _flow_stage("floquet", cfg, tau, step_count(tau, cfg.run.dt)).final_matrix


def _lyapunov_section(report, cfg, period_map):
    run = cfg.run
    t_star = run.lyapunov_t_star or max(run.t_final, 60.0)
    dt = run.lyapunov_dt or min(run.dt * 5.0, 0.05)
    residual_tol = cfg.tolerances.residual_tol
    if residual_tol is None:
        residual_tol = 0.05
    lyap = lyapunov_spectrum(cfg.hamiltonian, t_star, dt, residual_tol=residual_tol * 10.0,
                             period_map=period_map)
    reg = regularity_check(lyap, tol=max(0.05, 4.0 * lyap.residual))
    report.add("lyapunov", {
        "exponents": lyap.exponents, "raw_exponents": lyap.raw_exponents, "basis": lyap.basis,
        "residual": lyap.residual, "horizon": lyap.horizon, "method": lyap.method,
        "regular": reg.is_regular, "pairing_violation": reg.max_violation})
    if not reg.is_regular:
        report.warn(f"spectrum not regular at tolerance: pairing violation {reg.max_violation:.3g}")
    return lyap


def _floquet_section(report, cfg, period_map):
    """Multipliers mu of M(tau), rates ln|mu|/tau and the sum of the first 2 N_A rates."""
    mults = np.linalg.eigvals(period_map)
    rates = np.sort(np.log(np.abs(mults)))[::-1] / cfg.hamiltonian.period
    report.add("floquet", {"multipliers_abs": np.sort(np.abs(mults))[::-1], "rates": rates,
                           "lambda_from_multipliers": float(np.sum(rates[:2 * cfg.modes.n_a]))})
    try:
        require_real_logarithm(mults)
    except NoRealLogarithm as exc:
        report.warn(f"no real stroboscopic generator: {exc}")


def _guarded(cfg, body) -> RunReport:
    report = RunReport(scenario_id=cfg.scenario or "custom", config_hash=config_hash(cfg))
    try:
        body(cfg, report)
    except EntgrowthError as exc:
        # partial results stay on the report; the failure is structural,
        # never a silent gap
        report.fail(f"{type(exc).__name__}: {exc}")
    return report


def _is_builtin(cfg, name):
    # a gate follows the Hamiltonian, never the free-form scenario tag
    return cfg.canonical["hamiltonian"] == {"type": "builtin", "name": name}


def run_scenario(cfg: ScenarioConfig, write_outputs: bool = True) -> RunReport:
    """Execute the pipeline a config describes and emit CSV plus reports.

    Deterministic: identical configs give byte-identical CSV.  Module
    errors surface as structured warnings or failures with partial results
    preserved; the CLI maps ``failures`` to a nonzero exit code.  An output
    path that is a directory or lies in a missing directory raises its
    ``OSError`` before any stage runs.
    """
    paths = [cfg.output.csv, cfg.output.report, cfg.output.report_json] if write_outputs else []
    for path in filter(None, paths):
        # fail before any stage runs, with the error that opening would raise
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    body = _run_classical if _is_builtin(cfg, "classical_shear") else _run_flow
    report = _guarded(cfg, body)
    if write_outputs:
        _write_outputs(cfg, report)
    return report


def _lyapunov_view(cfg, report):
    _lyapunov_section(report, cfg, _period_map(cfg))


def _exponent_view(cfg, report):
    series = _propagation_section(report, cfg)
    lyap = _lyapunov_section(report, cfg, _period_map(cfg))
    _, s2_a, _ = _a_block(series.matrices, series.times, covariance_factor(cfg.initial_state),
                          cfg.modes)
    _exponent_section(report, cfg.modes, lyap, series, s2_a)


def _bounds_view(cfg, report):
    series = _propagation_section(report, cfg)
    _bounds_section(report, series, cfg.modes, cfg.run.bound_times or (cfg.run.t_final,))


_VIEWS = {"lyapunov": _lyapunov_view, "exponent": _exponent_view, "bounds": _bounds_view}


def run_view(cfg: ScenarioConfig, view: str) -> RunReport:
    """Run only the pipeline stages one result needs; no CSV, no output files.

    ``lyapunov`` runs the Lyapunov stage; ``exponent`` runs propagation,
    Lyapunov, the A-block factor and exponent; ``bounds`` runs propagation
    and the bound minimizations at ``run.bound_times``, or at ``t_final``
    when there are none.  Each section equals the section of the same name in
    :func:`run_scenario`'s report on the same config, and a stage error
    becomes a report failure in the same way.  A view of a stage that the
    config's pipeline never runs is a ``ConfigError``: every view of the
    classical counterexample, and the exponent view of a Fock state.
    """
    if _is_builtin(cfg, "classical_shear"):
        raise ConfigError(f"the classical counterexample has no {view} stage", "hamiltonian")
    if view == "exponent" and not isinstance(cfg.initial_state, np.ndarray):
        raise ConfigError("a fock initial state has no exponent stage", "initial_state.type")
    return _guarded(cfg, _VIEWS[view])


def _write_outputs(cfg, report):
    if cfg.output.csv:
        write_csv(cfg.output.csv, report.rows)
    if cfg.output.report:
        with open(cfg.output.report, "w") as fh:
            fh.write(report.to_text())
    if cfg.output.report_json:
        with open(cfg.output.report_json, "w") as fh:
            fh.write(report.to_json())


def _run_classical(cfg, report):
    eps = CLASSICAL_EPS
    t_grid = np.geomspace(1.0 / eps, cfg.run.t_final / eps, 120)
    mi = np.array([classical_counterexample_mi(t, eps) for t in t_grid])
    mask = t_grid * eps >= 100.0
    with _fit_stage("classical_counterexample", (100.0 / eps, cfg.run.t_final / eps)):
        fit = fit_slope(np.log(t_grid[mask]), mi[mask])
    report.add("classical_counterexample", {
        "eps": eps, "log_slope": fit.slope, "log_slope_stderr": fit.stderr,
        "mi_at_t0": mi[0], "mi_at_tend": mi[-1]})
    report.rows = csv_rows(t=t_grid, s_vn_a=None, s2_a=None, s_as_a=None, i_ab=mi,
                           lambda_a_alg=None, lambda_a_vol=None, bound_lower=None,
                           bound_upper=None, source="gaussian", trusted=True)
    if abs(fit.slope - 1.0) > 0.02:
        report.fail(f"classical MI log-slope {fit.slope:.4f} deviates from 1 beyond 0.02")


def _propagation_section(report, cfg):
    series = _flow_stage("propagation", cfg, cfg.run.t_final, cfg.run.store_every)
    report.add("propagation", {"t_final": series.t_final, "dt": series.dt,
                               "max_defect": float(np.max(series.defects)),
                               "samples": len(series.times)})
    return series


def _flow_stage(name, cfg, t_final, store_every):
    """``propagate`` to ``t_final`` at the run's step and defect ceiling; a failure names the stage."""
    try:
        return propagate(cfg.hamiltonian, t_final, cfg.run.dt, store_every=store_every,
                         defect_factor=cfg.tolerances.defect_factor)
    except (StepTooLarge, SingularM) as exc:
        raise type(exc)(f"{name} stage {exc}") from exc


@contextmanager
def _stage(name, block, times):
    """Name the stage, the block and the sample time in a failure of a stacked call."""
    try:
        yield
    except (ValueError, RuntimeError) as exc:
        if getattr(exc, "index", None) is None:
            raise
        _fail(type(exc), exc.detail, exc.index,
              f"{name} stage, {block} at t={times[exc.index]:.6g}")


@contextmanager
def _fit_stage(name, window):
    """Name the stage and the window in a slope fit's failure."""
    try:
        yield
    except WindowTooShort as exc:
        raise WindowTooShort(f"{name} stage, window [{window[0]:.6g}, {window[1]:.6g}]: "
                             f"{exc}") from exc


def _exponent_section(report, split, lyap, series, s2_a):
    alg = subsystem_exponent_algebraic(SubsystemSpec.first_modes(split.n_a, split.n_total), lyap)
    with _fit_stage("exponent", (0.5 * series.t_final, series.t_final)):
        vol = volumetric_slope_fit(series.times, s2_a, series.t_final)
    report.add("exponent", {
        "lambda_alg": alg.lambda_a, "indices": list(alg.indices),
        "generic_lambda": alg.generic_lambda, "generic_agrees": alg.generic_agrees,
        "lambda_vol": vol.slope, "vol_stderr": vol.stderr, "vol_window": list(vol.window)})
    if abs(alg.lambda_a - vol.slope) > max(0.02 * abs(alg.lambda_a), 2.0 * vol.stderr, 1e-3):
        report.fail(f"algebraic {alg.lambda_a:.6g} vs volumetric {vol.slope:.6g} disagree")
    return alg, vol


def _run_flow(cfg, report):
    """The pipeline for a Gaussian or a Fock initial state.

    The stages that read only the flow M(t) (propagation, Lyapunov, Floquet
    for a periodic flow, bounds) are the same for both state types; the
    entropy rows and the slope gate are each state type's own.  A periodic
    flow's M(tau) is propagated once, before the Lyapunov stage, which reads
    it with the Floquet section.
    """
    series = _propagation_section(report, cfg)
    period_map = _period_map(cfg)
    lyap = _lyapunov_section(report, cfg, period_map)
    if cfg.hamiltonian.period is not None:
        _floquet_section(report, cfg, period_map)
    gaussian = isinstance(cfg.initial_state, np.ndarray)
    (_gaussian_stages if gaussian else _fock_stages)(report, cfg, series, lyap)
    if cfg.run.bound_times:
        _bounds_section(report, series, cfg.modes, cfg.run.bound_times)
    # the log-growth gate belongs to the metastable model, whatever the tag
    if gaussian and _is_builtin(cfg, "metastable"):
        _metastable_section(report, series.times)


def _a_block(mats, times, c0, split):
    """The factor L of each A block, S_2(A) and S_as(A) at every M(t).

    ``c0`` is the Cholesky factor of g0, so that G_A = (M g0 M^T)_A is
    W W^T with W = M_A C0, M_A the 2 N_A rows of A: L is ``row_factor(W)``,
    and neither G(t) nor G_A is formed.  S_2(A) = (1/2) ln det G_A = sum
    ln diag L is the log volume whose slope is the volumetric exponent.
    """
    with _stage("entropy", "A block", times):
        ell = row_factor(mats[..., :2 * split.n_a, :] @ c0)
    s2_a = _half_logdet_factor(ell)
    return ell, s2_a, s2_a + split.n_a * LN_E_OVER_2


def _bounds_columns(mats, times, g0, split):
    """The squashed-entanglement bounds at every stored M(t)."""
    with _stage("squashed-bound", "flow matrix", times):
        return squashed_bounds(mats, g0, split)


@_earliest_failure
def _gaussian_samples(mats, times, g0, c0, split, s_global, ell):
    """The S_vn(A), I(A;B) and bound columns of the Gaussian rows, one array each.

    ``ell`` is :func:`_a_block`'s stack and ``c0`` the Cholesky factor of
    ``g0``; a re-run on the first samples of ``mats`` reads the first rows
    of ``ell``.  ``s_global`` is the entropy of ``g0``, or None for a pure
    ``g0``.
    """
    n = len(mats)
    lower, upper = _bounds_columns(mats, times, g0, split)
    with _stage("entropy", "A block", times):
        s_vn_a = np.sum(mode_entropy(factor_spectrum(ell[:n])), axis=-1)
    if s_global is None:
        # pure global state: S(B) = S(A) exactly, and S(AB) = 0; avoids
        # the ill-conditioned unit eigenvalues of the big B-block
        i_ab = 2.0 * s_vn_a
    else:
        with _stage("entropy", "B block", times):
            nus_b = factor_spectrum(row_factor(mats[..., 2 * split.n_a:, :] @ c0))
        i_ab = s_vn_a + np.sum(mode_entropy(nus_b), axis=-1) - s_global
    return s_vn_a, i_ab, lower, upper


def _gaussian_stages(report, cfg, series, lyap):
    split = cfg.modes
    g0 = cfg.initial_state
    c0 = covariance_factor(g0)
    ell, s2_a, s_as_a = _a_block(series.matrices, series.times, c0, split)
    alg, vol = _exponent_section(report, split, lyap, series, s2_a)

    # symplectic invariance: the global spectrum never changes along the flow
    s_global = None if is_pure(g0) else von_neumann_entropy(g0)
    s_vn_a, i_ab, lower, upper = _gaussian_samples(series.matrices, series.times, g0, c0, split,
                                                   s_global, ell)
    report.rows = csv_rows(t=series.times, s_vn_a=s_vn_a, s2_a=s2_a, s_as_a=s_as_a, i_ab=i_ab,
                           lambda_a_alg=alg.lambda_a, lambda_a_vol=vol.slope, bound_lower=lower,
                           bound_upper=upper, source="gaussian", trusted=True)

    window = cfg.run.window or (0.5 * series.t_final, series.t_final)
    with _fit_stage("slopes", window):
        fit = fit_slope(*windowed(series.times, s_vn_a, *window))
    lambda_ref = alg.lambda_a
    rel_dev = abs(fit.slope - lambda_ref) / max(abs(lambda_ref), 1e-12)
    report.add("slopes", {"s_vn_slope": fit.slope, "stderr": fit.stderr,
                          "window": list(fit.window), "lambda_ref": lambda_ref,
                          "rel_dev": rel_dev})
    tol = cfg.tolerances.slope_rel_tol
    if abs(fit.slope - lambda_ref) > max(tol * abs(lambda_ref), 0.02):
        report.fail(f"entropy slope {fit.slope:.6g} vs subsystem exponent {lambda_ref:.6g} "
                    f"beyond tolerance")


def _metastable_section(report, times):
    # S2(A) against ln t on [10, t_final], from the rows already built
    grid_mask = times >= 10.0
    s2_vals = report.rows.s2_a[grid_mask]
    dev = s2_vals - np.log(times[grid_mask])
    with _fit_stage("metastable", (10.0, times[-1])):
        log_fit = fit_slope(np.log(times[grid_mask]), s2_vals)
    report.add("metastable", {"log_slope": log_fit.slope,
                              "max_abs_s2_minus_ln_t": float(np.max(np.abs(dev)))})
    if np.max(np.abs(dev)) >= 0.5:
        report.fail("S2(A) - ln t exceeded 0.5 nats on [10, t_final]")


def bound_matrices(series, times):
    """The stored flow matrix at each bound time; an off-grid time is a ConfigError.

    ``parse_config`` applies the same rule; this guards configs changed in code.
    """
    return [series.matrices[stored_sample_index(series.times, t)] for t in times]


def _bounds_section(report, series, split, times):
    entries = []
    for t, m in zip(times, bound_matrices(series, times)):
        try:
            rep = gss_rhs_minimize(m, split)
        except EntgrowthError as exc:
            raise type(exc)(f"bounds stage at t={t:.6g}: {exc}") from exc
        entries.append({"t": float(t), "value": rep.value, "residual": rep.residual,
                        "iterations": rep.iterations, "converged": rep.converged,
                        "diverged": rep.diverged})
        if rep.diverged:
            report.warn(f"bound minimizer at t={t:g} diverged toward the cone boundary "
                        f"(infimum approached, not attained)")
        if not rep.converged:
            report.warn(f"bound minimizer at t={t:g} {rep.stop_summary}")
    report.add("bounds", entries)


def _fock_stages(report, cfg, series, lyap):
    split = cfg.modes
    modes_a = tuple(range(split.n_a))
    sub_a = SubsystemSpec.first_modes(split.n_a, split.n_total)
    psi0 = cfg.initial_state
    fcfg = fock_mod.FockConfig(dt=cfg.run.dt, leak_ceiling=cfg.tolerances.leak_ceiling)
    g0, _ = fock_mod.covariance_of(psi0)

    traj = fock_mod.evolve_fock(psi0, series.matrices, cfg.run.t_final, fcfg,
                                store_every=cfg.run.store_every)
    if traj.trusted_until < cfg.run.t_final:
        report.warn(f"truncation leak at t={traj.trusted_until:g}; later samples untrusted")
    alg = subsystem_exponent_algebraic(sub_a, lyap)

    s_as = _a_block(series.matrices, series.times, covariance_factor(g0), split)[2]
    lowers, uppers = _bounds_columns(series.matrices, series.times, g0, split)
    s_vn, s2 = fock_mod.schmidt_entropies(traj.amplitudes, modes_a)
    inside = (lowers - 1e-9 <= s_vn) & (s_vn <= uppers + 1e-9)
    containment_ok = bool(np.all(inside[traj.trusted]))
    # the global state is pure, so S(B) = S(A), S(AB) = 0 and I(A;B) = 2 S(A)
    report.rows = csv_rows(t=series.times, s_vn_a=s_vn, s2_a=s2, s_as_a=s_as, i_ab=2.0 * s_vn,
                           lambda_a_alg=alg.lambda_a, lambda_a_vol=None, bound_lower=lowers,
                           bound_upper=uppers, source="fock", trusted=traj.trusted)

    t_trust = traj.trusted_until
    window = cfg.run.window or (cfg.run.window_fraction * t_trust, t_trust)
    mask = traj.trusted
    # the trust horizon and the containment verdict stand even if the fit fails
    section = {"trusted_until": t_trust, "max_lost_weight": float(np.max(traj.lost[mask])),
               "bounds_contain_entropy": containment_ok,
               "exponent": {"lambda_alg": alg.lambda_a, "indices": list(alg.indices)}}
    report.add("oracle", section)
    if not containment_ok:
        report.fail("oracle entanglement entropy escaped the squashed-entanglement bounds")
    with _fit_stage("oracle", window):
        fit = fit_slope(*windowed(series.times[mask], s_vn[mask], *window))
    rel_dev = abs(fit.slope - alg.lambda_a) / max(abs(alg.lambda_a), 1e-12)
    section.update(slope=fit.slope, stderr=fit.stderr, window=list(fit.window),
                   lambda_ref=alg.lambda_a, rel_dev=rel_dev)
    if rel_dev > cfg.tolerances.slope_rel_tol:
        report.fail(f"oracle slope {fit.slope:.4f} deviates from exponent "
                    f"{alg.lambda_a:.4f} by {rel_dev:.1%}")
