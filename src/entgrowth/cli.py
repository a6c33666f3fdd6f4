"""Command-line surface.

Commands::

    entgrowth simulate <config.json>          full pipeline per the config
    entgrowth lyapunov <config.json>          spectrum, basis, residual only
    entgrowth exponent <config.json>          algebraic + volumetric exponent
    entgrowth bounds-check <config.json>      RHS minimization + stationarity
    entgrowth oracle <config.json>            truncated-Fock run (fock configs)
    entgrowth scenario list
    entgrowth scenario run <name> [--override key=val ...] [--csv ...] [--report ...]

Exit code is 0 only when every asserted invariant in the run passed.
"""

import argparse
import json
import sys

from .config import (
    ScenarioConfig,
    build_hamiltonian_from_spec,
    config_hash,
    parse_config,
    serialize_config,
)
from .errors import ConfigError
from .lyapunov import lyapunov_spectrum, regularity_check
from .phase_space import SubsystemSpec
from .reporting import RunReport
from .scenarios import SCENARIO_NAMES, bound_matrices, default_scenario, run_scenario
from .ssa import gss_rhs_minimize, stationarity_residual, SubsystemFamily
from .subsystem import subsystem_exponent_algebraic, subsystem_exponent_volumetric


def _load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def _emit(report: RunReport, args) -> int:
    sys.stdout.write(report.to_text())
    if getattr(args, "json", False):
        sys.stdout.write(report.to_json())
    return 0 if report.ok else 1


def _apply_output_flags(cfg, args):
    if getattr(args, "csv", None):
        cfg.output.csv = args.csv
    if getattr(args, "report", None):
        cfg.output.report = args.report
    if getattr(args, "report_json", None):
        cfg.output.report_json = args.report_json


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    _apply_output_flags(cfg, args)
    report = run_scenario(cfg)
    return _emit(report, args)


def _cmd_lyapunov(args) -> int:
    cfg = _load_config(args.config)
    ham = build_hamiltonian_from_spec(cfg.hamiltonian, cfg.modes)
    t_star = cfg.run.lyapunov_t_star or cfg.run.t_final
    dt = cfg.run.lyapunov_dt or cfg.run.dt
    residual_tol = cfg.tolerances.residual_tol or 0.5
    data = lyapunov_spectrum(ham, t_star, dt, residual_tol=residual_tol)
    reg = regularity_check(data)
    report = RunReport(scenario_id=cfg.scenario or "custom", config_hash=config_hash(cfg))
    report.add("lyapunov", {
        "exponents": data.exponents, "raw_exponents": data.raw_exponents,
        "basis": data.basis, "residual": data.residual, "horizon": data.horizon,
        "method": data.method, "regular": reg.is_regular,
        "pairing_violation": reg.max_violation})
    return _emit(report, args)


def _cmd_exponent(args) -> int:
    cfg = _load_config(args.config)
    ham = build_hamiltonian_from_spec(cfg.hamiltonian, cfg.modes)
    t_star = cfg.run.lyapunov_t_star or cfg.run.t_final
    dt = cfg.run.lyapunov_dt or cfg.run.dt
    residual_tol = cfg.tolerances.residual_tol or 0.5
    data = lyapunov_spectrum(ham, t_star, dt, residual_tol=residual_tol)
    sub = SubsystemSpec.first_modes(cfg.modes.n_a, cfg.modes.n_total)
    alg = subsystem_exponent_algebraic(sub, data)
    g0 = cfg.initial_state.covariance
    vol = subsystem_exponent_volumetric(sub, ham, cfg.run.t_final, cfg.run.dt, g0=g0)
    report = RunReport(scenario_id=cfg.scenario or "custom", config_hash=config_hash(cfg))
    rel = abs(alg.lambda_a - vol.lambda_a) / max(abs(alg.lambda_a), 1e-12)
    report.add("exponent", {
        "lambda_alg": alg.lambda_a, "indices": list(alg.indices),
        "generic_lambda": alg.generic_lambda, "generic_agrees": alg.generic_agrees,
        "lambda_vol": vol.lambda_a, "vol_stderr": vol.stderr,
        "vol_window": list(vol.window), "rel_disagreement": rel})
    if abs(alg.lambda_a - vol.lambda_a) > max(0.02 * abs(alg.lambda_a), 2.0 * (vol.stderr or 0.0), 1e-3):
        report.fail(f"algebraic {alg.lambda_a:.6g} vs volumetric {vol.lambda_a:.6g} disagree")
    return _emit(report, args)


def _cmd_bounds_check(args) -> int:
    cfg = _load_config(args.config)
    ham = build_hamiltonian_from_spec(cfg.hamiltonian, cfg.modes)
    from .dynamics import propagate
    times = cfg.run.bound_times or (cfg.run.t_final,)
    series = propagate(ham, max(times), cfg.run.dt, store_every=max(1, cfg.run.store_every))
    report = RunReport(scenario_id=cfg.scenario or "custom", config_hash=config_hash(cfg))
    entries = []
    for t, m in zip(times, bound_matrices(series, times)):
        rep = gss_rhs_minimize(m, cfg.modes)
        fam = SubsystemFamily.transported_pair(cfg.modes, m)
        entries.append({
            "t": float(t), "value": rep.value,
            "stationarity_residual": rep.residual,
            "residual_at_argmin": stationarity_residual(rep.argmin_g, fam),
            "iterations": rep.iterations, "converged": rep.converged,
            "diverged": rep.diverged})
        if not rep.converged:
            report.warn(f"minimizer at t={t:g} {rep.stop_summary}")
    report.add("bounds", entries)
    return _emit(report, args)


def _cmd_oracle(args) -> int:
    cfg = _load_config(args.config)
    if cfg.initial_state.type != "fock":
        raise ConfigError("oracle command needs a fock initial state", "initial_state.type")
    _apply_output_flags(cfg, args)
    report = run_scenario(cfg)
    return _emit(report, args)


def _apply_override(cfg_dict, key, value):
    parts = key.split(".")
    node = cfg_dict
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            node[part] = {}
        node = node[part]
    try:
        node[parts[-1]] = json.loads(value)
    except json.JSONDecodeError:
        node[parts[-1]] = value


def _cmd_scenario(args) -> int:
    if args.action == "list":
        for name in SCENARIO_NAMES:
            sys.stdout.write(name + "\n")
        return 0
    cfg = default_scenario(args.name)
    if args.override:
        import json as _json
        doc = _json.loads(serialize_config(cfg))
        for item in args.override:
            key, _, value = item.partition("=")
            if not _ or not key:
                raise ConfigError(f"override must look like key=val, got {item!r}")
            _apply_override(doc, key, value)
        cfg = parse_config(_json.dumps(doc))
        cfg.scenario = args.name
    _apply_output_flags(cfg, args)
    if args.print_config:
        sys.stdout.write(serialize_config(cfg))
        return 0
    report = run_scenario(cfg)
    return _emit(report, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="entgrowth",
                                     description="entanglement growth under quadratic Hamiltonians")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="also print the JSON report")
        p.add_argument("--csv", help="write the time-series CSV here")
        p.add_argument("--report", help="write the text report here")
        p.add_argument("--report-json", dest="report_json", help="write the JSON report here")

    for name, fn in (("simulate", _cmd_simulate), ("lyapunov", _cmd_lyapunov),
                     ("exponent", _cmd_exponent), ("bounds-check", _cmd_bounds_check),
                     ("oracle", _cmd_oracle)):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a JSON scenario config")
        add_common(p)
        p.set_defaults(func=fn)

    p_scen = sub.add_parser("scenario")
    p_scen.add_argument("action", choices=("list", "run"))
    p_scen.add_argument("name", nargs="?", help="builtin scenario name (for run)")
    p_scen.add_argument("--override", action="append", default=[],
                        metavar="key=val", help="dotted-path config override")
    p_scen.add_argument("--print-config", action="store_true",
                        help="print the resolved config instead of running")
    add_common(p_scen)
    p_scen.set_defaults(func=_cmd_scenario)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "scenario" and args.action == "run" and not args.name:
        parser.error("scenario run needs a name")
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
