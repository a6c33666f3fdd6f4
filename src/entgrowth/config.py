"""Scenario configuration: schema, parsing, validation, canonical serialization.

Configs are single JSON documents with four sections::

    {
      "scenario":    "inverted_pair",          # optional builtin tag
      "modes":       {"total": 2, "subsystem": 1},
      "hamiltonian": {"type": "constant" | "builtin" | "piecewise" | "fourier", ...},
      "initial_state": {"type": "gaussian" | "fock", ...},
      "run":         {"t_final": ..., "dt": ..., "store_every": ..., ...},
      "tolerances":  {...},                    # optional overrides
      "output":      {"csv": ..., "report": ...}   # optional paths
    }

A key a section does not define is a ConfigError naming its path (e.g.
``run.store_evry``), as are builtin parameters the builtin rejects.

Matrices are written row-major with explicit dimensions:
``{"rows": 4, "cols": 4, "data": [...16 numbers...]}``.  Serialization is
canonical (sorted keys, fixed float format), so serialize(parse(text)) is
idempotent and configs hash stably.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import fock as fock_mod
from .dynamics import QuadraticHamiltonian, sample_times
from .errors import ConfigError
from .phase_space import ModeCount


def matrix_to_json(a) -> dict:
    a = np.asarray(a, dtype=float)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
            "data": [float(x) for x in a.ravel()]}


def matrix_from_json(obj, fieldname) -> np.ndarray:
    if not isinstance(obj, dict) or not {"rows", "cols", "data"} <= set(obj):
        raise ConfigError("matrix block needs rows/cols/data", fieldname)
    _known_keys(obj, ("rows", "cols", "data"), fieldname)
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if len(data) != rows * cols:
        raise ConfigError(f"expected {rows * cols} entries, got {len(data)}", fieldname)
    return np.array(data, dtype=float).reshape(rows, cols)


@dataclass
class HamiltonianSpec:
    """Declarative description of h(t)."""

    type: str                      # constant | builtin | piecewise | fourier
    name: Optional[str] = None     # builtin name
    params: dict = field(default_factory=dict)
    h: Optional[np.ndarray] = None
    period: Optional[float] = None
    pieces: Optional[list] = None  # [(duration, matrix), ...]
    base: Optional[np.ndarray] = None
    terms: Optional[list] = None   # [{"omega": w, "cos": mat | None, "sin": mat | None}]


@dataclass
class StateSpec:
    type: str                      # gaussian | fock
    covariance: Optional[np.ndarray] = None   # None means vacuum
    state: Optional[str] = None    # e.g. "fock:0,0", "superfock:1,0,0;1,2,0", "coherent:1.0", "cat:1.5"
    cutoff: Optional[int] = None


@dataclass
class RunParams:
    t_final: float
    dt: float
    store_every: int = 1
    lyapunov_t_star: Optional[float] = None
    lyapunov_dt: Optional[float] = None
    window: Optional[tuple] = None
    window_fraction: float = 0.75
    bound_times: tuple = ()
    seed: int = 0


@dataclass
class Tolerances:
    residual_tol: Optional[float] = None
    leak_ceiling: float = 1e-6
    defect_factor: float = 1e-8
    slope_rel_tol: float = 0.05


@dataclass
class OutputSpec:
    csv: Optional[str] = None
    report: Optional[str] = None
    report_json: Optional[str] = None


@dataclass
class ScenarioConfig:
    modes: ModeCount
    hamiltonian: HamiltonianSpec
    initial_state: StateSpec
    run: RunParams
    tolerances: Tolerances = field(default_factory=Tolerances)
    output: OutputSpec = field(default_factory=OutputSpec)
    scenario: Optional[str] = None


def _need(obj, key, fieldname, types=None):
    if key not in obj:
        raise ConfigError(f"missing key {key!r}", fieldname)
    val = obj[key]
    if types is not None and not isinstance(val, types):
        raise ConfigError(f"key {key!r} has wrong type {type(val).__name__}", fieldname)
    return val


def _known_keys(obj, keys, fieldname=None):
    """Reject the first key of ``obj`` outside ``keys``, naming it by its path."""
    for key in obj:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r}", f"{fieldname}.{key}" if fieldname else key)


_TOP_KEYS = ("scenario", "modes", "hamiltonian", "initial_state", "run", "tolerances", "output")
_HAMILTONIAN_KEYS = {"constant": ("type", "h"), "builtin": ("type", "name", "params"),
                     "piecewise": ("type", "period", "pieces"),
                     "fourier": ("type", "base", "terms", "period")}
_STATE_KEYS = {"gaussian": ("type", "covariance"), "fock": ("type", "state", "cutoff")}


def _field_names(cls):
    return {f.name for f in fields(cls)}


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level must be an object")
    _known_keys(doc, _TOP_KEYS)

    modes_obj = _need(doc, "modes", "modes", dict)
    _known_keys(modes_obj, ("total", "subsystem"), "modes")
    try:
        modes = ModeCount(n_total=int(_need(modes_obj, "total", "modes.total")),
                          n_a=int(_need(modes_obj, "subsystem", "modes.subsystem")))
    except ValueError as exc:
        raise ConfigError(str(exc), "modes") from exc

    ham_obj = _need(doc, "hamiltonian", "hamiltonian", dict)
    ham = _parse_hamiltonian(ham_obj, modes)

    state_obj = _need(doc, "initial_state", "initial_state", dict)
    state = _parse_state(state_obj, modes)

    run_obj = _need(doc, "run", "run", dict)
    run = _parse_run(run_obj)

    tol_obj = doc.get("tolerances", {})
    _known_keys(tol_obj, _field_names(Tolerances), "tolerances")
    out_obj = doc.get("output", {})
    _known_keys(out_obj, _field_names(OutputSpec), "output")

    return ScenarioConfig(modes=modes, hamiltonian=ham, initial_state=state, run=run,
                          tolerances=Tolerances(**tol_obj), output=OutputSpec(**out_obj),
                          scenario=doc.get("scenario"))


def _parse_hamiltonian(obj, modes: ModeCount) -> HamiltonianSpec:
    kind = _need(obj, "type", "hamiltonian.type", str)
    if kind not in _HAMILTONIAN_KEYS:
        raise ConfigError(f"unknown hamiltonian type {kind!r}", "hamiltonian.type")
    _known_keys(obj, _HAMILTONIAN_KEYS[kind], "hamiltonian")
    dim = 2 * modes.n_total
    if kind == "constant":
        h = matrix_from_json(_need(obj, "h", "hamiltonian.h"), "hamiltonian.h")
        if h.shape != (dim, dim):
            raise ConfigError(f"form is {h.shape}, modes require {(dim, dim)}", "hamiltonian.h")
        return HamiltonianSpec(type="constant", h=h)
    if kind == "builtin":
        spec = HamiltonianSpec(type="builtin", name=_need(obj, "name", "hamiltonian.name", str),
                               params=obj.get("params", {}))
        try:
            # the builtin's own signature and checks decide which parameters are valid
            build_hamiltonian_from_spec(spec, modes)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{spec.name}: {exc}", "hamiltonian.params") from exc
        return spec
    if kind == "piecewise":
        period = float(_need(obj, "period", "hamiltonian.period"))
        pieces = []
        for i, piece in enumerate(_need(obj, "pieces", "hamiltonian.pieces", list)):
            _known_keys(piece, ("duration", "h"), f"hamiltonian.pieces[{i}]")
            dur = float(_need(piece, "duration", f"hamiltonian.pieces[{i}].duration"))
            if not dur > 0:
                raise ConfigError("piece duration must be positive",
                                  f"hamiltonian.pieces[{i}].duration")
            mat = matrix_from_json(_need(piece, "h", f"hamiltonian.pieces[{i}].h"),
                                   f"hamiltonian.pieces[{i}].h")
            if mat.shape != (dim, dim):
                raise ConfigError(f"piece form is {mat.shape}", f"hamiltonian.pieces[{i}].h")
            pieces.append((dur, mat))
        total = sum(d for d, _ in pieces)
        if abs(total - period) > 1e-9 * max(1.0, period):
            raise ConfigError(f"piece durations sum to {total}, period is {period}",
                              "hamiltonian.pieces")
        return HamiltonianSpec(type="piecewise", period=period, pieces=pieces)
    if kind == "fourier":
        base = matrix_from_json(_need(obj, "base", "hamiltonian.base"), "hamiltonian.base")
        terms = []
        for i, term in enumerate(obj.get("terms", [])):
            _known_keys(term, ("omega", "cos", "sin"), f"hamiltonian.terms[{i}]")
            entry = {"omega": float(_need(term, "omega", f"hamiltonian.terms[{i}].omega"))}
            for part in ("cos", "sin"):
                entry[part] = (matrix_from_json(term[part], f"hamiltonian.terms[{i}].{part}")
                               if part in term else None)
            terms.append(entry)
        period = obj.get("period")
        return HamiltonianSpec(type="fourier", base=base, terms=terms,
                               period=float(period) if period else None)


def _parse_state(obj, modes: ModeCount) -> StateSpec:
    kind = _need(obj, "type", "initial_state.type", str)
    if kind not in _STATE_KEYS:
        raise ConfigError(f"unknown state type {kind!r}", "initial_state.type")
    _known_keys(obj, _STATE_KEYS[kind], "initial_state")
    if kind == "gaussian":
        cov = obj.get("covariance")
        if cov is not None and cov != "vacuum":
            cov = matrix_from_json(cov, "initial_state.covariance")
            if cov.shape != (2 * modes.n_total,) * 2:
                raise ConfigError(f"covariance is {cov.shape}", "initial_state.covariance")
        else:
            cov = None
        return StateSpec(type="gaussian", covariance=cov)
    spec = StateSpec(type="fock", state=_need(obj, "state", "initial_state.state", str),
                     cutoff=_need(obj, "cutoff", "initial_state.cutoff", int))
    _parse_fock_state(spec, modes.n_total)
    return spec


def _occupations(text, n_modes, cutoff):
    occ = tuple(int(x) for x in text.split(","))
    if len(occ) != n_modes or not all(0 <= n < cutoff for n in occ):
        raise ValueError(f"{text!r} is not {n_modes} occupations in [0, cutoff={cutoff})")
    return occ


def _parse_fock_state(spec: StateSpec, n_modes: int) -> "fock_mod.FockState":
    """The oracle's initial state; a ConfigError naming the field when there is none."""
    if not 1 <= n_modes <= 3:
        raise ConfigError("the Fock oracle supports 1 to 3 modes", "modes.total")
    cutoff = spec.cutoff
    try:
        # the oracle's own truncation rules: lowest cutoff, largest dimension
        fock_mod.FockConfig(n_modes=n_modes, cutoff=cutoff, dt=1.0)
    except ValueError as exc:
        raise ConfigError(str(exc), "initial_state.cutoff") from exc
    kind, _, arg = spec.state.partition(":")
    try:
        if kind == "fock":
            return fock_mod.FockState.fock(_occupations(arg, n_modes, cutoff), cutoff)
        if kind == "superfock":
            terms = [(1.0, _occupations(part, n_modes, cutoff)) for part in arg.split(";")]
            return fock_mod.FockState.superposition(terms, cutoff, n_modes)
        if kind == "coherent":
            alphas = [complex(x) for x in arg.split(",")]
            if len(alphas) != n_modes:
                raise ValueError("one amplitude per mode required")
            return fock_mod.FockState.coherent(alphas, cutoff)
        if kind == "cat":
            alpha, _, mode = arg.partition(",")
            mode = int(mode or 0)
            if not 0 <= mode < n_modes:
                raise ValueError(f"cat mode {mode} outside [0, {n_modes})")
            return fock_mod.FockState.cat(complex(alpha), cutoff, n_modes=n_modes, mode=mode)
    except ValueError as exc:
        raise ConfigError(f"{spec.state!r}: {exc}", "initial_state.state") from exc
    raise ConfigError(f"unknown state kind {kind!r}", "initial_state.state")


def _parse_run(obj) -> RunParams:
    _known_keys(obj, _field_names(RunParams), "run")
    run = RunParams(t_final=float(_need(obj, "t_final", "run.t_final")),
                    dt=float(_need(obj, "dt", "run.dt")))
    if run.t_final <= 0 or run.dt <= 0:
        raise ConfigError("t_final and dt must be positive", "run")
    run.store_every = int(obj.get("store_every", 1))
    if run.store_every < 1:
        raise ConfigError("store_every must be >= 1", "run.store_every")
    if "lyapunov_t_star" in obj:
        run.lyapunov_t_star = float(obj["lyapunov_t_star"])
    if "lyapunov_dt" in obj:
        run.lyapunov_dt = float(obj["lyapunov_dt"])
    if obj.get("window") is not None:
        window = obj["window"]
        if len(window) != 2 or window[0] >= window[1]:
            raise ConfigError("window must be [lo, hi] with lo < hi", "run.window")
        run.window = (float(window[0]), float(window[1]))
    if run.window is not None and run.window[0] >= run.t_final:
        raise ConfigError(f"window starts at {run.window[0]:g}, not before t_final "
                          f"{run.t_final:g}", "run.window")
    run.window_fraction = float(obj.get("window_fraction", 0.75))
    run.bound_times = tuple(float(t) for t in obj.get("bound_times", ()))
    _check_bound_times(run)
    run.seed = int(obj.get("seed", 0))
    return run


def _check_bound_times(run: RunParams):
    # the same rule as scenarios.bound_matrices, applied before any propagation
    if not run.bound_times:
        return
    stored = sample_times(run.t_final, run.dt, run.store_every)
    for t in run.bound_times:
        if not 0.0 < t <= run.t_final:
            raise ConfigError(f"bound time {t:g} is outside (0, t_final={run.t_final:g}]",
                              "run.bound_times")
        nearest = stored[np.argmin(np.abs(stored - t))]
        if abs(nearest - t) > 1e-9 * (1.0 + abs(t)):
            raise ConfigError(f"bound time {t:g} is not a stored sample time "
                              f"(nearest {nearest:.17g})", "run.bound_times")


def config_to_json_dict(cfg: ScenarioConfig) -> dict:
    ham = cfg.hamiltonian
    ham_obj = {"type": ham.type}
    if ham.type == "constant":
        ham_obj["h"] = matrix_to_json(ham.h)
    elif ham.type == "builtin":
        ham_obj["name"] = ham.name
        if ham.params:
            ham_obj["params"] = ham.params
    elif ham.type == "piecewise":
        ham_obj["period"] = ham.period
        ham_obj["pieces"] = [{"duration": d, "h": matrix_to_json(mat)} for d, mat in ham.pieces]
    elif ham.type == "fourier":
        ham_obj["base"] = matrix_to_json(ham.base)
        ham_obj["terms"] = [
            {k: (matrix_to_json(v) if isinstance(v, np.ndarray) else v)
             for k, v in term.items() if v is not None}
            for term in (ham.terms or [])]
        if ham.period:
            ham_obj["period"] = ham.period

    state = cfg.initial_state
    state_obj = {"type": state.type}
    if state.type == "gaussian":
        state_obj["covariance"] = ("vacuum" if state.covariance is None
                                   else matrix_to_json(state.covariance))
    else:
        state_obj["state"] = state.state
        state_obj["cutoff"] = state.cutoff

    run = cfg.run
    run_obj = {"t_final": run.t_final, "dt": run.dt, "store_every": run.store_every,
               "window_fraction": run.window_fraction, "seed": run.seed}
    if run.lyapunov_t_star is not None:
        run_obj["lyapunov_t_star"] = run.lyapunov_t_star
    if run.lyapunov_dt is not None:
        run_obj["lyapunov_dt"] = run.lyapunov_dt
    if run.window is not None:
        run_obj["window"] = list(run.window)
    if run.bound_times:
        run_obj["bound_times"] = list(run.bound_times)

    tol = cfg.tolerances
    tol_obj = {"leak_ceiling": tol.leak_ceiling, "defect_factor": tol.defect_factor,
               "slope_rel_tol": tol.slope_rel_tol}
    if tol.residual_tol is not None:
        tol_obj["residual_tol"] = tol.residual_tol

    doc = {"modes": {"total": cfg.modes.n_total, "subsystem": cfg.modes.n_a},
           "hamiltonian": ham_obj, "initial_state": state_obj, "run": run_obj,
           "tolerances": tol_obj}
    if cfg.scenario:
        doc["scenario"] = cfg.scenario
    out = {k: v for k, v in (("csv", cfg.output.csv), ("report", cfg.output.report),
                             ("report_json", cfg.output.report_json)) if v}
    if out:
        doc["output"] = out
    return doc


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(config_to_json_dict(cfg), sort_keys=True, indent=2) + "\n"


def config_hash(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]


def build_hamiltonian_from_spec(spec: HamiltonianSpec, modes: ModeCount) -> QuadraticHamiltonian:
    """Turn a declarative Hamiltonian spec into a QuadraticHamiltonian."""
    if spec.type == "constant":
        return QuadraticHamiltonian.constant(spec.h)
    if spec.type == "builtin":
        from .scenarios import builtin_hamiltonian
        return builtin_hamiltonian(spec.name, modes, **spec.params)
    if spec.type == "piecewise":
        return QuadraticHamiltonian.piecewise(spec.pieces, spec.period)
    if spec.type == "fourier":
        base = spec.base
        terms = spec.terms or []

        def h_of_t(t, _base=base, _terms=terms):
            total = _base.copy()
            for term in _terms:
                w = term["omega"]
                if term.get("cos") is not None:
                    total = total + math.cos(w * t) * term["cos"]
                if term.get("sin") is not None:
                    total = total + math.sin(w * t) * term["sin"]
            return total

        return QuadraticHamiltonian(h=h_of_t, n_modes=modes.n_total, period=spec.period)
    raise ConfigError(f"unknown hamiltonian type {spec.type!r}", "hamiltonian.type")
