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

Each value passes a reader that checks and converts it; the fields of
``RunParams``, ``Tolerances`` and ``OutputSpec`` carry theirs.  An unknown
key, a value its reader rejects and a Hamiltonian its constructor rejects
are ConfigErrors naming the path (``run.store_evry``, ``hamiltonian.params``).

Matrices are written row-major with explicit dimensions:
``{"rows": 4, "cols": 4, "data": [...16 numbers...]}``.  Serialization is
canonical (sorted keys, fixed float format), so serialize(parse(text)) is
idempotent and configs hash stably.
"""

import hashlib
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

import numpy as np

from . import fock as fock_mod
from .dynamics import QuadraticHamiltonian, sample_times
from .errors import ConfigError
from .phase_space import ModeCount, is_symmetric

# readers: each checks one JSON value, returns it converted, and raises a
# ConfigError naming the value's path when it does not fit


def _number(value, path) -> float:
    """A finite JSON number, as a float."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"expected a finite number, got {value!r}", path)
    return float(value)


def _positive(value, path) -> float:
    number = _number(value, path)
    if not number > 0:
        raise ConfigError(f"must be positive, got {number:g}", path)
    return number


def _fraction(value, path) -> float:
    """A number in (0, 1]."""
    number = _positive(value, path)
    if number > 1:
        raise ConfigError(f"must be at most 1, got {number:g}", path)
    return number


def _integer(value, path) -> int:
    """A JSON integer of at least 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"expected an integer >= 1, got {value!r}", path)
    return value


def _string(value, path) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"expected a non-empty string, got {value!r}", path)
    return value


def _list(read):
    """Reader of a JSON list whose items ``read`` reads; returns a tuple."""
    def read_list(value, path):
        if not isinstance(value, list):
            raise ConfigError(f"expected a list, got {value!r}", path)
        return tuple(read(item, f"{path}[{i}]") for i, item in enumerate(value))
    return read_list


def _window(value, path) -> tuple:
    window = _list(_number)(value, path)
    if len(window) != 2 or not window[0] < window[1]:
        raise ConfigError("window must be [lo, hi] with lo < hi", path)
    return window


def _object(value, path, keys=None) -> dict:
    """A JSON object; with ``keys``, a key outside them is an error naming its path."""
    if not isinstance(value, dict):
        raise ConfigError(f"expected an object, got {value!r}", path)
    for key in value if keys is not None else ():
        if key not in keys:
            raise ConfigError(f"unknown key {key!r}", f"{path}.{key}" if path else key)
    return value


def _builtin_params(value, path) -> dict:
    """A builtin's parameters: finite numbers, and a list of them for ``omega_sq``."""
    obj = _object(value, path)
    return {key: _get(obj, key, path, _list(_number) if key == "omega_sq" else _number)
            for key in obj}


def _get(obj, key, path, read, default=MISSING):
    """``read`` applied to ``obj[key]``; ``default`` when the key is absent."""
    sub = f"{path}.{key}" if path else key
    if key in obj:
        return read(obj[key], sub)
    if default is MISSING:
        raise ConfigError(f"missing key {key!r}", sub)
    return default


def matrix_to_json(a) -> dict:
    a = np.asarray(a, dtype=float)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
            "data": [float(x) for x in a.ravel()]}


def matrix_from_json(obj, fieldname) -> np.ndarray:
    _object(obj, fieldname, ("rows", "cols", "data"))
    rows, cols = _get(obj, "rows", fieldname, _integer), _get(obj, "cols", fieldname, _integer)
    data = _get(obj, "data", fieldname, _list(_number))
    if len(data) != rows * cols:
        raise ConfigError(f"expected {rows * cols} entries, got {len(data)}", fieldname)
    return np.array(data, dtype=float).reshape(rows, cols)


def _form(dim):
    """Reader of a symmetric dim x dim matrix block."""
    def read_form(value, path):
        mat = matrix_from_json(value, path)
        if mat.shape != (dim, dim):
            raise ConfigError(f"form is {mat.shape}, modes require {(dim, dim)}", path)
        if not is_symmetric(mat):
            raise ConfigError("matrix is not symmetric", path)
        return mat
    return read_form


def _field(read, **default):
    """A section field whose JSON value ``read`` checks and converts."""
    return field(metadata={"read": read}, **default)


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
    t_final: float = _field(_positive)
    dt: float = _field(_positive)
    store_every: int = _field(_integer, default=1)
    lyapunov_t_star: Optional[float] = _field(_positive, default=None)
    lyapunov_dt: Optional[float] = _field(_positive, default=None)
    window: Optional[tuple] = _field(_window, default=None)
    window_fraction: float = _field(_fraction, default=0.75)
    bound_times: tuple = _field(_list(_positive), default=())


@dataclass
class Tolerances:
    residual_tol: Optional[float] = _field(_positive, default=None)
    leak_ceiling: float = _field(_positive, default=1e-6)
    defect_factor: float = _field(_positive, default=1e-8)
    slope_rel_tol: float = _field(_positive, default=0.05)


@dataclass
class OutputSpec:
    csv: Optional[str] = _field(_string, default=None)
    report: Optional[str] = _field(_string, default=None)
    report_json: Optional[str] = _field(_string, default=None)


@dataclass
class ScenarioConfig:
    modes: ModeCount
    hamiltonian: HamiltonianSpec
    initial_state: StateSpec
    run: RunParams
    tolerances: Tolerances = field(default_factory=Tolerances)
    output: OutputSpec = field(default_factory=OutputSpec)
    scenario: Optional[str] = None


def _parse_section(cls, value, path):
    """A ``cls`` instance from its JSON object, each key read by its field's reader."""
    obj = _object(value, path, [f.name for f in fields(cls)])
    return cls(**{f.name: _get(obj, f.name, path, f.metadata["read"]) for f in fields(cls)
                  if f.name in obj or f.default is MISSING})


def _section_json(section) -> dict:
    """The JSON object of a parsed section; unset (None or empty) fields are left out."""
    values = ((f.name, getattr(section, f.name)) for f in fields(section))
    return {name: list(value) if isinstance(value, tuple) else value
            for name, value in values if value is not None and value != ()}


_TOP_KEYS = ("scenario", "modes", "hamiltonian", "initial_state", "run", "tolerances", "output")
# hamiltonian type -> its keys, the first being the data its constructor checks
_HAMILTONIAN_KEYS = {"constant": ("h", "type"), "builtin": ("params", "type", "name"),
                     "piecewise": ("pieces", "type", "period"),
                     "fourier": ("terms", "type", "base", "period")}
_STATE_KEYS = {"gaussian": ("type", "covariance"), "fock": ("type", "state", "cutoff")}


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level must be an object")
    _object(doc, None, _TOP_KEYS)

    modes_obj = _object(_get(doc, "modes", None, _object), "modes", ("total", "subsystem"))
    n_total = _get(modes_obj, "total", "modes", _integer)
    n_a = _get(modes_obj, "subsystem", "modes", _integer)
    try:
        modes = ModeCount(n_total=n_total, n_a=n_a)
    except ValueError as exc:
        raise ConfigError(str(exc), "modes") from exc

    return ScenarioConfig(
        modes=modes,
        hamiltonian=_parse_hamiltonian(_get(doc, "hamiltonian", None, _object), modes),
        initial_state=_parse_state(_get(doc, "initial_state", None, _object), modes),
        run=_check_run(_parse_section(RunParams, _get(doc, "run", None, _object), "run")),
        tolerances=_parse_section(Tolerances, doc.get("tolerances", {}), "tolerances"),
        output=_parse_section(OutputSpec, doc.get("output", {}), "output"),
        scenario=_get(doc, "scenario", None, _string, None))


def _parse_hamiltonian(obj, modes: ModeCount) -> HamiltonianSpec:
    path = "hamiltonian"
    kind = _get(obj, "type", path, _string)
    if kind not in _HAMILTONIAN_KEYS:
        raise ConfigError(f"unknown hamiltonian type {kind!r}", "hamiltonian.type")
    _object(obj, path, _HAMILTONIAN_KEYS[kind])
    form = _form(2 * modes.n_total)
    if kind == "constant":
        spec = HamiltonianSpec(type=kind, h=_get(obj, "h", path, form))
    elif kind == "builtin":
        spec = HamiltonianSpec(type=kind, name=_get(obj, "name", path, _string),
                               params=_get(obj, "params", path, _builtin_params, {}))
    elif kind == "piecewise":
        def piece(value, p):
            _object(value, p, ("duration", "h"))
            return _get(value, "duration", p, _positive), _get(value, "h", p, form)

        spec = HamiltonianSpec(type=kind, period=_get(obj, "period", path, _positive),
                               pieces=list(_get(obj, "pieces", path, _list(piece))))
    else:
        def term(value, p):
            _object(value, p, ("omega", "cos", "sin"))
            return {"omega": _get(value, "omega", p, _number),
                    "cos": _get(value, "cos", p, form, None),
                    "sin": _get(value, "sin", p, form, None)}

        spec = HamiltonianSpec(type=kind, base=_get(obj, "base", path, form),
                               terms=list(_get(obj, "terms", path, _list(term), ())),
                               period=_get(obj, "period", path, _positive, None))
    try:
        # the constructors' own checks decide what else is valid: durations
        # summing to the period, the builtin's parameters and mode count
        build_hamiltonian_from_spec(spec, modes)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{spec.name or kind}: {exc}",
                          f"{path}.{_HAMILTONIAN_KEYS[kind][0]}") from exc
    return spec


def _parse_state(obj, modes: ModeCount) -> StateSpec:
    path = "initial_state"
    kind = _get(obj, "type", path, _string)
    if kind not in _STATE_KEYS:
        raise ConfigError(f"unknown state type {kind!r}", "initial_state.type")
    _object(obj, path, _STATE_KEYS[kind])
    if kind == "gaussian":
        cov = obj.get("covariance", "vacuum")
        return StateSpec(type=kind, covariance=None if cov == "vacuum" else
                         _get(obj, "covariance", path, _form(2 * modes.n_total)))
    spec = StateSpec(type=kind, state=_get(obj, "state", path, _string),
                     cutoff=_get(obj, "cutoff", path, _integer))
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


def _check_run(run: RunParams) -> RunParams:
    """The rules that tie run fields to each other, applied before any propagation."""
    if run.window is not None and run.window[0] >= run.t_final:
        raise ConfigError(f"window starts at {run.window[0]:g}, not before t_final "
                          f"{run.t_final:g}", "run.window")
    # the same rule as scenarios.bound_matrices; it also rejects times past
    # t_final, the last stored time
    stored = sample_times(run.t_final, run.dt, run.store_every) if run.bound_times else ()
    for t in run.bound_times:
        nearest = stored[np.argmin(np.abs(stored - t))]
        if abs(nearest - t) > 1e-9 * (1.0 + abs(t)):
            raise ConfigError(f"bound time {t:g} is not a stored sample time "
                              f"(nearest {nearest:.17g})", "run.bound_times")
    return run


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

    doc = {"modes": {"total": cfg.modes.n_total, "subsystem": cfg.modes.n_a},
           "hamiltonian": ham_obj, "initial_state": state_obj,
           "run": _section_json(cfg.run), "tolerances": _section_json(cfg.tolerances)}
    if cfg.scenario:
        doc["scenario"] = cfg.scenario
    out = _section_json(cfg.output)
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
