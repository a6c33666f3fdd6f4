"""Scenario configuration: schema, parsing, validation, canonical serialization.

Configs are single JSON documents with four sections::

    {
      "scenario":    "inverted_pair",          # optional tag; names the report
      "modes":       {"total": 2, "subsystem": 1},
      "hamiltonian": {"type": "constant" | "builtin" | "piecewise" | "fourier", ...},
      "initial_state": {"type": "gaussian" | "fock", ...},
      "run":         {"t_final": ..., "dt": ..., "store_every": ..., ...},
      "tolerances":  {...},                    # optional overrides
      "output":      {"csv": ..., "report": ...}   # optional paths
    }

Each value passes a reader that checks and converts it; the fields of
``RunParams``, ``Tolerances`` and ``OutputSpec`` carry theirs.  An unknown
key, a value its reader rejects and a Hamiltonian or state its constructor
rejects are ConfigErrors naming the path (``run.store_evry``,
``hamiltonian.params``).

Parsing builds the Hamiltonian and the initial state once, by one reader
per type that checks its keys and returns the built object with its
canonical JSON.  ``cfg.hamiltonian`` is the ``QuadraticHamiltonian`` the
pipeline runs; ``cfg.initial_state`` is the covariance matrix (the identity
for ``"vacuum"``) or the ``FockState``; ``cfg.canonical`` keeps the
canonical JSON of both sections for serialization and the config hash.

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
from typing import Optional, Union

import numpy as np

from . import fock as fock_mod
from .dynamics import QuadraticHamiltonian, nearest_sample, sample_count, step_count
from .errors import ConfigError
from .phase_space import ModeCount, is_symmetric, williamson_spectrum

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
    leak_ceiling: float = _field(_positive, default=fock_mod.LEAK_CEILING)
    slope_rel_tol: float = _field(_positive, default=0.05)


@dataclass
class OutputSpec:
    csv: Optional[str] = _field(_string, default=None)
    report: Optional[str] = _field(_string, default=None)
    report_json: Optional[str] = _field(_string, default=None)


@dataclass
class ScenarioConfig:
    modes: ModeCount
    hamiltonian: QuadraticHamiltonian
    initial_state: Union[np.ndarray, "fock_mod.FockState"]   # covariance or Fock state
    canonical: dict    # the "hamiltonian" and "initial_state" sections' canonical JSON
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
_H, _S = "hamiltonian", "initial_state"   # the two sections read by one reader per type


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario document, building its Hamiltonian and state."""
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

    ham_json, ham = _typed(doc, _H, "hamiltonian", _HAMILTONIANS, modes)
    # the run before the state: a Fock state's size check reads its sample count
    run = _check_run(_parse_section(RunParams, _get(doc, "run", None, _object), "run"))
    state_json, state = _typed(doc, _S, "state", _STATES, modes, run)
    return ScenarioConfig(
        modes=modes, hamiltonian=ham, initial_state=state,
        canonical={_H: ham_json, _S: state_json}, run=run,
        tolerances=_parse_section(Tolerances, doc.get("tolerances", {}), "tolerances"),
        output=_parse_section(OutputSpec, doc.get("output", {}), "output"),
        scenario=_get(doc, "scenario", None, _string, None))


def _typed(doc, path, what, readers, *args):
    """The canonical JSON and the built object of a section, by the reader of its type,
    which gets ``args`` after the section."""
    obj = _get(doc, path, None, _object)
    kind = _get(obj, "type", path, _string)
    if kind not in readers:
        raise ConfigError(f"unknown {what} type {kind!r}", f"{path}.type")
    canonical, built = readers[kind](obj, *args)
    return {"type": kind, **canonical}, built


def _build(path, what, make, *args, **kwargs):
    """``make(*args, **kwargs)``: the constructor's own checks decide what else is
    valid, and a TypeError or ValueError of theirs is a ConfigError on ``path``."""
    try:
        return make(*args, **kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}" if what else str(exc), path) from exc


# section readers: each checks its type's keys and returns the section's
# canonical JSON (less "type") and the object it describes; a state reader
# also gets the parsed run


def _read_constant(obj, modes):
    _object(obj, _H, ("type", "h"))
    h = _get(obj, "h", _H, _form(2 * modes.n_total))
    return {"h": matrix_to_json(h)}, _build(f"{_H}.h", "constant", QuadraticHamiltonian.constant, h)


def _read_builtin(obj, modes):
    from .scenarios import builtin_hamiltonian
    _object(obj, _H, ("type", "name", "params"))
    name = _get(obj, "name", _H, _string)
    params = _get(obj, "params", _H, _builtin_params, {})
    canonical = {"name": name, "params": params} if params else {"name": name}
    return canonical, _build(f"{_H}.params", name, builtin_hamiltonian, name, modes, **params)


def _read_piecewise(obj, modes):
    _object(obj, _H, ("type", "pieces", "period"))
    form = _form(2 * modes.n_total)

    def read_piece(value, p):
        _object(value, p, ("duration", "h"))
        return _get(value, "duration", p, _positive), _get(value, "h", p, form)

    period = _get(obj, "period", _H, _positive)
    pieces = _get(obj, "pieces", _H, _list(read_piece))
    canonical = {"period": period,
                 "pieces": [{"duration": d, "h": matrix_to_json(h)} for d, h in pieces]}
    return canonical, _build(f"{_H}.pieces", "piecewise", QuadraticHamiltonian.piecewise,
                             pieces, period)


def _read_fourier(obj, modes):
    """h(t) = base + sum over terms of cos(omega t) cos + sin(omega t) sin."""
    _object(obj, _H, ("type", "terms", "base", "period"))
    form = _form(2 * modes.n_total)

    def read_term(value, p):
        _object(value, p, ("omega", "cos", "sin"))
        return {"omega": _get(value, "omega", p, _number),
                "cos": _get(value, "cos", p, form, None),
                "sin": _get(value, "sin", p, form, None)}

    base = _get(obj, "base", _H, form)
    terms = _get(obj, "terms", _H, _list(read_term), ())
    period = _get(obj, "period", _H, _positive, None)

    def h_of_t(t):
        total = base.copy()
        for term in terms:
            if term["cos"] is not None:
                total = total + math.cos(term["omega"] * t) * term["cos"]
            if term["sin"] is not None:
                total = total + math.sin(term["omega"] * t) * term["sin"]
        return total

    canonical = {"base": matrix_to_json(base),
                 "terms": [{k: v if k == "omega" else matrix_to_json(v)
                            for k, v in term.items() if v is not None} for term in terms]}
    if period is not None:
        canonical["period"] = period
    return canonical, _build(f"{_H}.period", "fourier", QuadraticHamiltonian,
                             h=h_of_t, n_modes=modes.n_total, period=period)


_HAMILTONIANS = {"constant": _read_constant, "builtin": _read_builtin,
                 "piecewise": _read_piecewise, "fourier": _read_fourier}


def _read_gaussian(obj, modes, run):
    _object(obj, _S, ("type", "covariance"))
    if obj.get("covariance", "vacuum") == "vacuum":
        canonical, cov = "vacuum", np.eye(2 * modes.n_total)
    else:
        cov = _get(obj, "covariance", _S, _form(2 * modes.n_total))
        # the covariance check, before any stage reads g0
        _build(f"{_S}.covariance", None, williamson_spectrum, cov)
        canonical = matrix_to_json(cov)
    cov.setflags(write=False)   # every stage and every run of the config reads this one array
    return {"covariance": canonical}, cov


def _read_fock(obj, modes, run):
    """The oracle's initial state, e.g. "fock:0,0", "superfock:1,0,0;1,2,0",
    "coherent:1.0", "cat:1.5"."""
    _object(obj, _S, ("type", "state", "cutoff"))
    text, cutoff = _get(obj, "state", _S, _string), _get(obj, "cutoff", _S, _integer)
    n_modes = modes.n_total
    # the oracle's size rules for the whole run, before any amplitude tensor
    # or sample grid exists
    n_samples = sample_count(step_count(run.t_final, run.dt), run.store_every)
    _build(f"{_S}.cutoff", None, fock_mod.check_size, n_modes, cutoff, n_samples)
    return ({"state": text, "cutoff": cutoff},
            _build(f"{_S}.state", repr(text), _fock_from_text, text, cutoff, n_modes))


_STATES = {"gaussian": _read_gaussian, "fock": _read_fock}


def _occupations(text, n_modes, cutoff):
    occ = tuple(int(x) for x in text.split(","))
    if len(occ) != n_modes or not all(0 <= n < cutoff for n in occ):
        raise ValueError(f"{text!r} is not {n_modes} occupations in [0, cutoff={cutoff})")
    return occ


def _fock_from_text(text, cutoff, n_modes) -> "fock_mod.FockState":
    kind, _, arg = text.partition(":")
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
    raise ConfigError(f"unknown state kind {kind!r}", f"{_S}.state")


def _require_stored(t, nearest) -> None:
    """ConfigError on ``run.bound_times`` when ``t`` is farther than 1e-9 (1 + |t|) from ``nearest``."""
    if abs(nearest - t) > 1e-9 * (1.0 + abs(t)):
        raise ConfigError(f"bound time {t:g} is not a stored sample time "
                          f"(nearest {nearest:.17g})", "run.bound_times")


def stored_sample_index(times, t) -> int:
    """The index of the stored sample time ``t``.

    A time farther than 1e-9 (1 + |t|) from every stored time is a
    ConfigError on ``run.bound_times``, not a silent move to the nearest.
    """
    idx = int(np.argmin(np.abs(times - t)))
    _require_stored(t, times[idx])
    return idx


def _check_run(run: RunParams) -> RunParams:
    """The rules that tie run fields to each other, applied before any propagation."""
    if run.window is not None and run.window[0] >= run.t_final:
        raise ConfigError(f"window starts at {run.window[0]:g}, not before t_final "
                          f"{run.t_final:g}", "run.window")
    # also rejects times past t_final, the last stored time; the grid is
    # never listed, so a run too large for memory is rejected without it
    for t in run.bound_times:
        _require_stored(t, nearest_sample(run.t_final, run.dt, run.store_every, t)[1])
    return run


def config_to_json_dict(cfg: ScenarioConfig) -> dict:
    doc = {"modes": {"total": cfg.modes.n_total, "subsystem": cfg.modes.n_a},
           **cfg.canonical,
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
