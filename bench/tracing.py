"""Span tracing of entgrowth's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper at every
``entgrowth.*`` module attribute that holds the same object, so a call site
that moves to another module is still traced.  Each call records a span
(name, start, end, parent span, whether it raised, and counters taken from
its arguments or result).  Spans stay in memory until ``write``.
``layer_metrics`` turns them into the per-layer metrics, given per pipeline
run.  The package source is not touched.
"""

import gzip
import inspect
import json
import sys
import time


def _propagate_counts(args, result):
    return {"steps": int(round(result.t_final / result.dt))}


def _qr_counts(args, result):
    return {"qr_steps": max(2, int(round(args["t_star"] / args["dt"])))}


def _minimize_counts(args, result):
    return {"iterations": result.iterations, "converged": int(result.converged)}


def _nfev_counts(args, result):
    return {"nfev": int(result.nfev)}


def _fock_counts(args, result):
    return {"fock_steps": max(1, int(round(args["t_final"] / args["cfg"].dt))),
            "trusted": int(result.trusted.sum()), "samples": len(result.trusted)}


def _run_counts(args, result):
    return {"samples": len(result.rows)}


# (module, attribute, counters); the span is named after the module's last
# component and the attribute.  expm and minimize are scipy's, as bound in
# the modules that step and minimize.
TRACED = (
    ("entgrowth.scenarios", "run_scenario", _run_counts),
    ("entgrowth.config", "parse_config", None),
    ("entgrowth.dynamics", "propagate", _propagate_counts),
    ("entgrowth.dynamics", "expm", None),
    ("entgrowth.dynamics", "polar_decompose", None),
    ("entgrowth.dynamics", "evolve_covariance", None),
    ("entgrowth.lyapunov", "lyapunov_spectrum", None),
    ("entgrowth.lyapunov", "qr_spectrum", _qr_counts),
    ("entgrowth.lyapunov", "spectrum_from_propagation", None),
    ("entgrowth.entropy", "von_neumann_entropy", None),
    ("entgrowth.entropy", "renyi2_entropy", None),
    ("entgrowth.entropy", "asymptotic_entropy", None),
    ("entgrowth.entropy", "mode_entropy", None),
    ("entgrowth.phase_space", "restrict", None),
    ("entgrowth.phase_space", "williamson_spectrum", None),
    ("entgrowth.phase_space", "is_pure", None),
    ("entgrowth.ssa", "gss_rhs_minimize", _minimize_counts),
    ("entgrowth.ssa", "minimize", _nfev_counts),
    ("entgrowth.ssa", "squashed_bounds", None),
    ("entgrowth.fock", "evolve_fock", _fock_counts),
    ("entgrowth.fock", "build_hamiltonian", None),
    ("entgrowth.fock", "reduced_entropy", None),
    ("entgrowth.fock", "reduced_renyi2", None),
    ("entgrowth.fock", "covariance_of", None),
    ("entgrowth.subsystem", "subsystem_exponent_algebraic", None),
    ("entgrowth.subsystem", "subsystem_exponent_volumetric", None),
    ("entgrowth.subsystem", "volumetric_slope_fit", None),
    ("entgrowth.fitting", "fit_slope", None),
    ("entgrowth.fitting", "windowed", None),
    ("entgrowth.reporting", "write_csv", None),
    ("entgrowth.reporting", "RunReport.to_json", None),
)

# per-layer metric -> span names; a layer's time counts only its outermost
# spans, so a traced function calling another of the same layer is not
# counted twice.  Layers nest (phase_space inside entropy), so layer times
# are inclusive and do not sum to the run.
LAYER_TIMES = {
    "dynamics.propagate_s": ("dynamics.propagate",),
    "dynamics.polar_s": ("dynamics.polar_decompose",),
    "dynamics.evolve_covariance_s": ("dynamics.evolve_covariance",),
    "lyapunov.spectrum_s": ("lyapunov.lyapunov_spectrum", "lyapunov.qr_spectrum",
                            "lyapunov.spectrum_from_propagation"),
    "entropy.s": ("entropy.von_neumann_entropy", "entropy.renyi2_entropy",
                  "entropy.asymptotic_entropy", "entropy.mode_entropy"),
    "phase_space.s": ("phase_space.restrict", "phase_space.williamson_spectrum",
                      "phase_space.is_pure"),
    "ssa.minimize_s": ("ssa.gss_rhs_minimize",),
    "ssa.squashed_s": ("ssa.squashed_bounds",),
    "fock.evolve_s": ("fock.evolve_fock",),
    "fock.build_hamiltonian_s": ("fock.build_hamiltonian",),
    "fock.entropy_s": ("fock.reduced_entropy", "fock.reduced_renyi2"),
    "fock.covariance_s": ("fock.covariance_of",),
    "subsystem.exponent_s": ("subsystem.subsystem_exponent_algebraic",
                             "subsystem.subsystem_exponent_volumetric",
                             "subsystem.volumetric_slope_fit"),
    "fitting.s": ("fitting.fit_slope", "fitting.windowed"),
    "config.parse_s": ("config.parse_config",),
    "reporting.write_s": ("reporting.write_csv", "reporting.RunReport.to_json"),
    "scenarios.run_s": ("scenarios.run_scenario",),
}
LAYER_CALLS = {
    "dynamics.propagate_calls": ("dynamics.propagate",),
    "dynamics.expm_calls": ("dynamics.expm",),
    "dynamics.polar_calls": ("dynamics.polar_decompose",),
    "entropy.calls": LAYER_TIMES["entropy.s"],
    "ssa.squashed_calls": ("ssa.squashed_bounds",),
    "ssa.minimize_calls": ("ssa.gss_rhs_minimize",),
    "fock.build_hamiltonian_calls": ("fock.build_hamiltonian",),
}
COUNTERS = {
    "dynamics.steps": ("dynamics.propagate", "steps"),
    "lyapunov.qr_steps": ("lyapunov.qr_spectrum", "qr_steps"),
    "ssa.iterations": ("ssa.gss_rhs_minimize", "iterations"),
    "ssa.objective_evals": ("ssa.minimize", "nfev"),
    "fock.steps": ("fock.evolve_fock", "fock_steps"),
    "scenarios.samples": ("scenarios.run_scenario", "samples"),
}
ERROR_LAYERS = ("dynamics", "lyapunov", "ssa", "fock")


def span_name(module_name, attr):
    return f"{module_name.rsplit('.', 1)[-1]}.{attr}"


def metric_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


class Tracer:
    """Wrappers over the traced functions and the spans they record.

    A span is ``(name, start, end, parent, raised, counts, run)``, with
    ``parent`` the index of the enclosing span or -1.
    """

    def __init__(self):
        self.spans = []
        self.run = 0
        self._stack = []
        self._installed = []

    def _wrap(self, name, fn, counts):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if counts else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised, result, start = True, None, clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                extra = None
                if counts and not raised:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    extra = counts(bound.arguments, result)
                spans[index] = (name, start, end, parent, raised, extra, self.run)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every traced function wherever an entgrowth module binds it."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if (key == "entgrowth" or key.startswith("entgrowth.")) and mod is not None]
        for module_name, attr, counts in TRACED:
            owner = sys.modules[module_name]
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._installed.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(name, fn, counts))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._installed.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for holder, key, fn in reversed(self._installed):
            setattr(holder, key, fn)
        self._installed.clear()

    def write(self, path):
        """All spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for index, (name, start, end, parent, raised, extra, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "raised": raised, "counts": extra,
                                     "run": run}) + "\n")


def _enclosing_names(spans):
    """For each span, the set of names of the spans enclosing it."""
    enclosing = []
    for span in spans:
        parent = span[3]
        enclosing.append(enclosing[parent] | {spans[parent][0]} if parent >= 0 else frozenset())
    return enclosing


def layer_metrics(spans, n_runs):
    """Per-layer metrics from the spans of ``n_runs`` traced pipeline runs, per run."""
    enclosing = _enclosing_names(spans)

    def outermost(names):
        names = set(names)
        return [s for s, up in zip(spans, enclosing) if s[0] in names and up.isdisjoint(names)]

    def counts_of(name):
        return [s[5] for s in spans if s[0] == name and s[5]]

    per_run = 1.0 / n_runs
    metrics = {}
    for metric, names in LAYER_TIMES.items():
        metrics[metric] = per_run * sum(s[2] - s[1] for s in outermost(names))
    for metric, names in LAYER_CALLS.items():
        metrics[metric] = per_run * len(outermost(names))
    for metric, (name, key) in COUNTERS.items():
        metrics[metric] = per_run * sum(c[key] for c in counts_of(name))

    spectra = set(LAYER_TIMES["lyapunov.spectrum_s"])
    nested = sum(s[2] - s[1] for s, up in zip(spans, enclosing)
                 if s[0] == "dynamics.propagate" and not up.isdisjoint(spectra))
    metrics["lyapunov.self_s"] = metrics["lyapunov.spectrum_s"] - per_run * nested

    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    metrics["scenarios.self_s"] = per_run * sum(
        s[2] - s[1] - covered[i] for i, s in enumerate(spans) if s[0] == "scenarios.run_scenario")

    minimize = counts_of("ssa.gss_rhs_minimize")
    metrics["ssa.converged_ratio"] = (sum(c["converged"] for c in minimize) / len(minimize)
                                      if minimize else 0.0)
    fock = counts_of("fock.evolve_fock")
    samples = sum(c["samples"] for c in fock)
    metrics["fock.trusted_ratio"] = sum(c["trusted"] for c in fock) / samples if samples else 0.0
    for layer in ERROR_LAYERS:
        names = {span_name(m, a) for m, a, _ in TRACED if m == f"entgrowth.{layer}"}
        metrics[f"{layer}.errors"] = per_run * sum(s[4] for s in outermost(names))
    return metrics
