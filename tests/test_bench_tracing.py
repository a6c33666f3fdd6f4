"""The benchmark's span tracer still finds and counts the pipeline functions it wraps.

``bench/tracing.py`` wraps package functions by name and reads counters from
their arguments (``t_star`` and ``dt`` of ``qr_spectrum``, ``t_final`` and
``cfg`` of ``evolve_fock``) and results, so a renamed function or argument
breaks it.  It imports only the standard library and is loaded by path.
"""

import importlib.util
import json
import pathlib

from entgrowth.config import parse_config
from entgrowth import scenarios
from entgrowth.scenarios import scenario_document

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
COUNTED = ("scenarios.run_scenario", "dynamics.propagate", "lyapunov.qr_spectrum",
           "ssa.gss_rhs_minimize", "ssa.minimize", "fock.evolve_fock")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _configs():
    gaussian = scenario_document("inverted_pair")
    gaussian["run"]["bound_times"] = [2.4]
    fock = {"modes": {"total": 2, "subsystem": 1},
            "hamiltonian": {"type": "builtin", "name": "two_mode_squeezing"},
            "initial_state": {"type": "fock", "state": "superfock:0,0;1,1", "cutoff": 12},
            "run": {"t_final": 0.9, "dt": 0.005, "store_every": 5,
                    "lyapunov_t_star": 40.0, "lyapunov_dt": 0.01},
            "tolerances": {"leak_ceiling": 3e-3, "slope_rel_tol": 0.15}}
    # a defective map: the one flow kind here that calls qr_spectrum
    metastable = scenario_document("metastable")
    metastable["run"].update(t_final=20.0, lyapunov_t_star=20.0, window=[10.0, 20.0],
                             bound_times=[])
    return [parse_config(json.dumps(doc)) for doc in (gaussian, fock, metastable)]


def test_tracer_counts_every_counted_span():
    configs = _configs()
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        # through the module attribute, which the tracer replaces
        reports = [scenarios.run_scenario(cfg) for cfg in configs]
    finally:
        tracer.uninstall()
    assert all(report.ok for report in reports)
    for name in COUNTED:
        spans = [span for span in tracer.spans if span[0] == name]
        assert spans, name
        assert all(span[5] for span in spans), name
