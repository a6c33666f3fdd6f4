"""Seeded input generators for the benchmark workloads (standard library only).

Every run of a workload gets its own config, drawn from
``random.Random(f"{workload}:{seed}:{index}")``: the same seed gives the same
configs, and no two runs of one invocation share parameters, so a cache keyed
on inputs cannot serve a later run from an earlier one (users run one config
per CLI process); ``metastable`` is the partial exception named below.  The package only ever sees the generated JSON text.

Why these four:

* ``chain`` - constant generators (``inverted_pair`` / ``coupled_chain`` in
  alternating pairs of runs): the per-step Python loop of ``propagate`` and
  ``qr_spectrum`` plus the 201-sample entropy/bounds loop.  No minimizer;
  the only input with more than 2 modes.  Bypass for step caching.
* ``drive`` - ``parametric_drive``: ~15,400 fresh ``expm`` per run for two
  distinct step matrices; ``qr_spectrum`` dominates, 9 samples.
* ``metastable`` - four ``gss_rhs_minimize`` calls dominate, with a
  1,001-1,101-sample loop and as many CSV rows.  The model has no
  parameters and starts in the vacuum, so only the horizon varies between
  runs: the covariance at a given time is the same in every run, and bound
  times that recur (the smallest ones, 1-6) give the minimizer inputs an
  earlier run has seen.  Bound times stop at 800, below the times where
  the minimizer has a known defect (see ``_META_BOUND_MAX``).
* ``oracle`` - the truncated-Fock cross-check (cutoff 20, dim 400); the
  only workload that touches ``fock``.
"""

import json
import math
import random

WORKLOADS = ("chain", "drive", "metastable", "oracle")

# range of the metastable horizon; integer times sit on the stored-sample
# grid (dt 0.25, store_every 4), off-grid times would snap
_META_T_FINAL = (1000, 1100)
# upper end of the metastable bound times.  Known program defect, left
# standing: at 14 of the integer times in [849, 1100] (849, 856, 857, 898,
# 926, 972, 1004, 1010, 1015, 1018, 1023, 1035, 1079, 1080) gss_rhs_minimize
# overflows in its line search, stops early and returns a bound above the
# 2 ln(e/2) ceiling, flagged non-converged; every integer time in [1, 848]
# passes.  The timed runs must all pass their checks, so they stay below
# it; selftest.py runs t = 857 and reports whether the checks still catch it.
_META_BOUND_MAX = 800
_META_STRATA = 8

_ORACLE_STATES = ("fock:0,0", "fock:1,0", "superfock:0,0;1,1", "cat:1.0")


def _gaussian(scenario, name, params, n_total, run):
    return {
        "scenario": scenario,
        "modes": {"total": n_total, "subsystem": 1},
        "hamiltonian": {"type": "builtin", "name": name, "params": params},
        "initial_state": {"type": "gaussian", "covariance": "vacuum"},
        "run": run,
    }


def _chain(rng, index, seed):
    # both kinds use the builtin default horizons: 12,000 propagate steps
    # plus 12,000 QR steps, and 201 stored samples
    run = {"t_final": 24.0, "dt": 0.002, "store_every": 60,
           "lyapunov_t_star": 120.0, "lyapunov_dt": 0.01}
    # kinds alternate in pairs, so runs traced every other index see both
    if (index // 2) % 2 == 0:
        params = {"kappa1": rng.uniform(0.9, 1.1), "kappa2": rng.uniform(0.7, 0.85),
                  "coupling": rng.uniform(0.15, 0.25)}
        return _gaussian("inverted_pair", "inverted_pair", params, 2, run)
    omega_sq = [-1.0 * rng.uniform(0.9, 1.1), 1.0, -0.64 * rng.uniform(0.9, 1.1), 1.0]
    params = {"omega_sq": omega_sq, "coupling": rng.uniform(0.2, 0.3)}
    return _gaussian("coupled_chain", "coupled_chain", params, 4, run)


def _drive(rng, index, seed):
    params = {"kappa": rng.uniform(0.9, 1.1), "omega_on": rng.uniform(0.9, 1.1),
              "coupling": rng.uniform(0.1, 0.2)}
    period = 2.2
    run = {"t_final": 8 * period, "dt": period / 220.0, "store_every": 220,
           "lyapunov_t_star": 60 * period, "lyapunov_dt": period / 220.0}
    return _gaussian("parametric_drive", "parametric_drive", params, 2, run)


def _metastable(rng, index, seed):
    # one time per quarter of the log range, each quarter cut into strata
    # that successive runs visit in a seeded order: the minimizer's cost
    # varies irregularly with t, and an invocation of ~10 runs then samples
    # the range evenly instead of by chance
    t_final = rng.randint(*_META_T_FINAL)
    edges = [math.log(_META_BOUND_MAX) * q / 4.0 for q in range(5)]
    times = []
    for quarter, (lo, hi) in enumerate(zip(edges, edges[1:])):
        order = random.Random(f"metastable:{seed}:strata:{quarter}").sample(
            range(_META_STRATA), _META_STRATA)
        u = (order[index % _META_STRATA] + rng.random()) / _META_STRATA
        t = round(math.exp(lo + u * (hi - lo)))
        while t in times:
            t += 1
        times.append(min(t, _META_BOUND_MAX))
    run = {"t_final": float(t_final), "dt": 0.25, "store_every": 4,
           "lyapunov_t_star": float(t_final), "lyapunov_dt": 0.25,
           "bound_times": [float(t) for t in sorted(set(times))],
           "window": [100.0, float(t_final)]}
    return _gaussian("metastable", "metastable", {}, 2, run)


def _oracle(rng, index, seed):
    return {
        "scenario": "oracle",
        "modes": {"total": 2, "subsystem": 1},
        "hamiltonian": {"type": "builtin", "name": "two_mode_squeezing",
                        "params": {"rate": rng.uniform(0.9, 1.1)}},
        "initial_state": {"type": "fock", "state": rng.choice(_ORACLE_STATES), "cutoff": 20},
        "run": {"t_final": 1.5, "dt": 0.005, "store_every": 5,
                "lyapunov_t_star": 40.0, "lyapunov_dt": 0.01, "window_fraction": 0.75},
        "tolerances": {"leak_ceiling": 3e-3, "slope_rel_tol": 0.1},
    }


_GENERATORS = {"chain": _chain, "drive": _drive, "metastable": _metastable,
               "oracle": _oracle}


def make_config(workload, seed, index, csv_path, report_json_path):
    """The config document of run ``index``, with its outputs directed to the given paths.

    Index -1 is the warm-up config: it is run twice to compare CSV bytes and is
    never one of the timed runs.
    """
    rng = random.Random(f"{workload}:{seed}:{index}")
    doc = _GENERATORS[workload](rng, index, seed)
    doc["output"] = {"csv": csv_path, "report_json": report_json_path}
    return doc


def config_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
