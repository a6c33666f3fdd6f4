"""Start-up: a run loads only the SciPy modules its stages use.

Gaussian flows use the package's own matrix exponential and take the
Floquet rates from the eigenvalues of M(tau), so a constant, piecewise or
periodic run loads no SciPy module at all, on any SciPy release.  The
bound minimizer is numpy alone, so bound minimizations load none either.
``scipy.sparse``, ``scipy.fft`` and ``scipy.special`` load with the first
Fock step, and ``scipy.linalg`` only if they import it themselves; parsing
a Fock config loads none of them.
"""

import json
import os
import subprocess
import sys
import textwrap

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# a fresh interpreter: the test process has already loaded everything.  Each
# entry lists the scipy modules loaded after one more stage.  The CLI prints
# its report first; the last line holds the entries.
SCRIPT = textwrap.dedent("""
    import json, sys

    stages = []

    def record():
        stages.append(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))

    import entgrowth, entgrowth.cli, entgrowth.scenarios as sc
    from entgrowth.config import parse_config

    def run(text):
        rep = sc.run_scenario(parse_config(text), write_outputs=False)
        assert rep.ok, rep.failures

    assert entgrowth.cli.main(["scenario", "run", "inverted_pair"]) == 0
    run(json.dumps(sc.scenario_document("coupled_chain")))
    run(json.dumps(sc.scenario_document("parametric_drive")))   # a Floquet section
    metastable = parse_config(json.dumps(sc.scenario_document("metastable")))
    assert sc.run_view(metastable, "bounds").ok   # four bound times
    with open({oracle!r}) as fh:
        oracle = fh.read()
    parse_config(oracle)
    record()
    run(oracle)
    record()
    run(json.dumps(sc.scenario_document("metastable")))   # four bound times
    record()
    print(json.dumps(stages))
""")


def _loaded_by(*modules):
    """The scipy modules that importing ``modules`` loads in a fresh interpreter."""
    script = (f"import sys, {', '.join(modules)}; "
              "print(' '.join(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return set(res.stdout.split())


def test_flow_runs_load_no_scipy_module():
    oracle = os.path.join(CONFIGS, "oracle_two_mode_squeezing.json")
    res = subprocess.run([sys.executable, "-c", SCRIPT.format(oracle=oracle)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    stages = json.loads(res.stdout.splitlines()[-1])
    flows, oracle_run, bounds = (set(names) for names in stages)
    # the CLI and library flow runs, bound minimizations and parsing a Fock
    # config load no scipy module
    assert flows == set()
    # the oracle adds what it uses, and no minimizer; scipy.linalg only where
    # those modules import it themselves (older scipy.special does)
    assert oracle_run >= {"scipy.sparse", "scipy.fft", "scipy.special"}
    assert "scipy.optimize" not in oracle_run
    assert "scipy.linalg" not in oracle_run - _loaded_by("scipy.sparse", "scipy.fft", "scipy.special")
    # the bound minimizations add no scipy module
    assert bounds - oracle_run == set()
