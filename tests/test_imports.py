"""Start-up: a run loads no SciPy module.

Gaussian flows use the package's own matrix exponential and take the
Floquet rates from the eigenvalues of M(tau), so a constant, piecewise or
periodic run loads no SciPy module at all, on any SciPy release.  The
bound minimizer is numpy alone, so bound minimizations load none either.
The Fock oracle forms its amplitudes from the stored M(t) with numpy
alone, so parsing and running a Fock config load none as well.
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
        rep = sc.run_scenario(parse_config(text))
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


def test_flow_runs_load_no_scipy_module():
    oracle = os.path.join(CONFIGS, "oracle_two_mode_squeezing.json")
    res = subprocess.run([sys.executable, "-c", SCRIPT.format(oracle=oracle)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    stages = json.loads(res.stdout.splitlines()[-1])
    flows, oracle_run, bounds = (set(names) for names in stages)
    # the CLI and library flow runs, bound minimizations, parsing and running
    # a Fock config load no scipy module
    assert flows == set()
    assert oracle_run == set()
    assert bounds == set()
