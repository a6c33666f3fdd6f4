"""Start-up: a run loads only the SciPy modules its stages use."""

import json
import os
import subprocess
import sys
import textwrap

DEFERRED = ("scipy.optimize", "scipy.sparse", "scipy.fft", "scipy.special")
CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# a fresh interpreter: the test process has already loaded everything.  The
# first entry is what numpy and scipy.linalg load themselves (older SciPy
# releases, 1.10 among them, import scipy.sparse with scipy.linalg), each
# later entry what is loaded
# after one more stage.  The CLI prints its report first; the last line
# holds the entries.
SCRIPT = textwrap.dedent("""
    import json, sys
    import numpy, scipy.linalg

    stages = []

    def record():
        stages.append([name for name in {deferred!r} if name in sys.modules])

    record()
    import entgrowth, entgrowth.cli, entgrowth.scenarios as sc
    from entgrowth.config import parse_config

    def run(text):
        rep = sc.run_scenario(parse_config(text), write_outputs=False)
        assert rep.ok, rep.failures

    assert entgrowth.cli.main(["scenario", "run", "inverted_pair"]) == 0
    run(json.dumps(sc.scenario_document("coupled_chain")))
    record()
    with open({oracle!r}) as fh:
        oracle = fh.read()
    parse_config(oracle)
    record()
    run(json.dumps(sc.scenario_document("metastable")))   # four bound times
    record()
    run(oracle)
    record()
    print(json.dumps(stages))
""")


def test_flow_runs_load_no_minimizer_or_fock_modules():
    oracle = os.path.join(CONFIGS, "oracle_two_mode_squeezing.json")
    res = subprocess.run([sys.executable, "-c", SCRIPT.format(deferred=DEFERRED, oracle=oracle)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    stages = json.loads(res.stdout.splitlines()[-1])
    base, flow, oracle_parse, bounds, oracle_run = (set(names) for names in stages)
    # the CLI and library flow runs add none of the four, nor does parsing a Fock config
    assert flow == base
    assert oracle_parse == base
    # the first bound minimization loads the minimizer
    assert "scipy.optimize" in bounds - oracle_parse
    # the oracle has what it uses (scipy.optimize may have loaded some already)
    assert oracle_run >= {"scipy.sparse", "scipy.fft", "scipy.special"}
