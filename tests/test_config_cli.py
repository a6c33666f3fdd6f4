"""Config parsing round-trips, CSV determinism, CLI surface."""

import dataclasses
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entgrowth import cli, dynamics, fock, scenarios
from entgrowth import config as config_mod
from entgrowth.config import (
    OutputSpec,
    RunParams,
    Tolerances,
    config_hash,
    matrix_from_json,
    matrix_to_json,
    parse_config,
    serialize_config,
)
from entgrowth.errors import ConfigError
from entgrowth.reporting import CSV_COLUMNS, csv_rows, format_float, write_csv
from entgrowth.dynamics import QuadraticHamiltonian, propagate, sample_times
from entgrowth.scenarios import (
    SCENARIO_NAMES,
    bound_matrices,
    metastable_form,
    run_scenario,
)
from reference import SHIPPED_ORACLE_CONFIG, default_scenario

MINIMAL = """
{
  "modes": {"total": 2, "subsystem": 1},
  "hamiltonian": {"type": "builtin", "name": "inverted_pair"},
  "initial_state": {"type": "gaussian", "covariance": "vacuum"},
  "run": {"t_final": 2.0, "dt": 0.01}
}
"""


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.modes.n_total == 2 and cfg.modes.n_a == 1
    assert cfg.canonical["hamiltonian"]["type"] == "builtin"
    assert np.array_equal(cfg.initial_state, np.eye(4))
    assert cfg.run.t_final == 2.0


def _typed_documents():
    """MINIMAL with each Hamiltonian type and each initial-state kind."""
    h = np.diag([1.0, 1.0, -0.25, 1.0])
    h[0, 2] = h[2, 0] = 0.2
    mod = np.zeros((4, 4))
    mod[0, 0] = 0.5
    h_json = {"rows": 4, "cols": 4, "data": [int(x) if x == int(x) else x for x in h.ravel()]}
    hamiltonians = [
        {"type": "constant", "h": h_json},
        {"type": "piecewise", "period": 2, "pieces": [
            {"duration": 0.5, "h": h_json}, {"duration": 1.5, "h": matrix_to_json(np.eye(4))}]},
        {"type": "fourier", "base": h_json, "period": 2.0, "terms": [
            {"omega": math.pi, "cos": matrix_to_json(mod), "sin": matrix_to_json(mod.T)}]},
        {"type": "fourier", "base": h_json, "terms": [{"omega": 1.3, "cos": matrix_to_json(mod)}]},
    ]
    states = [{"type": "gaussian", "covariance": matrix_to_json(np.diag([2.0, 0.5, 1.0, 1.0]))}]
    states += [{"type": "fock", "state": text, "cutoff": 8}
               for text in ("fock:1,0", "superfock:0,0;1,1", "coherent:0.3,0.2j", "cat:0.5,1")]
    docs = [{**json.loads(MINIMAL), "hamiltonian": ham} for ham in hamiltonians]
    return docs + [{**json.loads(MINIMAL), "initial_state": state} for state in states]


def test_serialize_parse_idempotent():
    cfg = parse_config(MINIMAL)
    text1 = serialize_config(cfg)
    text2 = serialize_config(parse_config(text1))
    assert text1 == text2
    for name in SCENARIO_NAMES:
        cfg = default_scenario(name)
        text1 = serialize_config(cfg)
        text2 = serialize_config(parse_config(text1))
        assert text1 == text2
    for doc in _typed_documents():
        cfg = parse_config(json.dumps(doc))
        text1 = serialize_config(cfg)
        again = parse_config(text1)
        assert serialize_config(again) == text1
        # the canonical text builds the same Hamiltonian and state
        for t in (0.0, 0.4, 1.9, 7.3):
            assert np.array_equal(cfg.hamiltonian.h(t), again.hamiltonian.h(t))
        assert cfg.hamiltonian.period == again.hamiltonian.period
        state, state_again = (getattr(c.initial_state, "amplitudes", c.initial_state)
                              for c in (cfg, again))
        assert np.array_equal(state, state_again)


def test_config_hash_stable_and_sensitive():
    cfg1 = parse_config(MINIMAL)
    cfg2 = parse_config(MINIMAL)
    assert config_hash(cfg1) == config_hash(cfg2)
    cfg2.run.dt = 0.02
    assert config_hash(cfg1) != config_hash(cfg2)


def test_matrix_block_round_trip():
    a = np.arange(6.0).reshape(2, 3)
    back = matrix_from_json(matrix_to_json(a), "x")
    assert np.array_equal(a, back)


def test_matrix_block_errors():
    with pytest.raises(ConfigError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [1.0]}, "h")
    with pytest.raises(ConfigError):
        matrix_from_json([1, 2, 3], "h")


def test_parse_errors_carry_field_paths():
    with pytest.raises(ConfigError) as err:
        parse_config('{"modes": {"total": 2}}')
    assert "modes.subsystem" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config('{"modes": {"total": 2, "subsystem": 1}, '
                     '"hamiltonian": {"type": "unknown_kind"}, '
                     '"initial_state": {"type": "gaussian"}, '
                     '"run": {"t_final": 1.0, "dt": 0.1}}')
    assert "hamiltonian.type" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config("not json at all")
    assert "line" in str(err.value)


def test_constant_hamiltonian_config():
    doc = {
        "modes": {"total": 1, "subsystem": 1},
        "hamiltonian": {"type": "constant",
                        "h": {"rows": 2, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0]}},
        "initial_state": {"type": "gaussian"},
        "run": {"t_final": 1.0, "dt": 0.01},
    }
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc))   # n_a == n_total is not a bipartition
    doc["modes"] = {"total": 2, "subsystem": 1}
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc))   # 2x2 form for a 2-mode system
    doc["hamiltonian"]["h"] = {"rows": 4, "cols": 4, "data": list(np.eye(4).ravel())}
    cfg = parse_config(json.dumps(doc))
    assert cfg.hamiltonian.h(0.0).shape == (4, 4)


def test_warning_free_run_has_all_sections():
    cfg = default_scenario("inverted_pair")
    rep = run_scenario(cfg)
    assert rep.ok and not rep.warnings
    assert {"propagation", "lyapunov", "exponent", "slopes"} <= set(rep.sections)
    assert len(rep.rows) > 0


def test_declared_period_is_checked():
    with pytest.raises(ValueError, match=re.escape("declared period 2.0 but h(2.26) != h(0.26)")):
        QuadraticHamiltonian(h=lambda t: np.diag([1.0 + 0.2 * t, 1.0]), n_modes=1, period=2.0)


def test_false_declared_period_is_a_config_error_for_every_command(tmp_path, capfd):
    # h = (1 + cos 2t) I has period pi, not 1
    doc = json.loads(MINIMAL)
    doc["hamiltonian"] = {"type": "fourier", "base": _EYE4, "period": 1.0,
                          "terms": [{"omega": 2.0, "cos": _EYE4}]}
    doc["run"] = {"t_final": 4.0, "dt": 0.01}
    cfg_path = tmp_path / "lying.json"
    cfg_path.write_text(json.dumps(doc))
    for command in ("simulate", "lyapunov", "exponent", "bounds-check"):
        assert cli.main([command, str(cfg_path)]) == 2, command
        out, err = capfd.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.splitlines() == ["config error: hamiltonian.period: fourier: declared period "
                                    "1.0 but h(1.13) != h(0.13)"]


def test_csv_deterministic(tmp_path):
    cfg = default_scenario("inverted_pair")
    cfg.run.t_final = 4.0
    cfg.run.store_every = 200
    cfg.run.lyapunov_t_star = 60.0
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    cfg.output.csv = str(out1)
    run_scenario(cfg)
    cfg.output.csv = str(out2)
    run_scenario(cfg)
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_prints_17_significant_digits(x):
    assert format_float(x) == format(x, ".17g")
    assert format_float(np.float64(x)) == format(x, ".17g")


@pytest.mark.parametrize("x", [None, math.nan, math.inf, -math.inf, np.float64("nan"),
                               np.float64("inf"), np.float64("-inf")])
def test_format_float_prints_missing_and_nonfinite_as_nan(x):
    assert format_float(x) == "nan"


def test_write_csv_prints_every_float_cell_as_format_float(tmp_path):
    # one format string per row writes what format_float writes cell by cell
    cells = [None, math.nan, math.inf, -math.inf, -0.0, 1e-320, 0.1, -2.5, 1e300]
    columns = {name: cells[i:] + cells[:i] for i, name in enumerate(
        ("t", "s_vn_a", "s2_a", "s_as_a", "i_ab", "lambda_a_alg", "lambda_a_vol",
         "bound_lower", "bound_upper"))}
    trusted = [i % 2 == 0 for i in range(len(cells))]
    path = tmp_path / "rows.csv"
    write_csv(path, csv_rows(**columns, source="fock", trusted=trusted))
    lines = [",".join([*(format_float(col[i]) for col in columns.values()), "fock",
                       "1" if trusted[i] else "0"]) for i in range(len(cells))]
    assert path.read_text() == "\n".join([",".join(CSV_COLUMNS), *lines]) + "\n"
    # a scalar fills its column, None is NaN, and every column must be named once
    rows = csv_rows(**{**columns, "lambda_a_alg": 2.0, "bound_upper": None},
                    source="gaussian", trusted=True)
    assert (rows.lambda_a_alg == 2.0).all() and np.isnan(rows.bound_upper).all()
    assert rows.trusted.all() and len(rows) == len(cells)
    with pytest.raises(TypeError):
        csv_rows(**{k: v for k, v in columns.items() if k != "i_ab"}, source="fock",
                 trusted=True)
    with pytest.raises(TypeError):
        csv_rows(**columns, source="fock", trusted=True, lambda_A_alg=2.0)


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "entgrowth.cli", *args],
                          capture_output=True, text=True)


def test_cli_scenario_list():
    res = _cli("scenario", "list")
    assert res.returncode == 0
    names = res.stdout.split()
    assert "inverted_pair" in names and "metastable" in names


def test_cli_print_config():
    res = _cli("scenario", "run", "inverted_pair", "--print-config")
    assert res.returncode == 0
    cfg = parse_config(res.stdout)
    assert cfg.scenario == "inverted_pair"


def test_cli_simulate_writes_outputs(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = default_scenario("inverted_pair")
    cfg.run.t_final = 4.0
    cfg.run.store_every = 200
    cfg.run.lyapunov_t_star = 60.0
    cfg_path.write_text(serialize_config(cfg))
    csv_path = tmp_path / "out.csv"
    rep_path = tmp_path / "report.txt"
    json_path = tmp_path / "report.json"
    res = _cli("simulate", str(cfg_path), "--csv", str(csv_path),
               "--report", str(rep_path), "--report-json", str(json_path))
    assert res.returncode == 0, res.stderr
    assert csv_path.exists() and rep_path.exists()
    doc = json.loads(json_path.read_text())
    assert doc["ok"] is True
    assert "lyapunov" in doc["sections"] and "slopes" in doc["sections"]
    assert "scenario: inverted_pair" in rep_path.read_text()


def test_cli_scenario_override(tmp_path):
    res = _cli("scenario", "run", "inverted_pair",
               "--override", "run.t_final=4.0",
               "--override", "run.store_every=200",
               "--override", "run.lyapunov_t_star=60.0",
               "--print-config")
    assert res.returncode == 0
    cfg = parse_config(res.stdout)
    assert cfg.run.t_final == 4.0 and cfg.run.store_every == 200


def test_cli_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    res = _cli("simulate", str(bad))
    assert res.returncode == 2
    assert "config error" in res.stderr


def test_cli_missing_file_exit_code():
    res = _cli("simulate", "/nonexistent/path.json")
    assert res.returncode == 2


def test_cli_closed_stdout_exits_quietly():
    # `entgrowth ... --json | head -1`: the reader leaves after one line.  A
    # one-page pipe holds less than the report, so the writer is still
    # blocked on it when the reader closes, whatever the timing
    fcntl = pytest.importorskip("fcntl")
    read_fd, write_fd = os.pipe()
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen([sys.executable, "-m", "entgrowth.cli", "scenario", "run", "metastable",
                             "--json"], stdout=write_fd, stderr=subprocess.PIPE)
    os.close(write_fd)
    line = b""
    while not line.endswith(b"\n"):
        byte = os.read(read_fd, 1)
        assert byte, "the report ended before its first line did"
        line += byte
    os.close(read_fd)
    err = proc.communicate(timeout=300)[1]
    assert line == b"scenario: metastable\n"
    assert proc.returncode == cli.EXIT_BROKEN_PIPE
    assert err == b""


def _one_line_exit_2(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


def test_cli_directory_as_config_exits_2(tmp_path, capsys):
    assert "Is a directory" in _one_line_exit_2(["simulate", str(tmp_path)], capsys)


def test_cli_non_utf8_config_exits_2(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"modes": \xff\xfe}')
    assert "not UTF-8 text" in _one_line_exit_2(["simulate", str(binary)], capsys)


def test_cli_directory_as_output_exits_2(tmp_path, capsys):
    err = _one_line_exit_2(["scenario", "run", "inverted_pair", "--csv", str(tmp_path)], capsys)
    assert "Is a directory" in err


def test_cli_bad_output_path_fails_before_any_stage(tmp_path, capsys, monkeypatch):
    def no_stage(cfg, report):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(scenarios, "_run_flow", no_stage)
    ok_csv = tmp_path / "ok.csv"
    for bad, reason in ((tmp_path, "Is a directory"),
                        (tmp_path / "missing" / "r.json", "No such file or directory")):
        err = _one_line_exit_2(["scenario", "run", "metastable", "--csv", str(ok_csv),
                                "--report-json", str(bad)], capsys)
        assert reason in err and str(bad) in err
        assert not ok_csv.exists()


def test_cli_lyapunov_and_exponent_commands(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = default_scenario("inverted_pair")
    cfg.run.t_final = 24.0
    cfg_path.write_text(serialize_config(cfg))
    res = _cli("lyapunov", str(cfg_path), "--json")
    assert res.returncode == 0, res.stderr
    assert "exponents" in res.stdout and "residual" in res.stdout
    res = _cli("exponent", str(cfg_path))
    assert res.returncode == 0, res.stderr
    assert "lambda_alg" in res.stdout and "lambda_vol" in res.stdout


def test_cli_bounds_check_command(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = default_scenario("metastable")
    cfg.run.t_final = 10.0
    cfg.run.window = (2.0, 10.0)
    cfg.run.bound_times = (1.0, 10.0)
    cfg_path.write_text(serialize_config(cfg))
    res = _cli("bounds-check", str(cfg_path), "--json")
    assert res.returncode == 0, res.stderr
    entries = _report_json(res.stdout)["sections"]["bounds"]
    assert [entry["t"] for entry in entries] == [1.0, 10.0]
    assert all(np.isfinite(entry["residual"]) for entry in entries)


# the stage commands and the sections of the simulate report they reproduce
STAGE_SECTIONS = {"lyapunov": {"lyapunov"},
                  "exponent": {"propagation", "lyapunov", "exponent"},
                  "bounds-check": {"propagation", "bounds"}}


def _report_json(stdout):
    # --json prints the text report, then the JSON report
    return json.loads(stdout[stdout.index("\n{") + 1:])


def _run_cli(capsys, *argv):
    code = cli.main([*argv, "--json"])
    out = capsys.readouterr().out
    return code, out, _report_json(out)


@pytest.mark.parametrize("name", ["inverted_pair", "coupled_chain", "metastable",
                                  "parametric_drive"])
def test_stage_command_sections_equal_simulate(tmp_path, capsys, name):
    cfg = default_scenario(name)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(serialize_config(cfg))
    code, _, sim = _run_cli(capsys, "simulate", str(cfg_path))
    assert code == 0 and sim["ok"], sim["failures"]
    views = {}
    for command, names in STAGE_SECTIONS.items():
        code, _, doc = _run_cli(capsys, command, str(cfg_path))
        assert code == 0 and doc["ok"], (command, doc["failures"])
        assert set(doc["sections"]) == names
        for section in names & set(sim["sections"]):
            assert doc["sections"][section] == sim["sections"][section], (command, section)
        views[command] = doc
    # bounds-check bounds t_final when the config names no bound times
    times = [entry["t"] for entry in views["bounds-check"]["sections"]["bounds"]]
    assert times == list(cfg.run.bound_times or (cfg.run.t_final,))
    assert ("bounds" in sim["sections"]) == bool(cfg.run.bound_times)


@pytest.mark.parametrize("ceiling, ok", [(0.1, True), (1e-5, False)])
def test_stage_commands_reach_the_simulate_verdict(monkeypatch, tmp_path, capsys, ceiling, ok):
    # every command holds the Lyapunov residual to the one ceiling;
    # metastable's defective map keeps the QR estimate, whose residual
    # (0.0055) lies between 1e-5 and 0.1
    monkeypatch.setattr(scenarios, "RESIDUAL_CEILING", ceiling)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(serialize_config(default_scenario("metastable")))
    for command in ("simulate", "lyapunov", "exponent"):
        code, out, doc = _run_cli(capsys, command, str(cfg_path))
        assert (code, doc["ok"]) == ((0, True) if ok else (1, False)), (command, doc["failures"])
        if not ok:
            assert "[failures]" in out
            assert len(doc["failures"]) == 1 and "NotConverged" in doc["failures"][0]


def test_stage_commands_refuse_the_classical_counterexample(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(serialize_config(default_scenario("classical_counterexample")))
    for command in STAGE_SECTIONS:
        assert cli.main([command, str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err


def test_shipped_oracle_config_has_no_exponent_stage(capsys):
    # a fock state's pipeline runs no exponent stage (simulate's report has
    # none), so its view is a config error; its other stages run
    path = str(SHIPPED_ORACLE_CONFIG)
    code, _, sim = _run_cli(capsys, "simulate", path)
    assert code == 0 and "exponent" not in sim["sections"], sim["failures"]
    for command in ("lyapunov", "bounds-check"):
        code, _, doc = _run_cli(capsys, command, path)
        assert code == 0 and doc["ok"], (command, doc["failures"])
    err = _one_line_exit_2(["exponent", path], capsys)
    assert err.startswith("config error: initial_state.type: ")


def test_off_grid_bound_time_is_config_error(tmp_path):
    series = propagate(QuadraticHamiltonian.constant(metastable_form()), 10.0, 0.25,
                       store_every=4)
    assert np.array_equal(bound_matrices(series, [3.0 + 1e-12])[0], series.matrices[3])
    with pytest.raises(ConfigError, match="run.bound_times"):
        bound_matrices(series, [3.0, 2.5])
    cfg = default_scenario("metastable")
    cfg.run.t_final = 10.0
    cfg.run.window = (2.0, 10.0)
    cfg.run.bound_times = (1.0, 2.5, 3.0)
    rep = run_scenario(cfg)
    assert any("ConfigError: run.bound_times" in f for f in rep.failures), rep.failures
    assert "bounds" not in rep.sections
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(serialize_config(cfg))
    res = _cli("bounds-check", str(cfg_path))
    assert res.returncode == 2 and "run.bound_times" in res.stderr


def test_bad_bound_times_and_window_rejected_at_parse(tmp_path):
    def doc(**run):
        return {"modes": {"total": 2, "subsystem": 1},
                "hamiltonian": {"type": "builtin", "name": "metastable"},
                "initial_state": {"type": "gaussian"},
                "run": {"t_final": 10.0, "dt": 0.25, "store_every": 4, **run}}

    # stored samples are t = 0, 1, ..., 10
    cfg = parse_config(json.dumps(doc(bound_times=[1.0, 3.0 + 1e-12, 10.0], window=[2.0, 10.0])))
    assert cfg.run.bound_times == (1.0, 3.0 + 1e-12, 10.0)
    for bad, field in (({"bound_times": [2.5]}, "run.bound_times"),
                       ({"bound_times": [3.0 + 1e-6]}, "run.bound_times"),
                       ({"bound_times": [0.0]}, "run.bound_times"),
                       ({"bound_times": [11.0]}, "run.bound_times"),
                       ({"bound_times": [-1.0]}, "run.bound_times"),
                       ({"window": [10.0, 20.0]}, "run.window"),
                       ({"window": [12.0, 20.0]}, "run.window")):
        with pytest.raises(ConfigError, match=field):
            parse_config(json.dumps(doc(**bad)))
    # simulate stops before any propagation, with the config-error exit code
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc(bound_times=[2.5])))
    assert cli.main(["simulate", str(cfg_path)]) == 2
    assert cli.main(["scenario", "run", "metastable", "--override", "run.t_final=100.0"]) == 2


def test_readme_override_example_passes(capsys):
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    lines = [line.split("#")[0].strip() for line in readme.read_text().splitlines()
             if line.startswith("entgrowth scenario run") and "--override" in line]
    assert lines == ["entgrowth scenario run inverted_pair --override run.t_final=12.0"]
    assert cli.main(shlex.split(lines[0])[1:]) == 0, capsys.readouterr().out


def test_readme_config_example_parses():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```json\n(.*?)```", readme.read_text(), re.S).group(1)
    cfg = parse_config(block)
    assert (cfg.canonical["hamiltonian"]["name"] == "inverted_pair"
            and cfg.run.bound_times == (1.2, 12.0))


def test_cli_oracle_command(tmp_path):
    doc = {
        "modes": {"total": 2, "subsystem": 1},
        "hamiltonian": {"type": "builtin", "name": "two_mode_squeezing"},
        "initial_state": {"type": "fock", "state": "fock:0,0", "cutoff": 12},
        "run": {"t_final": 0.9, "dt": 0.005, "store_every": 5,
                "lyapunov_t_star": 40.0, "lyapunov_dt": 0.01},
        "tolerances": {"leak_ceiling": 3e-3, "slope_rel_tol": 0.15},
    }
    cfg_path = tmp_path / "fock.json"
    cfg_path.write_text(json.dumps(doc))
    csv_path = tmp_path / "oracle.csv"
    res = _cli("oracle", str(cfg_path), "--csv", str(csv_path))
    assert res.returncode == 0, (res.stdout, res.stderr)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert any(",fock," in line for line in lines[1:])
    # gaussian config through the oracle command is a config error
    cfg_path2 = tmp_path / "gauss.json"
    cfg_path2.write_text(serialize_config(default_scenario("inverted_pair")))
    res = _cli("oracle", str(cfg_path2))
    assert res.returncode == 2


def test_shipped_oracle_config_runs(monkeypatch):
    # the size rules run twice: at parse for the run's 61 stored samples, and in evolve_fock
    sizes = []
    check_size = fock.check_size
    monkeypatch.setattr(fock, "check_size", lambda *args: sizes.append(args) or check_size(*args))
    cfg = parse_config(SHIPPED_ORACLE_CONFIG.read_text())
    rep = run_scenario(cfg)
    assert rep.ok, (rep.failures, rep.warnings)
    assert rep.sections["oracle"]["rel_dev"] <= 0.1
    assert sizes == [(2, 20, 61), (2, 20, 61)]


def test_fock_config_through_pipeline(tmp_path):
    doc = {
        "modes": {"total": 2, "subsystem": 1},
        "hamiltonian": {"type": "builtin", "name": "two_mode_squeezing"},
        "initial_state": {"type": "fock", "state": "fock:0,0", "cutoff": 14},
        "run": {"t_final": 1.2, "dt": 0.005, "store_every": 5,
                "lyapunov_t_star": 40.0, "lyapunov_dt": 0.01},
        "tolerances": {"leak_ceiling": 3e-3, "slope_rel_tol": 0.1},
    }
    cfg = parse_config(json.dumps(doc))
    report = run_scenario(cfg)
    assert report.ok, (report.failures, report.warnings)
    assert report.sections["oracle"]["bounds_contain_entropy"]
    sources = {row.source for row in report.rows}
    assert sources == {"fock"}
    assert any(not row.trusted for row in report.rows)   # leaks before 1.2


def _tms_doc(state, **extra):
    # two-mode squeezing from a Fock state, or its Gaussian twin from the vacuum
    initial = ({"type": "gaussian", "covariance": "vacuum"} if state is None
               else {"type": "fock", "state": state, "cutoff": 12})
    return {"modes": {"total": 2, "subsystem": 1},
            "hamiltonian": {"type": "builtin", "name": "two_mode_squeezing"},
            "initial_state": initial,
            "run": {"t_final": 0.9, "dt": 0.005, "store_every": 5,
                    "lyapunov_t_star": 40.0, "lyapunov_dt": 0.01, **extra.get("run", {})},
            "tolerances": {"leak_ceiling": 3e-3, "slope_rel_tol": 0.15}}


def _twin_reports(**extra):
    return [run_scenario(parse_config(json.dumps(_tms_doc(state, **extra))))
            for state in ("fock:1,0", None)]


def test_fock_run_shares_the_flow_stages_with_its_gaussian_twin():
    # propagation, Lyapunov and bounds read only M(t), so the state type
    # cannot change them
    fock, gauss = _twin_reports(run={"bound_times": [0.5, 0.9]})
    fock_doc, gauss_doc = fock.to_json_dict()["sections"], gauss.to_json_dict()["sections"]
    assert "oracle" in fock_doc and "slopes" in gauss_doc
    for name in ("propagation", "lyapunov", "bounds"):
        assert fock_doc[name] == gauss_doc[name], name
    assert [entry["t"] for entry in fock_doc["bounds"]] == [0.5, 0.9]


def test_fock_run_keeps_the_defect_ceiling(monkeypatch):
    monkeypatch.setattr(dynamics, "DEFECT_FACTOR", 1e-30)
    reports = _twin_reports()
    for rep in reports:
        assert len(rep.failures) == 1 and rep.failures[0].startswith("StepTooLarge"), rep.failures


@pytest.mark.parametrize("state, cutoff, field", [
    ("wat:1", 12, "initial_state.state"),
    ("fock:0", 12, "initial_state.state"),
    ("fock:0,12", 12, "initial_state.state"),
    ("fock:a,0", 12, "initial_state.state"),
    ("superfock:0,0;1", 12, "initial_state.state"),
    ("superfock:0,0;-1,0", 12, "initial_state.state"),
    ("coherent:5.0,0", 12, "initial_state.state"),
    ("cat:1.0,2", 12, "initial_state.state"),
    ("fock:0,0", 3, "initial_state.cutoff"),
    ("fock:0,0", 500, "initial_state.cutoff"),
    ("fock:0,0", "many", "initial_state.cutoff"),
])
def test_bad_fock_state_rejected_at_parse(tmp_path, capsys, state, cutoff, field):
    doc = _tms_doc(state)
    doc["initial_state"]["cutoff"] = cutoff
    with pytest.raises(ConfigError, match=field):
        parse_config(json.dumps(doc))
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["simulate", str(cfg_path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("n_modes, state, cutoff, field", [
    (4, "fock:0,0,0,0", 100, "initial_state.cutoff"),
    (3, "fock:0,0,0", 10_000, "initial_state.cutoff"),
])
def test_fock_size_rules_reject_before_the_state_is_built(monkeypatch, tmp_path, capsys,
                                                         n_modes, state, cutoff, field):
    # the cases of test_bad_fock_state_rejected_at_parse that need another
    # mode count; 4 modes at cutoff 100 would be a 1.9 GB amplitude tensor,
    # 3 modes at cutoff 10,000 a 16 TB one
    def no_state(*args):
        raise AssertionError("state built before the size rules ran")

    monkeypatch.setattr(config_mod, "_fock_from_text", no_state)
    doc = {"modes": {"total": n_modes, "subsystem": 1},
           "hamiltonian": {"type": "constant", "h": matrix_to_json(np.eye(2 * n_modes))},
           "initial_state": {"type": "fock", "state": state, "cutoff": cutoff},
           "run": {"t_final": 0.1, "dt": 0.01}}
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: "):
        parse_config(json.dumps(doc))
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["simulate", str(cfg_path)]) == 2
    assert field in capsys.readouterr().err


def test_fock_memory_budget_counts_the_stored_samples():
    # cutoff 100 (dimension 10,000, over the former cap of 4096) fits the
    # budget at 181 stored samples, and not at 1,001
    doc = _tms_doc("fock:0,0", run={"t_final": 0.9, "store_every": 1})
    doc["initial_state"]["cutoff"] = 100
    assert parse_config(json.dumps(doc)).initial_state.cutoff == 100
    doc["run"]["t_final"] = 5.0
    with pytest.raises(ConfigError, match=r"^initial_state\.cutoff: 1001 stored samples .* "
                                          r"above the 128 MiB memory budget"):
        parse_config(json.dumps(doc))
    # 501 stored samples (83 MiB on the oracle's 104 levels per mode) fit
    # once, but not as the three tensors a run holds while it forms them
    doc["run"]["t_final"] = 2.5
    with pytest.raises(ConfigError, match=r"^initial_state\.cutoff: 501 stored samples at "
                                          r"dimension 10816 need 251\.9 MiB"):
        parse_config(json.dumps(doc))


def test_oversized_fock_run_is_rejected_without_listing_its_grid():
    # 1,000,001 stored samples: the count and the bound-time check come from
    # the grid rule, so the rejection allocates no grid of that length
    doc = _tms_doc("fock:0,0", run={"t_final": 5000.0, "store_every": 1,
                                    "bound_times": [2500.0]})
    parse_config(SHIPPED_ORACLE_CONFIG.read_text())   # the modules a Fock config loads
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"^initial_state\.cutoff: 1000001 stored samples"):
            parse_config(json.dumps(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


_EYE4 = matrix_to_json(np.eye(4))
_PIECE = {"duration": 1.0, "h": _EYE4}


@pytest.mark.parametrize("key, value, field", [
    ("hamiltonian", {"type": "constant", "h": _EYE4, "f": [0.1, 0.0, 0.0, 0.0]}, "hamiltonian.f"),
    ("hamiltonian", {"type": "builtin", "name": "inverted_pair", "nmae": "x"}, "hamiltonian.nmae"),
    ("hamiltonian", {"type": "piecewise", "period": 2.0, "pieces": [_PIECE, {**_PIECE, "dur": 1.0}]},
     "hamiltonian.pieces[1].dur"),
    ("hamiltonian", {"type": "fourier", "base": _EYE4, "terms": [{"omega": 1.0, "cso": _EYE4}]},
     "hamiltonian.terms[0].cso"),
    ("hamiltonian", {"type": "builtin", "name": "inverted_pair", "params": {"kapa1": 1.0}},
     "hamiltonian.params"),
    ("hamiltonian", {"type": "builtin", "name": "parametric_drive", "params": {"t_on": 2.5}},
     "hamiltonian.params"),
    ("hamiltonian", {"type": "builtin", "name": "coupled_chain", "params": {"omega_sq": 5}},
     "hamiltonian.params"),
    ("modes", {"total": 2, "subsystem": 1, "sub": 1}, "modes.sub"),
    ("initial_state", {"type": "gaussian", "covarience": "vacuum"}, "initial_state.covarience"),
    ("initial_state", {"type": "gaussian", "covariance": {**_EYE4, "note": "x"}},
     "initial_state.covariance.note"),
    ("initial_state", {"type": "fock", "state": "fock:0,0", "cutoff": 12, "covariance": "vacuum"},
     "initial_state.covariance"),
    ("run", {"t_final": 2.0, "dt": 0.01, "store_evry": 5}, "run.store_evry"),
    ("tolerances", {"leak_celing": 1e-3}, "tolerances.leak_celing"),
    ("output", {"cvs": "out.csv"}, "output.cvs"),
    ("bogus", 1, "bogus"),
    ("hamiltonian", {"type": "builtin", "name": "metastable", "params": {"kapa": 1}},
     "hamiltonian.params"),
])
def test_unknown_keys_and_bad_builtin_params_rejected_at_parse(tmp_path, capsys, key, value, field):
    doc = json.loads(MINIMAL)
    doc[key] = value
    with pytest.raises(ConfigError, match=re.escape(field)):
        parse_config(json.dumps(doc))
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["simulate", str(cfg_path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("name, params, field", [
    ("inverted_pair", {"kappa1": True}, "hamiltonian.params.kappa1"),
    ("inverted_pair", {"coupling": "0.2"}, "hamiltonian.params.coupling"),
    ("two_mode_squeezing", {"rate": None}, "hamiltonian.params.rate"),
    ("parametric_drive", {"kappa": float("nan")}, "hamiltonian.params.kappa"),
    ("coupled_chain", {"omega_sq": [-1.0, 1.0, True, 1.0]}, "hamiltonian.params.omega_sq[2]"),
    ("coupled_chain", {"omega_sq": [-1.0, None, -0.64, 1.0]}, "hamiltonian.params.omega_sq[1]"),
    ("coupled_chain", {"omega_sq": "1,1,1,1"}, "hamiltonian.params.omega_sq"),
])
def test_builtin_params_are_read_as_numbers(tmp_path, capsys, name, params, field):
    doc = json.loads(MINIMAL)
    doc["hamiltonian"] = {"type": "builtin", "name": name, "params": params}
    if name == "coupled_chain":
        doc["modes"]["total"] = 4
    with pytest.raises(ConfigError, match=re.escape(field)):
        parse_config(json.dumps(doc))
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["simulate", str(cfg_path)]) == 2
    assert field in capsys.readouterr().err


def test_builtin_params_parse_to_floats():
    doc = json.loads(MINIMAL)
    doc["modes"]["total"] = 4
    doc["hamiltonian"] = {"type": "builtin", "name": "coupled_chain",
                          "params": {"omega_sq": [-1, 1, -0.64, 1], "coupling": 0.25}}
    params = parse_config(json.dumps(doc)).canonical["hamiltonian"]["params"]
    assert params == {"omega_sq": (-1.0, 1.0, -0.64, 1.0), "coupling": 0.25}
    assert all(type(w) is float for w in params["omega_sq"])


@pytest.mark.parametrize("command", sorted(STAGE_SECTIONS))
@pytest.mark.parametrize("flag", ["--csv", "--report", "--report-json"])
def test_stage_commands_reject_file_flags(tmp_path, capsys, command, flag):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(MINIMAL)
    out_path = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, str(cfg_path), flag, str(out_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out_path.exists()


def _ham(kind, **keys):
    return json.dumps({"type": kind, **keys})


def _diagonal(*entries):
    return json.dumps(matrix_to_json(np.diag(entries)))


_SKEW4 = {"rows": 4, "cols": 4, "data": list((np.eye(4) + np.triu(np.ones((4, 4)), 1)).ravel())}


# (dotted key, JSON text of its new value, path the error must name); one
# case or more per reader
@pytest.mark.parametrize("key, value, field", [
    ("tolerances.slope_rel_tol", '"0.1"', "tolerances.slope_rel_tol"),
    ("run.window", "5", "run.window"),
    ("run.window", "[5.0, 1.0]", "run.window"),
    ("run.store_every", "2.7", "run.store_every"),
    ("modes.total", "2.5", "modes.total"),
    ("modes.subsystem", "true", "modes.subsystem"),
    ("run.lyapunov_t_star", "0", "run.lyapunov_t_star"),
    ("run.dt", "Infinity", "run.dt"),
    ("run.t_final", "NaN", "run.t_final"),
    ("run.window_fraction", "2", "run.window_fraction"),
    ("run.bound_times", "[1.0, null]", "run.bound_times[1]"),
    # removed keys, refused as unknown
    ("tolerances.defect_factor", "-1", "tolerances.defect_factor"),
    ("tolerances.residual_tol", "0.05", "tolerances.residual_tol"),
    ("tolerances", "[]", "tolerances"),
    ("scenario", "5", "scenario"),
    ("output.csv", "1", "output.csv"),
    ("output.report", '""', "output.report"),
    pytest.param("hamiltonian", _ham("constant", h={**_EYE4, "data": ["a"] + _EYE4["data"][1:]}),
                 "hamiltonian.h.data[0]", id="matrix-data-string"),
    pytest.param("hamiltonian", _ham("constant", h={**_EYE4, "rows": 4.0}),
                 "hamiltonian.h.rows", id="matrix-rows-float"),
    pytest.param("hamiltonian", _ham("constant", h=_SKEW4), "hamiltonian.h",
                 id="constant-not-symmetric"),
    pytest.param("hamiltonian", _ham("fourier", base=matrix_to_json(np.eye(2))), "hamiltonian.base",
                 id="fourier-base-2x2"),
    pytest.param("hamiltonian", _ham("fourier", base=_EYE4, terms=[{"omega": "1", "cos": _EYE4}]),
                 "hamiltonian.terms[0].omega", id="fourier-omega-string"),
    pytest.param("hamiltonian", _ham("fourier", base=_EYE4, period=-2.0), "hamiltonian.period",
                 id="fourier-period-negative"),
    pytest.param("hamiltonian", _ham("piecewise", period=2.0, pieces=[{**_PIECE, "duration": 0}]),
                 "hamiltonian.pieces[0].duration", id="piece-duration-zero"),
    pytest.param("hamiltonian", _ham("piecewise", period=2.0, pieces=[_PIECE]), "hamiltonian.pieces",
                 id="piece-durations-short-of-period"),
    pytest.param("hamiltonian", _ham("builtin", name=5), "hamiltonian.name", id="builtin-name-int"),
    # the covariance check runs at parse, before any stage reads g0
    pytest.param("initial_state.covariance", _diagonal(1.0, 1.0, -1.0, 1.0),
                 "initial_state.covariance", id="covariance-not-positive-definite"),
    pytest.param("initial_state.covariance", _diagonal(0.5, 0.5, 1.0, 1.0),
                 "initial_state.covariance", id="covariance-below-the-uncertainty-bound"),
])
def test_malformed_value_is_config_error_naming_its_path(tmp_path, capfd, key, value, field):
    doc = json.loads(MINIMAL)
    cli._apply_override(doc, key, value)
    with pytest.raises(ConfigError, match=re.escape(field)):
        parse_config(json.dumps(doc))
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["simulate", str(cfg_path)]) == 2
    out, err = capfd.readouterr()
    assert out == "" and err.startswith("config error: ") and field in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [cfg_path]   # nothing written


def _valid_sections(data):
    """A MINIMAL-based document with drawn, valid run/tolerances/output sections."""
    def maybe(strategy):
        return data.draw(st.one_of(st.none(), strategy))

    positive = st.floats(min_value=1e-6, max_value=1e6, allow_subnormal=False)
    t_final = data.draw(st.floats(min_value=0.5, max_value=100.0))
    dt = t_final / data.draw(st.integers(min_value=1, max_value=500))
    store_every = data.draw(st.integers(min_value=1, max_value=20))
    stored = sample_times(t_final, dt, store_every)[1:].tolist()
    lo = data.draw(st.floats(min_value=-10.0, max_value=0.9 * t_final))
    run = {"t_final": t_final, "dt": dt, "store_every": store_every,
           "lyapunov_t_star": maybe(positive), "lyapunov_dt": maybe(positive),
           "window": maybe(st.just([lo, lo + data.draw(positive)])),
           "window_fraction": maybe(st.floats(min_value=1e-3, max_value=1.0)),
           "bound_times": maybe(st.lists(st.sampled_from(stored), max_size=4))}
    tolerances = {name: maybe(positive) for name in
                  ("leak_ceiling", "slope_rel_tol")}
    output = {name: maybe(st.text(min_size=1, max_size=8)) for name in ("csv", "report", "report_json")}
    doc = json.loads(MINIMAL)
    for name, section in (("run", run), ("tolerances", tolerances), ("output", output)):
        doc[name] = {key: val for key, val in section.items() if val is not None}
    return doc


_SECTIONS = (("run", RunParams), ("tolerances", Tolerances), ("output", OutputSpec))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sections_round_trip_and_reject_bad_values(data):
    doc = _valid_sections(data)
    text = serialize_config(parse_config(json.dumps(doc)))
    assert serialize_config(parse_config(text)) == text
    # one value replaced by a wrong kind of value: a ConfigError naming it,
    # except a string where an output path belongs
    section, cls = data.draw(st.sampled_from(_SECTIONS))
    key = data.draw(st.sampled_from([f.name for f in dataclasses.fields(cls)]))
    bad = data.draw(st.sampled_from(["1.0", ["x"], None, True, float("nan"), -1.5]))
    doc[section][key] = bad
    if section == "output" and isinstance(bad, str):
        parse_config(json.dumps(doc))
        return
    with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}")):
        parse_config(json.dumps(doc))
