"""Self-test of the benchmark itself (not of entgrowth).

Usage (from the repository root; about two minutes on 2 cores)::

    python3 bench/selftest.py

Checks that

* every workload, at the smallest size (one timed run), prints a result line
  with every metric BENCHMARK.json names, each with its unit, and no other;
* the spans of a traced run nest properly and ``scenarios.self_s`` lies
  within ``scenarios.run_s``;
* a corrupted output counts as a failed run: a perturbed CSV value, and a
  metastable bound above its 2 ln(e/2) ceiling;
* without the package next to it, the benchmark exits nonzero and prints
  no result.

It also reports, without failing, whether the known minimizer defect that
caps the metastable bound times (``workloads._META_BOUND_MAX``) still shows
at t = 857 on an unmodified run, and whether the checks catch it.

Exits 1 and lists what failed if any check does not hold.
"""

import contextlib
import dataclasses
import gzip
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import checks
import run
import workloads

FAILURES = []


def expect(condition, message):
    if not condition:
        FAILURES.append(message)
        print(f"FAIL: {message}", flush=True)


def invoke(args, cwd=run.ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result_lines(benchmark):
    """Every workload and trace mode reports exactly the declared metrics and units."""
    declared = {0: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
                1: {m["name"]: m["unit"] for m in benchmark["per_layer"]}}
    names = [w["name"] for w in benchmark["workloads"]]
    expect(sorted(names) == sorted(workloads.WORKLOADS), f"workloads {names}")
    for workload in names:
        for trace_flag in (0, 1):
            label = f"{workload} --trace {trace_flag}"
            proc = invoke(["--workload", workload, "--seed", "0", "--seconds", "0",
                           "--trace", str(trace_flag)])
            expect(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys {sorted(result)}")
            expect(result["correct"] is True and result["failed"] == 0,
                   f"{label}: not correct: {proc.stdout.splitlines()[-2][:500]}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == declared[trace_flag], f"{label}: metrics differ from BENCHMARK.json: "
                   f"missing {sorted(set(declared[trace_flag]) - set(got))}, "
                   f"extra {sorted(set(got) - set(declared[trace_flag]))}, "
                   f"units {[(n, u) for n, u in got.items() if declared[trace_flag].get(n) != u]}")
            if trace_flag:
                check_spans(label, result["metrics"],
                            json.loads(proc.stdout.strip().splitlines()[-2])["spans"])


def check_spans(label, metrics, spans_path):
    with gzip.open(os.path.join(run.ROOT, spans_path), "rt") as fh:
        spans = [json.loads(line) for line in fh]
    for span in spans:
        parent = span["parent"]
        if parent < 0:
            continue
        outer = spans[parent]
        if not (parent < span["id"] and outer["start"] <= span["start"] <= span["end"]
                <= outer["end"] and outer["run"] == span["run"]):
            expect(False, f"{label}: span {span} does not nest in {outer}")
            return
    run_s, self_s = metrics["scenarios.run_s"]["value"], metrics["scenarios.self_s"]["value"]
    expect(0.0 <= self_s <= run_s, f"{label}: self {self_s} outside run {run_s}")


@contextlib.contextmanager
def patched(module, name, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield original
    finally:
        setattr(module, name, original)


def check_corruption_fails():
    """Outputs corrupted on their way out of the pipeline make a run count as failed."""
    config_mod, scenarios_mod = run.import_package()
    work_dir = tempfile.mkdtemp(dir=run.OUT_DIR)
    try:
        original_write = scenarios_mod.write_csv

        def perturbed_write(path, rows):
            original_write(path, rows)
            with open(path) as fh:
                lines = fh.read().splitlines()
            cells = lines[-1].split(",")
            cells[1] = repr(float(cells[1]) * (1.0 + 1e-6))  # S_vn_A of the last sample
            lines[-1] = ",".join(cells)
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")

        for workload in ("chain", "oracle"):
            with patched(scenarios_mod, "write_csv", perturbed_write):
                runner = run.Runner(config_mod, scenarios_mod, workload, 0, work_dir)
                *_, attempted, failed = runner.loop(0)
            expect(attempted == failed == 1, f"perturbed {workload} CSV counted as correct")

        ceiling = 2.0 * (1.0 - math.log(2.0))
        original_minimize = scenarios_mod.gss_rhs_minimize

        def above_ceiling(*args, **kwargs):
            return dataclasses.replace(original_minimize(*args, **kwargs), value=ceiling + 1e-3)

        with patched(scenarios_mod, "gss_rhs_minimize", above_ceiling):
            runner = run.Runner(config_mod, scenarios_mod, "metastable", 0, work_dir)
            *_, attempted, failed = runner.loop(0)
        expect(attempted == failed == 1, "metastable bound above its ceiling counted as correct")

        runner = run.Runner(config_mod, scenarios_mod, "oracle", 0, work_dir)
        *_, attempted, failed = runner.loop(0)
        expect(attempted == 1 and failed == 0, "an unmodified oracle run failed its checks")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def report_known_defect():
    """Run metastable with the bound time t = 857, above the cap, and say what the checks find."""
    config_mod, scenarios_mod = run.import_package()
    work_dir = tempfile.mkdtemp(dir=run.OUT_DIR)
    try:
        csv_path, report_path = (os.path.join(work_dir, name) for name in ("t857.csv",
                                                                           "t857.json"))
        doc = workloads.make_config("metastable", 0, 0, csv_path, report_path)
        doc["run"]["bound_times"] = [857.0]
        scenarios_mod.run_scenario(config_mod.parse_config(workloads.config_text(doc)))
        problems = checks.check_run(doc, csv_path, report_path)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if problems:
        print(f"known defect still shows, caught by the checks: {problems}", flush=True)
    else:
        print("known defect no longer shows at t = 857: the metastable bound-time cap "
              "in workloads.py may be lifted", flush=True)


def check_fails_without_package():
    """In a directory holding only BENCHMARK.json and bench/, exit nonzero, print no result."""
    bare = tempfile.mkdtemp(dir=run.OUT_DIR)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = invoke(["--workload", "chain", "--seed", "0", "--seconds", "1"], cwd=bare)
        expect(proc.returncode != 0, "bare directory: exit code 0")
        expect('"metrics"' not in proc.stdout, "bare directory: printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    check_fails_without_package()
    check_corruption_fails()
    report_known_defect()
    check_result_lines(benchmark)
    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
