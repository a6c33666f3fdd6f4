"""Benchmark of the entgrowth pipeline: seeded workloads, checked outputs, per-layer tracing.

Usage (from the repository root)::

    python3 bench/run.py --workload chain --seed 1 --seconds 22 --trace 0

One process, one client, closed loop: each run parses a freshly generated
config with ``parse_config``, calls ``run_scenario`` and lets it write the
CSV and JSON report; the next run starts when the previous one is checked.
The harness itself needs only the standard library, apart from the
calibration kernel (``calibrate.py``) and the version record, which use numpy
and scipy; the package under test is imported from ``src/`` of the checkout
this file sits in.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs and prints the per-layer metrics.  The last line
of standard output is the result object; the line before it holds the
environment record and the run details.
"""

import os

# one BLAS thread, whatever the caller's environment says, set before numpy
# loads: REFERENCE_S was calibrated with one thread, no matrix here exceeds
# 400x400, and on a 2-core box idle BLAS threads spinning on the other core
# doubled CPU time and made run times erratic
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# fresh interpreters timed per invocation; setup_s is their median
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "run_s_p50": "s", "runs_per_s": "1/s",
                    "run_ok_ratio": "ratio", "peak_rss_mb": "MB"}


class SetupError(Exception):
    """The package cannot be imported or resolved; no result is printed."""


def import_package():
    """Import entgrowth from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "entgrowth", "__init__.py")):
        raise SetupError(f"no entgrowth package under {SRC}")
    sys.path.insert(0, SRC)
    import entgrowth.config
    import entgrowth.scenarios
    if not os.path.abspath(entgrowth.__file__).startswith(SRC + os.sep):
        raise SetupError(f"entgrowth imported from {entgrowth.__file__}, not {SRC}")
    return entgrowth.config, entgrowth.scenarios


def git_commit():
    """Commit of the checkout, or None outside a git repository or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args, loadavg):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    return {"nproc": os.cpu_count(), "loadavg_start": list(loadavg),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": threads,
            "commit": git_commit(), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}


def setup_times(workload, seed):
    """Fresh interpreter to ready: import entgrowth and parse the workload's configs.

    One (wall seconds, kernel before, kernel after) sample per probe.
    """
    samples = []
    kernel = calibrate.kernel_seconds()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "probe.py"), SRC,
                               workload, str(seed)], cwd=ROOT, capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        wall = float(proc.stdout.strip().splitlines()[-1]) - start
        after = calibrate.kernel_seconds()
        samples.append((wall, kernel, after))
        kernel = after
    return samples


def scaled(samples):
    """Wall seconds at the reference speed, each scaled by the kernel times around it."""
    return [wall * 2.0 * calibrate.REFERENCE_S / (before + after)
            for wall, before, after in samples]


class Runner:
    """Runs generated configs through the pipeline and checks what they write."""

    def __init__(self, config_mod, scenarios_mod, workload, seed, work_dir):
        self.config_mod = config_mod
        self.scenarios_mod = scenarios_mod
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.problems = []

    def run(self, index, tag="run", tracer=None):
        """One pipeline run: (seconds, problems, csv path); seconds is None if it raised."""
        csv_path = os.path.join(self.work_dir, f"{tag}.csv")
        report_path = os.path.join(self.work_dir, f"{tag}.json")
        doc = workloads.make_config(self.workload, self.seed, index, csv_path, report_path)
        text = workloads.config_text(doc)
        for path in (csv_path, report_path):
            if os.path.exists(path):
                os.remove(path)  # a run that writes nothing must not pass on stale files
        if tracer is not None:
            tracer.run = index
            tracer.install()
        try:
            start = time.perf_counter()
            # looked up at call time, so the tracer's wrappers are the ones called
            cfg = self.config_mod.parse_config(text)
            self.scenarios_mod.run_scenario(cfg)
            seconds = time.perf_counter() - start
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return None, [f"run {index} raised"], csv_path
        finally:
            if tracer is not None:
                tracer.uninstall()
        problems = [f"run {index}: {p}" for p in checks.check_run(doc, csv_path, report_path)]
        return seconds, problems, csv_path

    def determinism(self):
        """Warm-up: one config, not among the timed ones, run twice; CSV bytes must match."""
        _, first, csv_a = self.run(-1, tag="warm_a")
        _, second, csv_b = self.run(-1, tag="warm_b")
        problems = first + second
        if not problems:
            with open(csv_a, "rb") as fa, open(csv_b, "rb") as fb:
                if fa.read() != fb.read():
                    problems.append("identical configs gave different CSV bytes")
        return problems

    def loop(self, seconds, trace_every=0):
        """Closed loop of at least one run for ``seconds``; every ``trace_every``-th run traced.

        Returns (untraced, traced, tracer, attempted, failed).  Untraced and
        traced hold a (wall seconds, kernel before, kernel after) sample per
        run; the calibration kernel is timed only when nothing is traced, as
        traced and untraced runs alternate and are compared directly.
        """
        tracer = tracing.Tracer() if trace_every else None
        kernel_seconds = (lambda: None) if trace_every else calibrate.kernel_seconds
        plain, traced = [], []
        attempted = failed = 0
        deadline = time.perf_counter() + seconds
        index = 0
        kernel = kernel_seconds()
        while (index == 0 or time.perf_counter() < deadline
               or (trace_every and not (plain and traced))):
            use_trace = bool(trace_every) and index % trace_every == trace_every - 1
            elapsed, problems, _ = self.run(index, tracer=tracer if use_trace else None)
            after = kernel_seconds()
            attempted += 1
            if problems:
                failed += 1
                self.problems.extend(problems)
            if elapsed is not None:
                (traced if use_trace else plain).append((elapsed, kernel, after))
            kernel = after
            index += 1
        return plain, traced, tracer, attempted, failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    loadavg = os.getloadavg()
    args = parse_args(argv)
    try:
        config_mod, scenarios_mod = import_package()
        setup = [] if args.trace else setup_times(args.workload, args.seed)
    except (SetupError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    env = environment(args, loadavg)

    work_dir = os.path.join(OUT_DIR, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    runner = Runner(config_mod, scenarios_mod, args.workload, args.seed, work_dir)
    warm_problems = runner.determinism()
    runner.problems.extend(warm_problems)
    plain, traced, tracer, attempted, failed = runner.loop(args.seconds,
                                                           trace_every=2 if args.trace else 0)
    attempted += 1
    failed += bool(warm_problems)

    details = {"environment": env, "runs": len(plain), "traced_runs": len(traced),
               "problems": runner.problems[:20]}
    if not plain or (args.trace and not traced):
        metrics = {}
    elif args.trace:
        spans_path = os.path.join(work_dir, "spans.jsonl.gz")
        tracer.write(spans_path)
        details["spans"] = os.path.relpath(spans_path, ROOT)
        values = tracing.layer_metrics(tracer.spans, len(traced))
        values["trace.overhead_ratio"] = (statistics.median(s[0] for s in traced)
                                          / statistics.median(s[0] for s in plain) - 1)
        metrics = {name: {"value": v, "unit": tracing.metric_unit(name)}
                   for name, v in values.items()}
    else:
        run_s = scaled(plain)
        values = {
            "setup_s": statistics.median(scaled(setup)),
            "run_s_p50": statistics.median(run_s),
            "runs_per_s": len(run_s) / sum(run_s),
            "run_ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        details["unscaled_run_s_p50"] = statistics.median(s[0] for s in plain)
        details["setup_wall_kernel_s"] = setup
        details["run_wall_kernel_s"] = plain
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
