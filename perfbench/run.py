"""End-to-end benchmark of the leadersync CLI.

Run from the root of a source checkout (the package is imported from
its ``src`` directory; nothing needs installing):

    python3 perfbench/run.py --workload ring16_design --seed 1 --seconds 55 --trace 0

Workloads: the names in BENCHMARK.json, which says why each was
chosen; ``workloads.py`` builds them and maps which per-layer metric
should move which end-to-end metric. A run

1. writes the workload's scenario files, generated from ``--seed``;
2. starts one child process that imports the package once and issues
   the workload's commands back to back, one client in a closed loop,
   for ``--seconds`` seconds (``child.py``); between commands, spread
   over the run, the child times SETUP_RUNS fresh interpreters
   importing the package and building the CLI parser
   (``python -m leadersync --help``): setup_s;
3. checks the outputs against independent references (``check.py``);
4. prints a readable report and, as the last line, one JSON object.

With ``--trace 0`` the JSON metrics are the end-to-end ones: setup_s,
the median wall time of one invocation of each subcommand, and the
child's peak resident memory. The host's speed drifts by up to 1.5x
in phases of seconds to minutes, so each timing is taken at a
reference speed: every sample is divided by the time of a fixed
calibration job run around it (``child.calibrate``) and
multiplied by CAL_REF_S, that job's median time on the reference host;
the metric is the median of those scaled samples. The report prints
the raw median, its percentile and sample count next to it.

With ``--trace 1`` the child alternates untraced and traced passes;
the metrics are the per-layer ones from the traced passes
(``tracer.py``) and the tracing overhead, and the spans are written to
``.perfbench_work/<workload>/spans.json``.

An invocation fails on an unexpected exit code, a verify verdict other
than PASS, stdout or CSV bytes that change between repetitions, or
disagreement with the reference; ``failed`` counts them against
``attempted``. The exit code is 0 whenever a result is printed, and
non-zero without a result when the package or a dependency is missing.
"""

import argparse
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_RUNS = 25
CHILD_TIMEOUT_S = 150
COMMANDS = ("synthesize", "simulate", "verify", "enumerate")
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
# Median of child.calibrate() on the reference host: a 2-vCPU VM on a
# 2.1 GHz Xeon, one BLAS thread.
CAL_REF_S = 0.0037
# One BLAS thread per process, so that the thread count is what the
# commands ask for: one, or the --jobs 2 pool on two cores. With the
# default (a thread per core) the pool's workers and BLAS's threads
# oversubscribe the cores, and timings follow the scheduler.
BLAS_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}


def _percentile_note(values):
    """Highest percentile with at least 10 samples beyond it."""
    s = sorted(values)
    best = None
    for p in PERCENTILES:
        k = math.ceil(p / 100.0 * len(s))
        if len(s) - k >= 10:
            best = (p, s[k - 1])
    if best is None:
        return f"n={len(s)}, no percentile has 10 samples beyond it"
    return f"n={len(s)}, p{best[0]:g} {best[1]:.6g}"


def _at_reference_speed(samples, cal):
    """Median of the samples, each scaled by the calibration time taken
    around it: the timing at the reference host's speed."""
    return statistics.median(t / c * CAL_REF_S
                             for t, c in zip(samples, cal))


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return proc.stdout.strip() or "unknown"


def _benchmark_spec():
    """BENCHMARK.json: the workload names and why each was chosen."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        _fail(f"cannot read BENCHMARK.json: {e}")


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    why = {w["name"]: w["why"] for w in _benchmark_spec()["workloads"]}
    ap.add_argument("--workload", required=True, choices=tuple(why))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "leadersync", "__init__.py")):
        _fail(f"no leadersync package under {SRC}; run from a source "
              f"checkout")
    for dep in ("numpy", "scipy"):
        if importlib.util.find_spec(dep) is None:
            _fail(f"{dep} is not importable")

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    scen_dir = os.path.join(work, "scenarios")
    keep = os.path.join(work, "keep")
    os.makedirs(keep)
    commands = workloads.build(args.workload, args.seed, scen_dir)

    setup = {"argv": [sys.executable, "-m", "leadersync", "--help"],
             "cwd": work, "runs": 0 if args.trace else SETUP_RUNS}
    spec = {"src": SRC, "commands": commands, "seconds": args.seconds,
            "trace": bool(args.trace), "keep": keep, "setup": setup,
            "result": os.path.join(work, "result.json"),
            "spans_out": os.path.join(work, "spans.json")}
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), spec_path],
            cwd=work, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S,
            env=dict(os.environ, **BLAS_ENV))
    except subprocess.TimeoutExpired:
        _fail(f"workload child exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        _fail(f"workload child exited with {proc.returncode}")
    with open(spec["result"]) as f:
        res = json.load(f)

    sys.path.insert(0, SRC)
    import check
    problems = list(res["problems"])
    failed = res["failures"]
    for i, probs in sorted(check.check_run(
            commands, res["first_stdout"], keep).items()):
        # every repetition printed and wrote the same bytes as the first
        failed += commands[i]["repeat"] * res["passes"]
        problems += [f"reference #{i}: {p}" for p in probs]
    failed = min(failed, res["attempts"])
    attempted = res["attempts"]

    import numpy
    import scipy
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "numba_importable": importlib.util.find_spec("numba") is not None,
           "kernel_backend": res["env"]["kernel_backend"],
           "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
           "git_commit": _git_commit()}

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  why: {why[args.workload]}")
    for layers, e2e, names in workloads.MOVES:
        if args.workload in names:
            print(f"  expect: {layers} -> {e2e}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"load: closed loop, 1 client, {res['passes']} passes in "
          f"{res['measured_s']:.3f} s")
    for c in commands:
        print(f"  {c['repeat']}x leadersync "
              + " ".join(os.path.basename(a) for a in c["argv"]))

    metrics = {}
    if args.trace == 0:
        print("end-to-end (medians):")
        cal = res["cal"]
        print(f"  host speed: calibration median "
              f"{statistics.median(c for v in cal.values() for c in v):.6f}"
              f" s, reference {CAL_REF_S:g} s")
        timings = [("setup_s", res["setup_s"], res["setup_cal"])]
        timings += [(f"{k}_s", res["samples"][k], cal[k]) for k in COMMANDS]
        for name, vals, vals_cal in timings:
            value = _at_reference_speed(vals, vals_cal)
            metrics[name] = {"value": value, "unit": "s"}
            print(f"  {name} {value:.6f} s at reference speed; raw "
                  f"median {statistics.median(vals):.6f} s "
                  f"({_percentile_note(vals)})")
        metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MiB"}
        print(f"  peak_rss_mb {res['peak_rss_mb']:.3f} MiB")
    else:
        layer_passes = res["layer_passes"]
        repeat_ok = True
        print(f"per-layer ({len(layer_passes)} traced passes; times are "
              f"medians over passes, counts from the first):")
        for name in layer_passes[0]:
            if any(p[name] is None for p in layer_passes):
                print(f"  {name} absent")
                continue
            vals = [p[name] for p in layer_passes]
            is_time = name.endswith("_s")
            if not is_time and len(set(vals)) > 1:
                repeat_ok = False
            value = statistics.median(vals) if is_time else vals[0]
            unit = "s" if is_time else ("bytes" if name.endswith("bytes")
                                        else "count")
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name} {value:.6g} {unit}")
        metrics["trace.overhead_s"] = {"value": res["trace_overhead_s"],
                                       "unit": "s"}
        print(f"  trace.overhead_s {res['trace_overhead_s']:.6f} s "
              f"(traced minus untraced pass time)")
        print(f"  counts repeat exactly across traced passes: {repeat_ok}")
        if not repeat_ok:
            problems.append("per-layer counts changed between passes")
    print(f"  fail_frac {failed / attempted:.6g} "
          f"({failed} failed of {attempted} attempted)")
    for p in problems[:20]:
        print(f"  problem: {p}")
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
