"""One workload run: import the package once, then issue its CLI
commands back to back (closed loop, one client) until the time is up.

Usage: python3 child.py SPEC.json

The spec (written by run.py) names the package's ``src`` directory,
the command list, the run length, whether to trace, and where to
write the result. Each command's stdout must repeat byte for byte and
every CSV it writes must hash the same on every repetition; the
outputs of the first repetition are kept for the reference check in
run.py. Between commands, at even steps over the run, the child times
fresh interpreters importing the package (setup_s). Before and after
each timed command and setup start it times a fixed calibration job,
so that run.py can scale every sample to a reference host speed. With
tracing on, passes alternate untraced and traced, so the tracing
overhead is the difference of their medians.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np


def _csv_hashes(directory):
    out = {}
    for base, _, files in os.walk(directory):
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, directory)] = \
                    hashlib.sha256(f.read()).hexdigest()
    return out


def _environment():
    try:
        from leadersync.numerics import kernels
    except ImportError:
        return {"numpy": np.__version__,
                "kernel_backend": "numpy (no kernels module)"}
    flag = getattr(kernels, "NUMBA_ENABLED", None)
    backend = ("numba" if flag else "numpy") if flag is not None \
        else "numpy (no backend flag)"
    return {"numpy": np.__version__, "kernel_backend": backend}


_CAL_M = np.random.default_rng(0).standard_normal((48, 48)) / 10


def calibrate():
    """Wall time of a fixed job that does not use the package: an
    interpreter loop, small matrix products and float formatting, the
    three kinds of work the commands do, about 4 ms in all. Timed just
    before and after a command, it tells how fast the host ran then."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i
    M = _CAL_M
    for _ in range(60):
        M = np.tanh(M @ _CAL_M)
    ",".join("%.17g" % v for v in M[0:8].ravel())
    return time.perf_counter() - t0


def main(spec_path):
    with open(spec_path) as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])
    import leadersync.cli as cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()

    commands = spec["commands"]
    keep = spec["keep"]
    first = [None] * len(commands)
    samples = {c["kind"]: [] for c in commands}
    # calibration time around each untraced sample
    cal = {c["kind"]: [] for c in commands}
    attempts = failures = 0
    problems = []
    passes = []
    start = time.perf_counter()

    def invoke(i, traced):
        nonlocal attempts, failures
        cmd = commands[i]
        if cmd["out"]:
            shutil.rmtree(cmd["out"], ignore_errors=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            scope = (tracer.invocation(cmd["kind"]) if traced
                     else contextlib.nullcontext())
            t0 = time.perf_counter()
            try:
                with scope:
                    code = cli.main(cmd["argv"])
            except SystemExit as e:  # e.g. argparse rejecting the argv
                code = e.code if isinstance(e.code, int) else \
                    f"SystemExit: {e.code}"
            except Exception as e:  # a traceback is a failed invocation
                code = f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
        attempts += 1
        text = out.getvalue()
        hashes = _csv_hashes(cmd["out"]) if cmd["out"] else {}
        bad = []
        if code != 0:
            bad.append(f"exit {code}: {err.getvalue().strip()[:300]}")
        if cmd["kind"] == "verify":
            n_pass = text.count("\nverdict PASS\n")
            if n_pass != len(cmd["scenarios"]):
                bad.append(f"{n_pass} of {len(cmd['scenarios'])} verdicts PASS")
        if first[i] is None:
            first[i] = {"stdout": text, "csv": hashes}
            if cmd["out"] and os.path.isdir(cmd["out"]):
                dest = os.path.join(keep, f"cmd{i}")
                shutil.rmtree(dest, ignore_errors=True)
                shutil.move(cmd["out"], dest)
        else:
            if text != first[i]["stdout"]:
                bad.append("stdout differs from the first repetition")
            if hashes != first[i]["csv"]:
                bad.append("CSV bytes differ from the first repetition")
        if bad:
            failures += 1
            problems.append(f"{cmd['kind']} #{i}: " + "; ".join(bad))
        return dt

    last_cal = 0.0

    def bracket():
        """Calibration time around the sample just taken: the mean of
        the one timed before it and one timed now."""
        nonlocal last_cal
        after = calibrate()
        mid = 0.5 * (last_cal + after)
        last_cal = after
        return mid

    setup = spec["setup"]
    setup_times, setup_cal = [], []
    setup_every = spec["seconds"] / max(setup["runs"], 1)

    def time_setup():
        """One fresh interpreter importing the package and building the
        CLI parser; a non-zero exit is a failed invocation."""
        nonlocal attempts, failures
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                setup["argv"], cwd=setup["cwd"],
                env=dict(os.environ, PYTHONPATH=spec["src"]),
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=60)
            code, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired as e:
            code, err = "timeout", e.stderr or b""
        setup_times.append(time.perf_counter() - t0)
        setup_cal.append(bracket())
        attempts += 1
        if code != 0:
            failures += 1
            problems.append(f"setup: exit {code}: "
                            + err.decode(errors="replace")[-300:])

    def setup_due():
        # spread over the measured window, so that setup_s samples the
        # same phases of host speed as the commands do
        return len(setup_times) < setup["runs"] and \
            time.perf_counter() - start >= len(setup_times) * setup_every

    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            mark = len(tracer.spans)
        last_cal = calibrate()
        t_pass = time.perf_counter()
        busy = 0.0
        for i, cmd in enumerate(commands):
            for _ in range(cmd["repeat"]):
                dt = invoke(i, traced)
                busy += dt
                if not traced:
                    samples[cmd["kind"]].append(dt)
                    cal[cmd["kind"]].append(bracket())
                if setup_due():
                    time_setup()
        info = {"traced": traced, "busy_s": busy}
        if traced:
            tracer.uninstall()
            info["layers"] = layer_metrics(tracer.spans[mark:],
                                           tracer.absent)
        passes.append(info)
        elapsed = time.perf_counter() - start
        wall = time.perf_counter() - t_pass
        min_passes = 2 if tracer is not None else 1
        if len(passes) >= min_passes and \
                elapsed + 0.5 * wall >= spec["seconds"]:
            break

    while len(setup_times) < setup["runs"]:
        time_setup()

    result = {
        "setup_s": setup_times,
        "setup_cal": setup_cal,
        "samples": samples,
        "cal": cal,
        "attempts": attempts,
        "failures": failures,
        "problems": problems,
        "first_stdout": [f["stdout"] for f in first],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "measured_s": time.perf_counter() - start,
        "passes": len(passes),
        "env": _environment(),
    }
    if tracer is not None:
        traced = [p for p in passes if p["traced"]]
        plain = [p["busy_s"] for p in passes if not p["traced"]]
        result["layer_passes"] = [p["layers"] for p in traced]
        result["trace_overhead_s"] = (
            statistics.median(p["busy_s"] for p in traced)
            - statistics.median(plain))
        with open(spec["spans_out"], "w") as f:
            json.dump({"fields": ["id", "name", "start", "end", "parent",
                                  "thread", "note"],
                       "spans": tracer.spans}, f)
    with open(spec["result"], "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1])
