"""Seeded scenario generation for the benchmark workloads.

Each workload is a list of CLI commands over scenario files that this
module writes; the program under test only ever sees those files.
Every input that varies between seeds (initial states and schedule
seeds) is drawn from ``random.Random(seed)``, so one seed always gives
the same files. Sizes never depend on the seed: the number of grid
steps, output rows and scenarios is fixed per workload, and the
interval count varies only through the drawn gaps.

Each workload runs all four subcommands, so that each end-to-end
metric exists on each workload: the commands a workload was built for
carry its weight, the others are small. Horizons and the ring's size
keep every command under about 1 s, so that a run holds 20 or more
samples of each and its medians do not hang on a handful of
invocations in a host phase. ``MOVES`` says which per-layer
metric should move which end-to-end metric on which workload.
"""

import os
import random

DEMO_A = [[-0.38, 0.72], [-0.68, 0.42]]
DEMO_B = [[0.26], [0.31]]
DEMO_X0 = [1.2, -0.8]
DEMO_XF = [[2.4, -1.6], [-1.4, 2.6], [1.8, -2.5], [-0.2, 1.3]]
DEMO_EDGES_1 = [(0, 1), (0, 2), (3, 2), (1, 3), (4, 3), (2, 4)]
DEMO_EDGES_2 = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)]
SHIPPED_SEED = 7
DEMO_HORIZON = 4.0

# Two 5-follower graphs on which the identity, the per-graph scalings
# and their geometric mean all fail, so only the projected ascent of
# find_common_D finds the common scaling.
EDGES_ASC_1 = [(0, 5), (1, 3), (1, 4), (2, 0), (2, 1), (2, 4), (2, 5),
               (3, 5), (4, 2), (4, 3), (5, 0), (5, 4)]
EDGES_ASC_2 = [(0, 1), (0, 5), (2, 3), (2, 4), (3, 0), (3, 1), (3, 2),
               (3, 5), (4, 3), (4, 5), (5, 2)]

# Two demo-like oscillators with a weak cross coupling; with 16 (or
# 32) followers on a leader-fed ring this gives T_bar = 0.0424 > T_high.
RING_A = [[-0.38, 0.72, 0.05, 0.0], [-0.68, 0.42, 0.0, 0.0],
          [0.0, 0.0, -0.38, 0.72], [0.0, 0.05, -0.68, 0.42]]
RING_B = [[0.26, 0.0], [0.31, 0.0], [0.0, 0.26], [0.0, 0.31]]
RING_N = 16

# The layer -> end-to-end map, worded as in the benchmark's issue:
# (per-layer metrics, end-to-end metrics they should move, workloads on
# which they should move them). run.py prints the entries of the run's
# workload. BENCHMARK.json says why each workload was chosen.
MOVES = [
    ("cli.self_s (invocation time outside child spans, with the --jobs "
     "pool)", "simulate_s, verify_s", ("demo_batch",)),
    ("scenario.load_scenario_s", "all end-to-end timings, but small",
     ("demo_batch", "ring16_design")),
    ("graph.signal_mode_s, graph.signal_mode.calls (linear event scan per "
     "interval)", "verify_s, simulate_s; near zero on the static ring",
     ("demo_batch",)),
    ("graph.leader_reachable.calls", "enumerate_s", ("ring16_design",)),
    ("synthesis.find_common_D_s, synthesis.find_common_D.margin_evals "
     "(projected ascent)", "synthesize_s; few evaluations elsewhere",
     ("ring16_design",)),
    ("synthesis.synthesize_s", "synthesize_s", ("ring16_design",)),
    ("synthesis.worst_case_params_s", "enumerate_s", ("ring16_design",)),
    ("numerics.sym_eig_extremes_s/.calls/.max_dim, "
     "numerics.spectral_norm_s/.calls", "synthesize_s, simulate_s, verify_s",
     ("ring16_design",)),
    ("numerics.expm_s/.calls/.max_dim (128x128 Van Loan block)",
     "simulate_s, verify_s", ("ring16_design",)),
    ("numerics.solve_care_s", "synthesize_s, simulate_s, verify_s",
     ("ring16_design",)),
    ("sim.gen_schedule_s", "simulate_s, verify_s", ("demo_batch",)),
    ("sim.simulate.self_s (propagation and per-interval bookkeeping)",
     "verify_s, simulate_s; never synthesize_s",
     ("demo_batch", "ring16_design")),
    ("sim.grid_steps, sim.intervals, sim.output_rows", "exact counts that "
     "size simulate_s and verify_s", ("demo_batch", "ring16_design")),
    ("sim.lyapunov_trace_s", "verify_s", ("demo_batch",)),
    ("sim.write_trajectory_csv_s, sim.write_schedule_csv_s, sim.csv_bytes",
     "simulate_s; never verify_s", ("demo_batch",)),
    ("any synthesis.* or numerics.* metric", "under 1% of any metric",
     ("demo_batch",)),
]


def _fmt(x):
    return repr(float(x))


def _matrix_line(key, M, with_cols):
    rows, cols = len(M), len(M[0])
    dims = [str(rows), str(cols)] if with_cols else [str(rows)]
    return " ".join([key] + dims + [_fmt(v) for r in M for v in r])


def scenario_text(sc):
    """Scenario file text for a dict with the keys used below. Every
    scenario has mu1 = mu2 = 1, which check.py's CARE reference uses."""
    lines = [f"name {sc['name']}",
             _matrix_line("A", sc["A"], False),
             _matrix_line("B", sc["B"], True),
             "mu1 1.0", "mu2 1.0"]
    for edges in sc["topologies"]:
        toks = [str(sc["N"])] + [str(v) for e in edges for v in e]
        lines.append("topology " + " ".join(toks))
    if "period" in sc:
        lines.append(f"period {_fmt(sc['period'])}")
        for mode, dur in sc["phases"]:
            lines.append(f"phase {mode} {_fmt(dur)}")
    for key in ("T_low", "T_high", "grid_h"):
        lines.append(f"{key} {_fmt(sc[key])}")
    lines.append(f"seed {sc['seed']}")
    lines.append(f"horizon {_fmt(sc['horizon'])}")
    lines.append("x0 " + " ".join(_fmt(v) for v in sc["x0"]))
    for i, row in enumerate(sc["xf"], start=1):
        lines.append(f"x{i} " + " ".join(_fmt(v) for v in row))
    if sc.get("output_dt") is not None:
        lines.append(f"output_dt {_fmt(sc['output_dt'])}")
    lines.append(f"out_traj {sc['name']}_trajectory.csv")
    lines.append(f"out_sched {sc['name']}_schedule.csv")
    return "\n".join(lines) + "\n"


def _states(rng, count, n, scale=3.0):
    return [[round(rng.uniform(-scale, scale), 6) for _ in range(n)]
            for _ in range(count)]


def _u64(rng):
    return rng.getrandbits(64)


def _demo(name, switching, seed):
    """A shipped demo scenario with another schedule seed."""
    sc = {"name": name, "A": DEMO_A, "B": DEMO_B, "N": 4,
          "T_low": 0.001, "grid_h": 0.001, "seed": seed,
          "horizon": DEMO_HORIZON,
          "x0": DEMO_X0, "xf": DEMO_XF, "output_dt": None}
    if switching:
        sc.update(topologies=[DEMO_EDGES_1, DEMO_EDGES_2], T_high=0.016,
                  period=1.0, phases=[(0, 2.0 / 3.0), (1, 1.0 / 3.0)])
    else:
        sc.update(topologies=[DEMO_EDGES_1], T_high=0.018)
    return sc


def _scenarios(workload, rng):
    """(scenario dicts by role, command plan) for one workload. A plan
    entry is (subcommand, role of its scenarios, repetitions per pass);
    an ``enumerate`` role names the follower count. Host speed changes
    in phases of seconds, so the short commands are split into bursts
    between the long ones, to sample more of those phases in a run."""
    if workload == "demo_batch":
        batch = [
            _demo("static_s7", False, SHIPPED_SEED),
            _demo("switching_s7", True, SHIPPED_SEED),
            _demo("static_sx", False, _u64(rng)),
            _demo("switching_sx", True, _u64(rng)),
        ]
        plan = [("synthesize", "batch", 5), ("enumerate", "followers2", 10),
                ("simulate", "batch", 1), ("verify", "batch", 1),
                ("synthesize", "batch", 5), ("enumerate", "followers2", 10),
                ("verify", "batch", 1)]
        return {"batch": batch, "model": batch[0]}, plan
    if workload == "ring16_design":
        N = RING_N
        edges = [(0, i) for i in range(1, N + 1)]
        edges += [(i, i + 1) for i in range(1, N)] + [(N, 1)]
        ring = {"name": f"ring{N}", "A": RING_A, "B": RING_B, "N": N,
                "topologies": [edges], "T_low": 0.001, "T_high": 0.04,
                "grid_h": 0.001, "seed": _u64(rng), "horizon": 5.0,
                "x0": _states(rng, 1, 4)[0], "xf": _states(rng, N, 4),
                "output_dt": 0.1}
        # synthesized only: T_bar is 5.9e-12, so it is never simulated
        asc = {"name": "ascent_pair", "A": DEMO_A, "B": DEMO_B, "N": 5,
               "topologies": [EDGES_ASC_1, EDGES_ASC_2],
               "period": 1.0, "phases": [(0, 0.5), (1, 0.5)],
               "T_low": 0.001, "T_high": 0.01, "grid_h": 0.001,
               "seed": _u64(rng), "horizon": 10.0,
               "x0": DEMO_X0, "xf": _states(rng, 5, 2)}
        plan = [("synthesize", "design", 1), ("enumerate", "followers3", 1),
                ("simulate", "ring", 1), ("enumerate", "followers3", 1),
                ("verify", "ring", 1), ("enumerate", "followers3", 1)]
        return {"design": [ring, asc], "ring": [ring], "model": asc}, plan
    raise ValueError(f"unknown workload {workload!r}")


def build(workload, seed, directory):
    """Write the workload's scenario files into ``directory``.

    Returns the command list: one dict per command with ``kind``,
    ``argv`` (with absolute paths), ``repeat`` (invocations per pass),
    the ``scenarios`` it reads with their file ``paths``, and the
    directory ``out`` where ``simulate`` writes its CSVs.
    """
    rng = random.Random(seed)
    groups, plan = _scenarios(workload, rng)
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for scs in groups.values():
        for sc in scs if isinstance(scs, list) else [scs]:
            path = os.path.join(directory, sc["name"] + ".txt")
            if sc["name"] not in paths:
                with open(path, "w", newline="\n") as f:
                    f.write(scenario_text(sc))
                paths[sc["name"]] = path
    commands = []
    for kind, group, repeat in plan:
        if kind == "enumerate":
            followers = int(group[len("followers"):])
            model = groups["model"]
            argv = ["enumerate", "--model", paths[model["name"]],
                    "--followers", str(followers)]
            commands.append({"kind": kind, "argv": argv, "repeat": repeat,
                             "scenarios": [model],
                             "paths": [paths[model["name"]]], "out": None})
            continue
        scs = groups[group]
        files = [paths[sc["name"]] for sc in scs]
        argv = [kind, "--scenario"] + files
        if workload == "demo_batch":
            argv += ["--jobs", "2"]
        out = None
        if kind == "simulate":
            out = os.path.join(directory, "out")
            argv += ["--out", out]
        commands.append({"kind": kind, "argv": argv, "repeat": repeat,
                         "scenarios": scs, "paths": files, "out": out})
    return commands
