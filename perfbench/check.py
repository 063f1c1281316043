"""Correctness checks on a run's kept outputs, against references that
do not use the package's numerics.

- Synthesis: the report's P, K, d_m, d_M, lam_m, lam_M, lam1, alpha1
  to alpha4, c1, c2 and T_bar agree to the printed 6 digits with a
  ladder recomputed here from scipy's ``solve_continuous_are``,
  ``eigvalsh`` and 2-norms, at the scaling D the package chose; the
  report's D is the design's, and makes D H + H' D positive definite
  on every graph; the package's full-precision P and K agree with the
  scipy ones (REL_DESIGN); T_high <= T_bar for every scenario that is
  verified.
- Simulation: the error state at every sampling instant in the CSV
  matches a reference propagated interval by interval with one scipy
  ``expm`` of the Van Loan block per (mode, gap), to REL_STATE times
  the reference's max-norm plus ABS_CANCEL times the leader's. The
  second term covers late instants where the error has decayed far
  below the leader: the CSV stores follower and leader states, so their
  difference carries the leader's rounding, and rounding from earlier,
  larger states decays no faster than the state. The largest deviation
  seen on the workloads is about 4e-12 relative and 3e-13 of the
  leader. The mode column matches the switching signal and the leader
  matches e^(A t) x0.
- Enumerate: the admissible-graph count matches a transitive-closure
  count over every digraph on the followers, and the report's
  worst-case ladder matches the same recomputation over those graphs,
  each with its own scaling d = z / w.

The design gain K is the package's own full-precision one: it is the
input the simulation is checked under, and the report shows it only
to 6 digits.
"""

import functools
import math
import os

import numpy as np
import scipy.linalg

MU1 = MU2 = 1.0  # every generated scenario and model has mu1 = mu2 = 1
REL_DESIGN = 1e-8
REL_PRINTED = 1e-5
REL_STATE = 1e-9
ABS_CANCEL = 1e-11


def grounded_laplacian(N, edges):
    H = np.zeros((N, N))
    for j, i in edges:
        if i == 0:
            continue
        H[i - 1, i - 1] += 1.0
        if j >= 1:
            H[i - 1, j - 1] -= 1.0
    return H


def parse_reports(text):
    """Synthesis (``scenario``) and enumerate (``model``) reports by
    name: scalars and matrices."""
    reports, cur, mat = {}, None, None
    for line in text.splitlines():
        if line.startswith(("scenario ", "model ")):
            cur = reports.setdefault(line.split()[1], {})
            mat = None
        elif cur is None:
            continue
        elif line.startswith("  ") and mat is not None:
            cur[mat].append([float(v) for v in line.split()])
        elif line.endswith(":"):
            mat = line[:-1]
            cur[mat] = []
        elif line.startswith("D: "):
            cur["D"] = [float(v) for v in line.split()[1:]]
            mat = None
        else:
            key, _, val = line.partition(" ")
            cur[key] = val
            mat = None
    return reports


def _close(a, b, rel):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and \
        float(np.max(np.abs(a - b))) <= rel * max(float(np.max(np.abs(b))),
                                                  1e-300)


LADDER = ("d_m", "d_M", "lam_m", "lam_M", "lam1", "alpha1", "alpha2",
          "alpha3", "alpha4", "c1", "c2", "T_bar")


def ladder(A, B, pairs):
    """The gain and sampling-bound ladder from LAPACK: scipy's CARE
    solution P, ``eigvalsh`` and 2-norms. ``pairs`` lists each grounded
    Laplacian H with its scaling d: one common d for a synthesized
    design, each graph's own d for the worst case over graphs."""
    # P A + A' P - mu1 P B B' P + mu2 I = 0
    P = scipy.linalg.solve_continuous_are(A, B, MU2 * np.eye(A.shape[0]),
                                          np.eye(B.shape[1]) / MU1)
    norm = functools.partial(np.linalg.norm, ord=2)
    eigP = scipy.linalg.eigvalsh(P)
    r = {"P": P}
    r["d_m"] = min(float(np.min(d)) for _, d in pairs)
    r["d_M"] = max(float(np.max(d)) for _, d in pairs)
    r["lam_m"] = r["d_m"] * eigP[0]
    r["lam_M"] = r["d_M"] * eigP[-1]
    r["lam1"] = min(float(scipy.linalg.eigvalsh(
        np.diag(d) @ H + H.T @ np.diag(d))[0]) for H, d in pairs)
    r["alpha1"] = MU1 * r["d_M"] / r["lam1"]
    PBBP, BBP = P @ B @ B.T @ P, B @ B.T @ P
    r["alpha2"] = max(2.0 * r["alpha1"] * norm(np.diag(d) @ H) * norm(PBBP)
                      for H, d in pairs)
    r["alpha3"] = r["alpha2"] ** 2 / (2.0 * r["d_m"] * MU2)
    r["alpha4"] = max((norm(A) + r["alpha1"] * norm(H) * norm(BBP)) ** 2
                      / r["lam_m"] for H, _ in pairs)
    r["c1"] = r["d_m"] * MU2 / (2.0 * r["lam_M"])
    r["c2"] = r["alpha3"] * r["alpha4"]
    r["T_bar"] = math.sqrt(r["c1"] / r["c2"])
    r["K"] = r["alpha1"] * (B.T @ P)
    return r


def check_ladder(rep, ref):
    """Problems where a printed report disagrees with the reference
    ladder to the printed 6 digits."""
    if rep is None:
        return ["no report"]
    out = [f"reported {k} differs from the reference {k}"
           for k in ("P", "K") if k not in rep
           or not _close(rep[k], ref[k], REL_PRINTED)]
    for key in LADDER:
        val = float(rep.get(key, "nan"))
        if not math.isclose(val, ref[key], rel_tol=REL_PRINTED):
            out.append(f"reported {key} {val} differs from the reference "
                       f"{ref[key]:.6g}")
    return out


def design(path):
    """The package's full-precision design for a scenario file."""
    from leadersync.graph import build_H
    from leadersync.scenario import load_scenario
    from leadersync.synthesis import find_common_D, synthesize
    sc = load_scenario(path)
    gls = [build_H(t) for t in sc.topologies]
    d = sc.D if sc.D is not None else find_common_D(gls)
    return synthesize(sc.A, sc.B, sc.mu1, sc.mu2, d, gls)


def check_design(sc, rep, res, verified):
    """Problems with one scenario's synthesis report. ``res`` is the
    package's full-precision design, whose K the simulation check uses
    and whose D the reference ladder is evaluated at."""
    A, B = np.array(sc["A"]), np.array(sc["B"])
    d = np.asarray(res.D)
    ref = ladder(A, B, [(grounded_laplacian(sc["N"], e), d)
                        for e in sc["topologies"]])
    out = []
    if not _close(res.P, ref["P"], REL_DESIGN):
        out.append("P differs from the scipy CARE solution")
    if not _close(res.K, ref["K"], REL_DESIGN):
        out.append("K differs from alpha1 B' P")
    if not ref["lam1"] > 0.0:
        out.append(f"D does not make D H + H' D definite: lam1 "
                   f"{ref['lam1']}")
    out += check_ladder(rep, ref)
    if rep is not None:
        if "D" not in rep or not _close(rep["D"], d, REL_PRINTED):
            out.append("reported D differs from the design")
        T_bar = float(rep.get("T_bar", "nan"))
        if verified and not sc["T_high"] <= T_bar:
            out.append(f"T_high {sc['T_high']} exceeds T_bar {T_bar}")
    return out


def signal_mode(sc, t):
    """Right-continuous mode of a static or periodic switching signal."""
    if "period" not in sc:
        return 0
    tau = t - math.floor(t / sc["period"]) * sc["period"]
    acc = 0.0
    for mode, dur in sc["phases"]:
        acc += dur
        if tau < acc:
            return mode
    return sc["phases"][-1][0]


def check_trajectory(sc, K, traj_path, sched_path):
    """Problems with one simulated run's CSV files."""
    A, B = np.array(sc["A"]), np.array(sc["B"])
    n, N, h = A.shape[0], sc["N"], sc["grid_h"]
    d = N * n
    data = np.loadtxt(traj_path, delimiter=",", skiprows=1, ndmin=2)
    sched = np.loadtxt(sched_path, delimiter=",", skiprows=1, ndmin=2)
    times, lead = data[:, 0], data[:, 1:1 + n]
    err = data[:, 1 + n:1 + n + d] - np.tile(lead, N)
    row = {float(t): k for k, t in enumerate(times)}
    hor = int(round(sc["horizon"] / h))
    out = []

    instants = sched[:, 1]
    ticks = np.rint(instants / h).astype(np.int64)
    if ticks[0] != 0 or np.any(np.diff(ticks) <= 0) or ticks[-1] >= hor:
        return ["schedule instants do not tile the horizon"]
    ends = np.append(ticks[1:], hor)
    gaps = np.rint(sched[:, 2] / h).astype(np.int64)
    if np.any(gaps < int(round(sc["T_low"] / h))) or \
            np.any(gaps > int(round(sc["T_high"] / h))) or \
            np.any(ticks[1:] != ticks[:-1] + gaps[:-1]):
        out.append("schedule gaps leave [T_low, T_high]")
    modes = [signal_mode(sc, float(t)) for t in instants]
    if list(sched[:, 3].astype(int)) != modes:
        out.append("schedule modes disagree with the switching signal")

    Hs = [grounded_laplacian(N, e) for e in sc["topologies"]]
    BK = B @ K
    cache = {}

    def transition(p, L):
        if (p, L) not in cache:
            M = np.zeros((2 * d, 2 * d))
            M[:d, :d] = np.kron(np.eye(N), A)
            M[:d, d:] = -np.kron(Hs[p], BK)
            E = scipy.linalg.expm(M * (L * h))
            cache[(p, L)] = E[:d, :d] + E[:d, d:]
        return cache[(p, L)]

    e = (np.array(sc["xf"], dtype=float)
         - np.array(sc["x0"], dtype=float)).reshape(-1)
    worst = 0.0
    checkpoints = list(instants) + [hor * h]
    for s, t in enumerate(checkpoints):
        k = row.get(float(t))
        if k is None:
            return out + [f"no trajectory row at sampling instant {t}"]
        gap = float(np.max(np.abs(err[k] - e)))
        scale = REL_STATE * float(np.max(np.abs(e))) \
            + ABS_CANCEL * float(np.max(np.abs(lead[k])))
        worst = max(worst, gap / scale)
        if s < len(instants):
            e = transition(modes[s], int(ends[s] - ticks[s])) @ e
    if worst > 1.0:
        out.append(f"error state off the reference by {worst:.3g}x the "
                   f"tolerance")

    x0 = np.array(sc["x0"], dtype=float)
    for k in np.linspace(0, len(times) - 1, 50).astype(int):
        ref = scipy.linalg.expm(A * times[k]) @ x0
        if not _close(lead[k], ref, 1e-9):
            out.append(f"leader state off e^(A t) x0 at t = {times[k]}")
            break
    return out


@functools.lru_cache(maxsize=None)
def admissible(N):
    """Digraphs on a leader and N followers with every follower
    reachable from the leader, by transitive closure: their count, and
    their distinct grounded Laplacians, each with its scaling
    d = z / w (w = H^-1 1, z = H^-T 1, max d = 1)."""
    pairs = [(j, i) for j in range(N + 1) for i in range(N + 1) if j != i]
    count, distinct = 0, {}
    ones = np.ones(N)
    for bits in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if (bits >> k) & 1]
        R = np.eye(N + 1, dtype=bool)
        for j, i in edges:
            R[j, i] = True
        for _ in range(N):
            R = R | ((R.astype(int) @ R.astype(int)) > 0)
        if not R[0].all():
            continue
        count += 1
        H = grounded_laplacian(N, edges)
        if H.tobytes() not in distinct:
            d = np.linalg.solve(H.T, ones) / np.linalg.solve(H, ones)
            distinct[H.tobytes()] = (H, d / np.max(d))
    return count, list(distinct.values())


def check_enumerate(sc, N, text):
    """Problems with an enumerate report: the admissible-graph count
    and the worst-case ladder over those graphs."""
    count, pairs = admissible(N)
    out = []
    line = next((l for l in text.splitlines()
                 if l.startswith("admissible graphs ")), "")
    if line != f"admissible graphs {count}":
        out.append(f"'{line}' disagrees with the closure count {count}")
    ref = ladder(np.array(sc["A"]), np.array(sc["B"]), pairs)
    return out + check_ladder(parse_reports(text).get(sc["name"]), ref)


def check_run(commands, first_stdout, keep):
    """Map command index -> problems found in its first repetition."""
    verified = {sc["name"] for c in commands if c["kind"] == "verify"
                for sc in c["scenarios"]}
    designs = {}

    def design_of(c, sc):
        if sc["name"] not in designs:
            path = c["paths"][c["scenarios"].index(sc)]
            designs[sc["name"]] = design(path)
        return designs[sc["name"]]

    def problems_of(i, c):
        text = first_stdout[i]
        probs = []
        if c["kind"] == "synthesize":
            reps = parse_reports(text)
            for sc in c["scenarios"]:
                for p in check_design(sc, reps.get(sc["name"]),
                                      design_of(c, sc),
                                      sc["name"] in verified):
                    probs.append(f"{sc['name']}: {p}")
            for name in verified - {sc["name"] for sc in c["scenarios"]}:
                probs.append(f"{name}: verified but not synthesized")
        elif c["kind"] == "simulate":
            multi = len(c["scenarios"]) > 1
            for sc in c["scenarios"]:
                base = os.path.join(keep, f"cmd{i}",
                                    sc["name"] if multi else "")
                traj = os.path.join(base, f"{sc['name']}_trajectory.csv")
                sched = os.path.join(base, f"{sc['name']}_schedule.csv")
                if not (os.path.exists(traj) and os.path.exists(sched)):
                    probs.append(f"{sc['name']}: CSV files missing")
                    continue
                K = design_of(c, sc).K
                for p in check_trajectory(sc, K, traj, sched):
                    probs.append(f"{sc['name']}: {p}")
        elif c["kind"] == "enumerate":
            N = int(c["argv"][c["argv"].index("--followers") + 1])
            probs += [f"enumerate: {p}" for p in
                      check_enumerate(c["scenarios"][0], N, text)]
        return probs

    found = {}
    for i, c in enumerate(commands):
        try:
            probs = problems_of(i, c)
        except Exception as e:  # malformed output or a failing design
            probs = [f"check raised {type(e).__name__}: {e}"]
        if probs:
            found[i] = probs
    return found
