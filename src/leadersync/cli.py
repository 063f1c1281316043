"""Command-line front end.

Subcommands: synthesize, simulate, verify, enumerate. Exit codes are
a total function of the outcome class: 0 success, 1 monitored
property violated, 2 design assumption failed, 3 scenario parse or
configuration error, 4 I/O error.
"""

import argparse
import functools
import os
import sys

import numpy as np

from .errors import (CommonDNotFound, EnumerationTooLarge, InvalidSchedule,
                     InvalidTime, LeaderSyncError, NotStabilizable,
                     ScenarioError, UnreachableGraph)
from .graph import admissible_laplacians, build_H, leader_reachable
from .scenario import Scenario, check_seed, load_model, load_scenario
from .sim import (SystemModel, check_run_memory, gen_schedule,
                  lyapunov_trace, simulate, write_schedule_csv,
                  write_trajectory_csv)
from .synthesis import (SynthesisResult, find_common_D, synthesize,
                        worst_case_params)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ASSUMPTION = 2
EXIT_PARSE = 3
EXIT_IO = 4

ASSUMPTION_TEXT = {
    1: "Assumption 1 (stabilizable agent pair)",
    2: "Assumption 2 (every follower reachable from the leader)",
    3: "Assumption 3 (a common diagonal scaling exists)",
}


def _g(x) -> str:
    return "%.6g" % float(x)


def _matrix_lines(name, M) -> list:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    out = [f"{name}:"]
    for row in M:
        out.append("  " + " ".join(_g(v) for v in row))
    return out


def _map_exception(e: BaseException):
    """Outcome class and message for a failed command."""
    if isinstance(e, ScenarioError):
        return EXIT_PARSE, f"scenario error: {e}"
    if isinstance(e, (InvalidSchedule, InvalidTime, ValueError)):
        return EXIT_PARSE, f"configuration error: {e}"
    if isinstance(e, (NotStabilizable, UnreachableGraph, CommonDNotFound)):
        name = ASSUMPTION_TEXT[e.assumption]
        return EXIT_ASSUMPTION, f"assumption failure: {name}: {e}"
    if isinstance(e, EnumerationTooLarge):
        return EXIT_ASSUMPTION, f"enumeration refused: {e}"
    if isinstance(e, LeaderSyncError):
        return EXIT_ASSUMPTION, f"numerical failure: {e}"
    if isinstance(e, OSError):
        return EXIT_IO, f"i/o error: {e}"
    raise e


def _synthesize_for(sc: Scenario) -> SynthesisResult:
    """Full design for a scenario, checking reachability first so a
    disconnected graph is reported as the failed assumption rather
    than as a missing scaling."""
    for p, t in enumerate(sc.topologies):
        if not leader_reachable(t):
            raise UnreachableGraph(
                f"graph mode {p}: some follower has no directed path "
                f"from the leader")
    Hs = [build_H(t) for t in sc.topologies]
    d = sc.D if sc.D is not None else find_common_D(Hs)
    return synthesize(sc.A, sc.B, sc.mu1, sc.mu2, d, Hs)


def _design_lines(res: SynthesisResult) -> list:
    """P, D (when the design has one), K and the ladder up to T_bar."""
    lines = _matrix_lines("P", res.P)
    if res.D is not None:
        lines.append("D: " + " ".join(_g(v) for v in res.D))
    lines += _matrix_lines("K", res.K)
    for key in ("d_m", "d_M", "lam_m", "lam_M", "lam1", "alpha1", "alpha2",
                "alpha3", "alpha4", "c1", "c2"):
        lines.append(f"{key} {_g(getattr(res, key))}")
    lines.append(f"T_bar {_g(res.T_bar)}")
    return lines


def _synthesis_report(sc_name, modes, res: SynthesisResult) -> list:
    lines = [f"scenario {sc_name}", f"modes {modes}"]
    lines += _design_lines(res)
    lines.append(f"care_residual {_g(res.care_residual)}")
    return lines


def _out_paths(sc: Scenario, out_dir):
    traj = sc.out_traj or f"{sc.name}_trajectory.csv"
    sched = sc.out_sched or f"{sc.name}_schedule.csv"
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        traj = os.path.join(out_dir, traj)
        sched = os.path.join(out_dir, sched)
    return traj, sched


def cmd_synthesize(path, out_dir=None):
    sc = load_scenario(path)
    res = _synthesize_for(sc)
    lines = _synthesis_report(sc.name, len(sc.topologies), res)
    text = "\n".join(lines) + "\n"
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{sc.name}_synthesis.txt"), "w",
                  newline="\n") as f:
            f.write(text)
    return EXIT_OK, text, ""


def _run_scenario(sc: Scenario, seed_override, need_synthesis: bool):
    """Design, schedule and simulated run for a scenario.

    A scenario that fixes K is simulated with it; its design is then
    computed only for the certificate and the T_bar warning, and a
    design failure is fatal only when need_synthesis is set. A seed
    override outside the unsigned 64-bit range is refused first.
    Returns (synthesis or None, simulation result, warning lines)."""
    seed = sc.seed if seed_override is None else check_seed(seed_override)
    warn = []
    if sc.K is None or need_synthesis:
        synth = _synthesize_for(sc)
    else:
        try:
            synth = _synthesize_for(sc)
        except LeaderSyncError:
            synth = None
    K = synth.K if sc.K is None else sc.K
    if synth is not None and sc.T_high > synth.T_bar:
        warn.append(f"warning: over-bound sampling: T_high = {_g(sc.T_high)} "
                    f"exceeds T_bar = {_g(synth.T_bar)}; decay is not "
                    f"guaranteed")
    check_run_memory(len(sc.topologies), sc.topologies[0].N, sc.A.shape[0],
                     sc.T_low, sc.horizon, sc.grid_h, sc.output_dt)
    schedule = gen_schedule(sc.T_low, sc.T_high, sc.grid_h, sc.horizon, seed)
    result = simulate(SystemModel(sc.A, sc.B), sc.topologies, sc.signal, K,
                      schedule, sc.x0_leader, sc.x0_followers, sc.output_dt)
    return synth, result, warn


def _float_range_warning(result, *per_row) -> list:
    """One warning line when the leader state or a per-row array (the
    error norms, V; None is skipped) of a run stops being finite,
    naming the first output time at which it does. The squares in the
    norms and in V overflow once the state passes about 1e154."""
    bad = ~np.isfinite(result.leader).all(axis=1)
    for a in per_row:
        if a is not None:
            bad |= ~np.isfinite(a.reshape(a.shape[0], -1)).all(axis=1)
    if not bad.any():
        return []
    t = result.times[int(np.argmax(bad))]
    return [f"warning: the state left the float range at t = {_g(t)}"]


def cmd_simulate(path, out_dir=None, seed_override=None):
    sc = load_scenario(path)
    synth, result, warn = _run_scenario(sc, seed_override, need_synthesis=False)
    lines = [f"scenario {sc.name}"]

    V = None
    if synth is not None:
        V = lyapunov_trace(result, synth).V
    traj, sched = _out_paths(sc, out_dir)
    write_trajectory_csv(traj, result, V)
    write_schedule_csv(sched, result)

    norms = result.error_norms
    warn += _float_range_warning(result, norms, V)
    burn = 0.5 * sc.horizon
    late = norms[result.times >= burn]
    lines.append(f"intervals {result.modes.shape[0]} "
                 f"(complete {result.n_complete})")
    lines.append(f"wrote {traj}")
    lines.append(f"wrote {sched}")
    lines.append("final error norms: "
                 + " ".join(_g(v) for v in norms[-1]))
    lines.append(f"max error norm (t >= {_g(burn)}): "
                 f"{_g(float(np.max(late)))}")
    text = "\n".join(lines) + "\n"
    return EXIT_OK, text, "".join(w + "\n" for w in warn)


def cmd_verify(path, out_dir=None, seed_override=None):
    sc = load_scenario(path)
    # the certificate needs D and P, so a failed design is fatal here
    synth, result, warn = _run_scenario(sc, seed_override, need_synthesis=True)
    rep = lyapunov_trace(result, synth)
    warn += _float_range_warning(result, rep.V)

    if out_dir:
        traj, sched = _out_paths(sc, out_dir)
        write_trajectory_csv(traj, result, rep.V)
        write_schedule_csv(sched, result)

    lines = [f"scenario {sc.name}",
             f"intervals checked {result.n_complete}",
             f"interval-max violations {rep.interval_violations} "
             f"(worst slack {_g(rep.worst_interval_slack)})",
             f"worst ratio {_g(rep.worst_ratio)}",
             f"rho {_g(rep.rho)} (threshold {_g(rep.rho_threshold)}, "
             f"bound {'feasible' if rep.bound_feasible else 'infeasible'})"]
    if rep.passed:
        lines.append("verdict PASS")
        code = EXIT_OK
    else:
        finite = np.where(np.isfinite(rep.ratios))[0]
        if finite.size and not rep.ratios_ok:
            worst_s = int(finite[np.argmax(rep.ratios[finite])])
            lines.append(f"verdict FAIL: interval {worst_s} ratio "
                         f"{_g(rep.ratios[worst_s])} exceeds threshold "
                         f"{_g(rep.rho_threshold)}")
        else:
            lines.append(f"verdict FAIL: {rep.interval_violations} "
                         f"interval-max violations, worst slack "
                         f"{_g(rep.worst_interval_slack)}")
        code = EXIT_VIOLATION
    text = "\n".join(lines) + "\n"
    return code, text, "".join(w + "\n" for w in warn)


def cmd_enumerate(model_path, followers, mu1=None, mu2=None):
    ms = load_model(model_path)
    m1 = ms.mu1 if mu1 is None else mu1
    m2 = ms.mu2 if mu2 is None else mu2
    count, _ = admissible_laplacians(followers)
    res = worst_case_params(ms.A, ms.B, m1, m2, followers)
    lines = [f"model {ms.name}",
             f"followers {followers}",
             f"admissible graphs {count}"]
    lines += _design_lines(res)
    return EXIT_OK, "\n".join(lines) + "\n", ""


def _commands(args) -> list:
    """One call per scenario of a batch, in order, or the one
    enumerate call. With --out, each scenario of a batch writes into
    a subdirectory named after its file."""
    if args.command == "enumerate":
        return [functools.partial(cmd_enumerate, args.model, args.followers,
                                  args.mu1, args.mu2)]
    calls = []
    for path in args.scenario:
        out = args.out
        if out and len(args.scenario) > 1:
            stem = os.path.splitext(os.path.basename(path))[0]
            out = os.path.join(out, stem)
        if args.command == "synthesize":
            calls.append(functools.partial(cmd_synthesize, path, out))
        else:
            cmd = cmd_simulate if args.command == "simulate" else cmd_verify
            calls.append(functools.partial(cmd, path, out, args.seed))
    return calls


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="leadersync",
        description="Sampled-data leader-following consensus: gain and "
                    "sampling-bound synthesis, exact simulation, and "
                    "runtime decay verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_scenario_opts(p, seed=True):
        p.add_argument("--scenario", nargs="+", required=True,
                       help="scenario file(s)")
        p.add_argument("--out", default=None, help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the scenario seed")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; scenarios always "
                            "run one after another")

    add_scenario_opts(sub.add_parser(
        "synthesize", help="compute the gain and sampling bound"), seed=False)
    add_scenario_opts(sub.add_parser(
        "simulate", help="integrate the closed loop and write CSV"))
    add_scenario_opts(sub.add_parser(
        "verify", help="simulate and check the quadratic decay"))

    pe = sub.add_parser(
        "enumerate", help="graph-independent worst-case design")
    pe.add_argument("--model", required=True,
                    help="scenario or model file supplying A, B, mu1, mu2")
    pe.add_argument("--followers", type=int, required=True)
    pe.add_argument("--mu1", type=float, default=None)
    pe.add_argument("--mu2", type=float, default=None)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    worst = EXIT_OK
    for call in _commands(args):
        try:
            code, out_text, err_text = call()
        except Exception as e:
            code, msg = _map_exception(e)
            out_text, err_text = "", msg + "\n"
        sys.stdout.write(out_text)
        sys.stderr.write(err_text)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
