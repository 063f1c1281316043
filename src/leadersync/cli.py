"""Command-line front end.

Subcommands: synthesize, simulate, verify, enumerate. Exit codes are
a total function of the outcome class: 0 success, 1 monitored
property violated, 2 design assumption failed, 3 scenario parse or
configuration error, 4 I/O error.
"""

import argparse
from dataclasses import dataclass, field
import errno
import functools
import os
import sys

import numpy as np

from .errors import (CommonDNotFound, EnumerationTooLarge, InvalidSchedule,
                     InvalidTime, LeaderSyncError, NotStabilizable,
                     ScenarioError, UnreachableGraph)
from .graph import admissible_laplacians, build_H, leader_reachable
from .scenario import Scenario, load_model, load_scenario, read_number
from .sim import (check_run_memory, check_seed, gen_schedule, lyapunov_trace,
                  simulate, write_schedule_csv, write_trajectory_csv)
from .synthesis import (SynthesisResult, _agent_key, find_common_D,
                        synthesize, worst_case_params)

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


@dataclass
class _Batch:
    """What the scenarios of one CLI invocation share: each distinct
    design, computed once; the terms of each distinct agent model
    (A, B, mu1, mu2), its Riccati solution among them, computed once
    for every design over it (see synthesis._agent_terms); and the
    normalized paths it has written."""

    designs: dict = field(default_factory=dict)
    agents: dict = field(default_factory=dict)
    written: set = field(default_factory=set)

    def claim(self, out_dir, *names):
        """The paths of names in out_dir (the working directory when
        None), refused when two of them coincide or the batch already
        wrote one, and, as the OSError that making out_dir would
        raise, when out_dir or a directory on its way is a file."""
        paths = [os.path.join(out_dir or "", n) for n in names]
        real = [os.path.realpath(p) for p in paths]
        for i, (p, r) in enumerate(zip(paths, real)):
            if r in self.written:
                raise ValueError(f"{p} was already written by an earlier "
                                 f"scenario of this batch")
            if r in real[:i]:
                raise ValueError(f"the trajectory and the schedule would "
                                 f"both be written to {p}")
        if out_dir:
            _check_makeable(out_dir)
        return paths

    def write(self, out_dir, *files):
        """Each claimed file, given as (writer, path, *args), written by
        writer(path, *args), making out_dir first if needed."""
        self.written.update(os.path.realpath(path)
                            for _, path, *_ in files)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        for writer, path, *args in files:
            writer(path, *args)


def _check_makeable(name):
    """Raise, without making anything, the error that
    os.makedirs(name, exist_ok=True) raises when name is a file or a
    dangling link (FileExistsError), lies under a file
    (NotADirectoryError) or under a dangling link (FileNotFoundError),
    naming the first directory it cannot make. It walks name as
    makedirs does."""
    head, tail = os.path.split(name)
    if not tail:
        head, tail = os.path.split(head)
    target = os.path.join(head, tail)
    if head and tail and not os.path.exists(head):
        if os.path.lexists(head):  # a dangling link: mkdir finds no parent
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                    name)
        _check_makeable(head)
    elif os.path.lexists(target) and not os.path.isdir(target):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), name)
    elif head and not os.path.isdir(head):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                 name)


def _write_text(path, text):
    with open(path, "w", newline="\n") as f:
        f.write(text)


def _synthesize_for(sc: Scenario, Hs, batch: _Batch) -> SynthesisResult:
    """Full design for a scenario with the (G, N, N) stack Hs of its
    grounded Laplacians, checking reachability first so a disconnected
    graph is reported as the failed assumption rather than as a
    missing scaling.

    batch.designs maps the key of everything the design reads to its
    result; a design found there is returned as it is, and one that
    raises is not stored. H fixes the edge set, so reachability needs
    no key of its own; the modes stay in order, since find_common_D
    tries their candidates in that order. A new design reads and
    fills batch.agents."""
    key = _agent_key(sc.A, sc.B, sc.mu1, sc.mu2) + (
        None if sc.D is None else sc.D.tobytes(), Hs.shape, Hs.tobytes())
    designs = batch.designs
    if key in designs:
        return designs[key]
    for p, t in enumerate(sc.topologies):
        if not leader_reachable(t):
            raise UnreachableGraph(
                f"graph mode {p}: some follower has no directed path "
                f"from the leader")
    d = sc.D if sc.D is not None else find_common_D(Hs)
    designs[key] = synthesize(sc.A, sc.B, sc.mu1, sc.mu2, d, Hs,
                              agents=batch.agents)
    return designs[key]


def _laplacians(sc: Scenario) -> np.ndarray:
    """The (G, N, N) stack of a scenario's grounded Laplacians."""
    return np.array([build_H(t) for t in sc.topologies])


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


def cmd_synthesize(batch: _Batch, path, out_dir=None):
    sc = load_scenario(path)
    if out_dir:
        [report] = batch.claim(out_dir, f"{sc.name}_synthesis.txt")
    res = _synthesize_for(sc, _laplacians(sc), batch)
    lines = [f"scenario {sc.name}", f"modes {len(sc.topologies)}"]
    lines += _design_lines(res)
    lines.append(f"care_residual {_g(res.care_residual)}")
    text = "\n".join(lines) + "\n"
    if out_dir:
        batch.write(out_dir, (_write_text, report, text))
    return EXIT_OK, text, ""


def _float_range_warning(result, *per_row) -> list:
    """One warning line when the leader state or a per-row array (the
    error norms, V; None is skipped) of a run stops being finite,
    naming the first output time at which it does. The squares in the
    norms and in V overflow once the state passes about 1e154. Only an
    array with a value that is not finite is scanned row by row."""
    bad = np.zeros(result.times.shape[0], dtype=bool)
    for a in (result.leader, *per_row):
        if a is not None and not np.isfinite(a).all():
            bad |= ~np.isfinite(a.reshape(a.shape[0], -1)).all(axis=1)
    if not bad.any():
        return []
    t = result.times[int(np.argmax(bad))]
    return [f"warning: the state left the float range at t = {_g(t)}"]


def cmd_run(batch: _Batch, path, out_dir=None, seed_override=None,
            verify=False):
    """simulate, or with verify the certificate check, of one scenario.

    The steps, in order: claim the CSV paths (verify writes only with
    out_dir), refuse a seed override outside the unsigned 64-bit range
    and a run over the memory budget, design, draw the schedule,
    simulate, trace the certificate and write the CSVs. A scenario
    that fixes K is simulated with it, and its design serves only the
    certificate and the T_bar warning: simulate then runs it even when
    the design fails, without V. Only the summary lines differ between
    the two commands."""
    sc = load_scenario(path)
    writes = out_dir or not verify
    if writes:
        traj, sched = batch.claim(
            out_dir, sc.out_traj or f"{sc.name}_trajectory.csv",
            sc.out_sched or f"{sc.name}_schedule.csv")
    seed = sc.seed if seed_override is None else check_seed(seed_override)
    check_run_memory(len(sc.topologies), sc.topologies[0].N, sc.A.shape[0],
                     sc.T_low, sc.horizon, sc.grid_h, sc.output_dt)
    Hs = _laplacians(sc)
    warn = []
    try:
        synth = _synthesize_for(sc, Hs, batch)
    except LeaderSyncError:
        # the certificate needs D and P: only simulate with a fixed K
        # runs without a design
        if verify or sc.K is None:
            raise
        synth = None
    else:
        if sc.T_high > synth.T_bar:
            warn.append(f"warning: over-bound sampling: T_high = "
                        f"{_g(sc.T_high)} exceeds T_bar = {_g(synth.T_bar)}; "
                        f"decay is not guaranteed")
    schedule = gen_schedule(sc.T_low, sc.T_high, sc.grid_h, sc.horizon, seed)
    result = simulate(sc.A, sc.B, Hs, sc.signal,
                      synth.K if sc.K is None else sc.K, schedule,
                      sc.x0_leader, sc.x0_followers, sc.output_dt)
    rep = None if synth is None else lyapunov_trace(result, synth)
    V = None if rep is None else rep.V
    if writes:
        batch.write(out_dir, (write_trajectory_csv, traj, result, V),
                    (write_schedule_csv, sched, result))

    lines = [f"scenario {sc.name}"]
    if verify:
        warn += _float_range_warning(result, V)
        bound = "feasible" if rep.bound_feasible else "infeasible"
        lines += [f"intervals checked {result.n_complete}",
                  f"interval-max violations {rep.interval_violations} "
                  f"(worst slack {_g(rep.worst_interval_slack)})",
                  f"worst ratio {_g(rep.worst_ratio)}",
                  f"rho {_g(rep.rho)} (threshold {_g(rep.rho_threshold)}, "
                  f"bound {bound})"]
        if rep.passed:
            lines.append("verdict PASS")
        elif not rep.ratios_ok:
            lines.append(f"verdict FAIL: interval {rep.worst_interval} ratio "
                         f"{_g(rep.worst_ratio)} exceeds threshold "
                         f"{_g(rep.rho_threshold)}")
        else:
            lines.append(f"verdict FAIL: {rep.interval_violations} "
                         f"interval-max violations, worst slack "
                         f"{_g(rep.worst_interval_slack)}")
        code = EXIT_OK if rep.passed else EXIT_VIOLATION
    else:
        norms = result.error_norms
        warn += _float_range_warning(result, norms, V)
        burn = 0.5 * sc.horizon
        late = norms[result.times >= burn]
        lines += [f"intervals {result.modes.shape[0]} "
                  f"(complete {result.n_complete})",
                  f"wrote {traj}", f"wrote {sched}",
                  "final error norms: " + " ".join(_g(v) for v in norms[-1]),
                  f"max error norm (t >= {_g(burn)}): "
                  f"{_g(float(np.max(late)))}"]
        code = EXIT_OK
    text = "\n".join(lines) + "\n"
    return code, text, "".join(w + "\n" for w in warn)


def cmd_enumerate(model_path, followers, mu1=None, mu2=None):
    ms = load_model(model_path)
    m1 = ms.mu1 if mu1 is None else mu1
    m2 = ms.mu2 if mu2 is None else mu2
    count, Hs = admissible_laplacians(followers)
    res = worst_case_params(ms.A, ms.B, m1, m2, followers, Hs=Hs)
    lines = [f"model {ms.name}",
             f"followers {followers}",
             f"admissible graphs {count}"]
    lines += _design_lines(res)
    return EXIT_OK, "\n".join(lines) + "\n", ""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_PARSE, not
    argparse's 2, which here means a failed design assumption. Its
    subparsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _option_number(kind, tok):
    """argparse type for a numeric option: kind(tok), or a usage error
    that shows at most the first 40 characters of the token."""
    try:
        return read_number(kind, tok)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it
    as it is, and help reads the terminal width when it is printed."""
    int_opt = functools.partial(_option_number, int)
    float_opt = functools.partial(_option_number, float)

    ap = _Parser(
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
            p.add_argument("--seed", type=int_opt, default=None,
                           help="override the scenario seed")
        p.add_argument("--jobs", type=int_opt, default=1,
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
    pe.add_argument("--followers", type=int_opt, required=True)
    pe.add_argument("--mu1", type=float_opt, default=None)
    pe.add_argument("--mu2", type=float_opt, default=None)
    return ap


def main(argv=None) -> int:
    """Run one command: the one enumerate call, or one call per
    scenario of a batch, in order. With --out, each scenario of a
    batch writes into a subdirectory named after its file. The
    scenario calls share one _Batch. The exit code is the worst of
    the calls."""
    args = _build_parser().parse_args(argv)
    if args.command == "enumerate":
        calls = [functools.partial(cmd_enumerate, args.model, args.followers,
                                   args.mu1, args.mu2)]
    else:
        batch = _Batch()
        calls = []
        for path in args.scenario:
            out = args.out
            if out and len(args.scenario) > 1:
                stem = os.path.splitext(os.path.basename(path))[0]
                out = os.path.join(out, stem)
            calls.append(
                functools.partial(cmd_synthesize, batch, path, out)
                if args.command == "synthesize" else
                functools.partial(cmd_run, batch, path, out, args.seed,
                                  args.command == "verify"))
    worst = EXIT_OK
    for call in calls:
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
