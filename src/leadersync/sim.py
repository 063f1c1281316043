"""Closed-loop sampled-data simulation with exact per-interval
integration, plus runtime monitoring of the quadratic decay the
synthesized bound promises.

All trajectories live on a uniform time grid of pitch grid_h. Sampling
instants, the horizon, and the output pitch must all be whole numbers
of grid steps, so every time in the result is an exact grid multiple
and repeated runs are bit-identical.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import IncompleteTrace, InvalidSchedule
from .graph import SwitchingSignal, build_H, signal_mode
from .numerics import config
from .numerics.linalg import _as_matrix, _square, expm, kron
from .synthesis import SynthesisResult, _rho

MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator with a fixed, documented update.

    State advance adds 0x9E3779B97F4A7C15; output mixing is
    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31, all modulo 2^64.
    Pure integer arithmetic, so identical seeds give identical streams
    on every platform and in every language that pins these constants.
    """

    GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self._state = int(seed) & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + self.GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return (z ^ (z >> 31)) & MASK64

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] by modular reduction."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Shared agent dynamics: followers x' = A x + B u, leader x' = A x."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        a = _square(self.A, "A")
        b = _as_matrix(self.B, "B")
        if b.shape[0] != a.shape[0]:
            raise ValueError(
                f"B must have {a.shape[0]} rows, got {b.shape[0]}")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True, eq=False)
class SamplingSchedule:
    """Strictly increasing sampling instants on the grid lattice.

    instants[0] is 0.0 and the final instant is at or beyond the
    horizon, so the instants tile [0, horizon]. Gaps lie in
    [T_low, T_high] and every instant is a whole number of grid steps.
    """

    instants: np.ndarray
    T_low: float
    T_high: float
    grid_h: float
    seed: int
    horizon: float

    def __post_init__(self):
        a = np.array(self.instants, dtype=float)
        a.flags.writeable = False
        object.__setattr__(self, "instants", a)


def _grid_ticks(value, grid_h: float, what: str):
    """Snap a time, or an array of times, to its grid step count,
    rejecting off-grid values."""
    v = np.asarray(value, dtype=float)
    # a ratio beyond the float range is off the grid, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.rint(v / grid_h)
        on_grid = np.abs(k * grid_h - v) <= \
            config.GRID_DIV_TOL * np.maximum(1.0, np.abs(v))
    if not np.all(on_grid):
        raise InvalidSchedule(
            f"{what} = {float(v[~on_grid].flat[0])} is not a whole number "
            f"of grid steps (grid_h = {grid_h})")
    return int(k) if k.ndim == 0 else k.astype(np.int64)


def _check_memory(modes: int, L: int, d: int, n: int, Nm: int, n_open: int,
                  n_rows: int) -> None:
    """Refuse a run whose transition tables (modes x (L + 1) blocks of
    d x d, plus L + 1 leader blocks of n x n) and output arrays would
    together exceed config.SIM_MEMORY_BUDGET bytes."""
    table = 8 * (L + 1) * (modes * d * d + n * n)
    outputs = 8 * (n_rows * (4 + n + 2 * d) + n_open * Nm
                   + (n_open + 1) * (d + n))
    budget = config.SIM_MEMORY_BUDGET
    if table + outputs > budget:
        mib = 1 << 20
        raise InvalidSchedule(
            f"simulation needs {(table + outputs) / mib:.1f} MiB "
            f"({table / mib:.1f} MiB of transition tables for {modes} "
            f"mode(s) x {L + 1} steps of {d}x{d} blocks, "
            f"{outputs / mib:.1f} MiB for {n_rows} output rows), above "
            f"the budget of {budget / mib:.0f} MiB; shorten the longest "
            f"sampling gap or the horizon, or raise grid_h or output_dt")


def _output_grid(horizon: float, grid_h: float, output_dt: float | None):
    """Horizon and output pitch (default grid_h) in grid steps, and the
    number of output rows at the pitch multiples and the horizon."""
    hor = _grid_ticks(horizon, grid_h, "horizon")
    out_dt = grid_h if output_dt is None else float(output_dt)
    if not out_dt > 0.0:
        raise InvalidSchedule(f"output_dt must be positive, got {out_dt}")
    stride = _grid_ticks(out_dt, grid_h, "output_dt")
    if stride < 1:
        raise InvalidSchedule(f"output_dt = {out_dt} is below the grid pitch")
    return hor, stride, hor // stride + 1 + int(hor % stride != 0)


# bytes gen_schedule holds per instant while it builds the schedule: a
# list slot and a Python int per tick, then the float64 array and the
# scaled copy it is multiplied into
_SCHEDULE_BYTES_PER_INSTANT = 64


def _check_schedule_memory(T_low: float, horizon: float) -> None:
    """Refuse a horizon that could need more sampling instants than
    config.SIM_MEMORY_BUDGET bytes hold."""
    # at most ceil(horizon / T_low) + 2 instants; bounded in floats so
    # that an infinite horizon or an overflowing ratio is refused too
    most = horizon / T_low + 3.0
    need = most * _SCHEDULE_BYTES_PER_INSTANT
    if not need <= config.SIM_MEMORY_BUDGET:
        mib = 1 << 20
        raise InvalidSchedule(
            f"schedule may need {most:.0f} sampling instants "
            f"({need / mib:.1f} MiB), above the budget of "
            f"{config.SIM_MEMORY_BUDGET / mib:.0f} MiB; shorten the "
            f"horizon or raise T_low")


def check_run_memory(modes: int, N: int, n: int, m: int, T_low: float,
                     horizon: float, grid_h: float,
                     output_dt: float | None = None) -> None:
    """The memory checks of gen_schedule and simulate that need no
    schedule: the instants the horizon may need, then the output rows
    at the output_dt multiples and the horizon with the tables of a
    one-step run. Raises InvalidSchedule when either exceeds
    config.SIM_MEMORY_BUDGET, so a run that gen_schedule or simulate
    would refuse is refused before its schedule is drawn."""
    _check_schedule_memory(T_low, horizon)
    rows = _output_grid(horizon, grid_h, output_dt)[2]
    _check_memory(modes, 0, N * n, n, N * m, 0, rows)


def gen_schedule(T_low: float, T_high: float, grid_h: float, horizon: float,
                 seed: int) -> SamplingSchedule:
    """Draw a deterministic aperiodic schedule covering the horizon.

    Each gap is l * grid_h with l drawn uniformly from
    {T_low/grid_h, ..., T_high/grid_h} by SplitMix64(seed). The same
    arguments always reproduce the same instants bit for bit. A horizon
    that could need more instants than config.SIM_MEMORY_BUDGET bytes
    hold raises InvalidSchedule before any is drawn.
    """
    if not grid_h > 0.0:
        raise InvalidSchedule(f"grid_h must be positive, got {grid_h}")
    if not T_low > 0.0:
        raise InvalidSchedule(f"T_low must be positive, got {T_low}")
    if T_low > T_high:
        raise InvalidSchedule(
            f"T_low = {T_low} exceeds T_high = {T_high}")
    if not horizon > 0.0:
        raise InvalidSchedule(f"horizon must be positive, got {horizon}")
    lo = _grid_ticks(T_low, grid_h, "T_low")
    hi = _grid_ticks(T_high, grid_h, "T_high")
    _check_schedule_memory(T_low, horizon)
    rng = SplitMix64(seed)
    ticks = [0]
    while ticks[-1] * grid_h < horizon:
        ticks.append(ticks[-1] + rng.randint(lo, hi))
    instants = np.array(ticks, dtype=float) * grid_h
    return SamplingSchedule(instants=instants, T_low=float(T_low),
                            T_high=float(T_high), grid_h=float(grid_h),
                            seed=int(seed) & MASK64, horizon=float(horizon))


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Dense closed-loop trajectories plus the sampling record.

    times are the selected output instants; leader, followers, and
    errors are the states there, with errors[k, i] = followers[k, i]
    - leader[k] identically. u_held has one row per simulated
    interval (the input is constant on each). instants and modes list
    the sampling instants that occurred within the horizon and the
    graph mode active on each interval; boundary_idx maps each such
    instant to its row in times. n_complete counts the intervals whose
    right endpoint also lies within the horizon.
    """

    times: np.ndarray
    leader: np.ndarray
    followers: np.ndarray
    errors: np.ndarray
    u_held: np.ndarray
    instants: np.ndarray
    modes: np.ndarray
    boundary_idx: np.ndarray
    n_complete: int
    schedule: SamplingSchedule


def simulate(model: SystemModel, topologies, signal: SwitchingSignal, K,
             schedule: SamplingSchedule, x0_leader, x0_followers,
             output_dt: float | None = None) -> SimulationResult:
    """Integrate the sampled closed loop exactly over the schedule.

    On each interval the active graph is the one the switching signal
    selects at the interval's opening instant and the input is the
    error feedback frozen there, so the error state l grid steps after
    the opening is Phi[p, l] times the opening state, with
    Phi[p, l] = F^l + sum_{j<l} F^j G built once per mode from the
    one-step blocks F, G of the held-input dynamics. The leader uses
    the powers of its own one-step transition the same way. Outputs
    are taken at every multiple of output_dt (default grid_h), at
    every sampling instant, and at the horizon.

    The transition tables and the output arrays are sized before any
    of them is allocated; a run that would need more than
    config.SIM_MEMORY_BUDGET bytes raises InvalidSchedule.
    """
    topologies = list(topologies)
    if len(topologies) != signal.mode_count:
        raise ValueError(
            f"signal selects among {signal.mode_count} modes but "
            f"{len(topologies)} topologies were given")
    N = topologies[0].N
    for t in topologies:
        if t.N != N:
            raise ValueError("all topologies must share one follower count")
    n, m = model.n, model.m
    Km = _as_matrix(K, "K")
    if Km.shape != (m, n):
        raise ValueError(f"K must be {m}x{n}, got {Km.shape[0]}x{Km.shape[1]}")
    lead0 = np.asarray(x0_leader, dtype=float).reshape(-1)
    if lead0.shape[0] != n:
        raise ValueError(f"x0_leader must have {n} entries")
    foll0 = np.asarray(x0_followers, dtype=float)
    if foll0.shape != (N, n):
        raise ValueError(f"x0_followers must be {N}x{n}, got {foll0.shape}")

    grid_h = schedule.grid_h
    hor, stride, grid_rows = _output_grid(schedule.horizon, grid_h, output_dt)

    ticks = _grid_ticks(schedule.instants, grid_h, "sampling instant")
    if ticks.size == 0 or ticks[0] != 0:
        raise InvalidSchedule("schedule must start at t = 0")
    if np.any(np.diff(ticks) <= 0):
        raise InvalidSchedule("sampling instants must strictly increase")
    if ticks[-1] < hor:
        raise InvalidSchedule(
            f"schedule ends at {ticks[-1] * grid_h} but the horizon is "
            f"{schedule.horizon}")

    # intervals that open inside the window, truncated at the horizon
    n_open = int(np.searchsorted(ticks, hor, side="left"))
    starts = ticks[:n_open]
    steps = np.minimum(ticks[1:n_open + 1], hor) - starts
    n_complete = int(np.count_nonzero(ticks[1:n_open + 1] <= hor))
    used_ticks = ticks[:int(np.searchsorted(ticks, hor, side="right"))]
    mode_idx = np.array([signal_mode(signal, float(schedule.instants[s]))
                         for s in range(n_open)], dtype=np.int64)

    # output rows: the stride multiples, the horizon, every instant
    off_stride = used_ticks[used_ticks % stride != 0]
    n_rows = grid_rows + int(np.count_nonzero(off_stride != hor))
    d = N * n
    L = int(steps.max()) if n_open else 0
    _check_memory(len(topologies), L, d, n, N * m, n_open, n_rows)

    Hs = [build_H(t).H for t in topologies]
    Fs = np.empty((len(Hs), d, d))
    Gs = np.empty((len(Hs), d, d))
    I_N = np.eye(N)
    for p, H in enumerate(Hs):
        top = np.hstack([kron(I_N, model.A), -kron(H, model.B @ Km)])
        M = np.vstack([top, np.zeros((d, 2 * d))])
        E = expm(M, grid_h)
        Fs[p] = E[:d, :d]
        Gs[p] = E[:d, d:]
    E_lead = expm(model.A, grid_h)

    # Phi[p, l] advances the error l steps from an opening state in
    # mode p; Lead[l] advances the leader l steps
    Phi = np.empty((len(Hs), L + 1, d, d))
    Phi[:, 0] = np.eye(d)
    Lead = np.empty((L + 1, n, n))
    Lead[0] = np.eye(n)
    for l in range(1, L + 1):
        Phi[:, l] = Fs @ Phi[:, l - 1] + Gs
        Lead[l] = E_lead @ Lead[l - 1]

    # states at every opening instant and at the horizon
    X = np.empty((n_open + 1, d))
    Y = np.empty((n_open + 1, n))
    X[0] = (foll0 - lead0[None, :]).reshape(-1)
    Y[0] = lead0
    for s, (p, l) in enumerate(zip(mode_idx.tolist(), steps.tolist())):
        X[s + 1] = Phi[p, l] @ X[s]
        Y[s + 1] = Lead[l] @ Y[s]

    out_ticks = np.union1d(np.arange(0, hor + 1, stride),
                           np.append(used_ticks, hor))
    knots = np.append(starts, hor)
    seg = np.searchsorted(knots, out_ticks, side="right") - 1
    offset = out_ticks - knots[seg]
    err = np.empty((n_rows, d))
    leader = np.empty((n_rows, n))
    at_knot = offset == 0
    err[at_knot] = X[seg[at_knot]]
    leader[at_knot] = Y[seg[at_knot]]
    # every other row is one product per (mode, offset) group
    inner = np.flatnonzero(~at_knot)
    key = mode_idx[seg[inner]] * (L + 1) + offset[inner]
    order = np.argsort(key, kind="stable")
    cuts = np.flatnonzero(np.diff(key[order])) + 1
    for rows in np.split(inner[order], cuts):
        if rows.size == 0:
            continue
        p, l = int(mode_idx[seg[rows[0]]]), int(offset[rows[0]])
        err[rows] = X[seg[rows]] @ Phi[p, l].T
        leader[rows] = Y[seg[rows]] @ Lead[l].T

    errors = err.reshape(n_rows, N, n)
    followers = errors + leader[:, None, :]
    u_held = np.empty((n_open, N * m))
    for p, H in enumerate(Hs):
        sel = mode_idx == p
        u_held[sel] = -(X[:n_open][sel] @ kron(H, Km).T)

    return SimulationResult(
        times=out_ticks.astype(float) * grid_h, leader=leader,
        followers=followers, errors=errors,
        u_held=u_held.reshape(n_open, N, m),
        instants=used_ticks.astype(float) * grid_h, modes=mode_idx,
        boundary_idx=np.searchsorted(out_ticks, used_ticks),
        n_complete=n_complete, schedule=schedule)


def leader_trajectory(A, x0, times) -> np.ndarray:
    """Exact autonomous states e^(A t) x0 at each requested time."""
    a = _square(A, "A")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != a.shape[0]:
        raise ValueError(f"x0 must have {a.shape[0]} entries")
    out = np.empty((len(times), a.shape[0]))
    for k, t in enumerate(times):
        out[k] = expm(a, float(t)) @ x
    return out


@dataclass(frozen=True, eq=False)
class ContractionReport:
    """Runtime check of the per-interval quadratic decay.

    V is x_err^T (D kron P) x_err at every output row and V_samples
    its values at the sampling instants. ratios[s] is
    V_samples[s+1] / V_samples[s] for each complete interval, NaN when
    V_samples[s] = 0 (vacuously passing). interval_violations counts
    intervals whose interior dense maximum exceeded the opening value
    beyond the allowed slack, and worst_interval_slack is the largest
    relative excess seen (negative when V strictly decayed inside
    every interval).

    rho evaluates (1 - beta2/beta1) e^(-beta1 T_low) + beta2/beta1
    with beta1 = c1 and beta2 = c2 * T_high^2, the decay factor the
    synthesis guarantees when every gap is at most T_high. When
    T_high is too large for that bound (beta2 >= beta1, so the formula
    no longer certifies decay), bound_feasible is False and the
    applied rho_threshold falls back to 1.0, which still detects
    growth at the samples.
    """

    V: np.ndarray
    V_samples: np.ndarray
    ratios: np.ndarray
    interval_violations: int
    worst_interval_slack: float
    rho: float
    bound_feasible: bool
    rho_threshold: float

    @property
    def worst_ratio(self) -> float:
        finite = self.ratios[np.isfinite(self.ratios)]
        return float(np.max(finite)) if finite.size else 0.0

    @property
    def ratios_ok(self) -> bool:
        finite = self.ratios[np.isfinite(self.ratios)]
        bound = self.rho_threshold * (1.0 + config.RATIO_REL_SLACK)
        return bool(np.all(finite <= bound))

    @property
    def passed(self) -> bool:
        return self.interval_violations == 0 and self.ratios_ok


def lyapunov_trace(result: SimulationResult, D, P,
                   synth: SynthesisResult) -> ContractionReport:
    """Evaluate the quadratic certificate along a simulated run.

    Checks two properties the synthesized bound implies when every
    gap is at most T_high: inside each interval the dense values of V
    never exceed V at the interval's opening instant (slack
    INTERVAL_SLACK), and across each complete interval V contracts by
    at least the factor rho (see ContractionReport). The monitor is
    observational: violations are reported, never raised.
    """
    d_vec = np.asarray(D, dtype=float)
    if d_vec.ndim == 2:
        d_vec = np.diag(d_vec)
    d_vec = d_vec.reshape(-1)
    N = result.errors.shape[1]
    n = result.errors.shape[2]
    if d_vec.shape[0] != N:
        raise ValueError(f"D must have {N} entries, got {d_vec.shape[0]}")
    Pm = _square(P, "P")
    if Pm.shape[0] != n:
        raise ValueError(f"P must be {n}x{n}")

    bidx = np.asarray(result.boundary_idx, dtype=np.int64)
    if bidx.shape[0] != result.instants.shape[0]:
        raise IncompleteTrace(
            "boundary index does not cover every sampling instant")
    if bidx.size > 1 and np.any(np.diff(bidx) <= 0):
        raise IncompleteTrace("boundary indices must strictly increase")
    n_rows = result.times.shape[0]
    missing = (bidx < 0) | (bidx >= n_rows)
    at = result.times[np.clip(bidx, 0, n_rows - 1)]
    missing |= np.abs(at - result.instants) > 1e-9
    if np.any(missing):
        k = int(np.argmax(missing))
        raise IncompleteTrace(
            f"sampling instant {result.instants[k]} is missing from "
            f"the dense output times")

    W = kron(np.diag(d_vec), Pm)
    flat = result.errors.reshape(result.errors.shape[0], N * n)
    V = np.einsum("ki,ij,kj->k", flat, W, flat)
    V_samples = V[bidx]

    # largest V from each sampling instant up to the next (or the end)
    violations = 0
    worst = 0.0
    if bidx.size:
        seg_max = np.maximum.reduceat(V, bidx)
        positive = V_samples > 0.0
        excess = np.where(seg_max > 0.0, math.inf, 0.0)
        excess[positive] = ((seg_max[positive] - V_samples[positive])
                            / V_samples[positive])
        violations = int(np.count_nonzero(excess > config.INTERVAL_SLACK))
        # NaN excesses are skipped, as a running max() would skip them
        worst = float(np.fmax.reduce(excess))
        if math.isnan(worst):
            worst = 0.0

    V0 = V_samples[:result.n_complete]
    V1 = V_samples[1:result.n_complete + 1]
    ratios = np.full(result.n_complete, math.nan)
    positive = V0 > 0.0
    ratios[positive] = V1[positive] / V0[positive]

    beta1 = synth.c1
    beta2 = synth.c2 * result.schedule.T_high ** 2
    h = result.schedule.T_low
    rho = _rho(beta1, beta2, h)
    feasible = beta2 < beta1
    threshold = rho if feasible else 1.0
    return ContractionReport(
        V=V, V_samples=V_samples, ratios=ratios,
        interval_violations=violations, worst_interval_slack=worst,
        rho=float(rho), bound_feasible=feasible,
        rho_threshold=float(threshold))


CSV_BLOCK_ROWS = 64


def _fmt(x: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


def write_trajectory_csv(path, result: SimulationResult, V=None) -> None:
    """One row per output time: leader state, every follower state,
    per-follower error norms, and the monitored quadratic V (NaN when
    no certificate was available)."""
    n_out, N, n = result.followers.shape
    cols = ["t"]
    cols += [f"x0_{j}" for j in range(1, n + 1)]
    for i in range(1, N + 1):
        cols += [f"x{i}_{j}" for j in range(1, n + 1)]
    cols += [f"err_norm_{i}" for i in range(1, N + 1)]
    cols.append("V")
    vcol = np.full(n_out, math.nan) if V is None else np.asarray(V, dtype=float)
    norms = np.linalg.norm(result.errors, axis=2)
    followers = result.followers.reshape(n_out, N * n)
    with open(path, "w", newline="\n") as f:
        f.write(",".join(cols) + "\n")
        # a block of rows at a time, so the text and float objects held
        # at once do not grow with the length of the run
        for lo in range(0, n_out, CSV_BLOCK_ROWS):
            hi = lo + CSV_BLOCK_ROWS
            block = np.column_stack([result.times[lo:hi],
                                     result.leader[lo:hi], followers[lo:hi],
                                     norms[lo:hi], vcol[lo:hi]])
            f.write("".join([",".join(map(repr, row)) + "\n"
                             for row in block.tolist()]))


def write_schedule_csv(path, result: SimulationResult) -> None:
    """One row per simulated interval: index, opening instant,
    scheduled gap, and the graph mode in force."""
    sched = result.schedule.instants
    with open(path, "w", newline="\n") as f:
        f.write("s,t_s,T_s,mode\n")
        for s in range(result.modes.shape[0]):
            f.write(",".join([
                str(s), _fmt(sched[s]), _fmt(sched[s + 1] - sched[s]),
                str(int(result.modes[s]))]) + "\n")
