"""Closed-loop sampled-data simulation with exact per-interval
integration, plus runtime monitoring of the quadratic decay the
synthesized bound promises.

All trajectories live on a uniform time grid of pitch grid_h. Sampling
instants, the horizon, and the output pitch must all be whole numbers
of grid steps, so every time in the result is an exact grid multiple
and repeated runs are bit-identical.
"""

from dataclasses import dataclass
import functools
import math

import numpy as np

from . import floattext
from .errors import IncompleteTrace, InvalidSchedule
from .graph import SwitchingSignal, build_H, signal_mode
from .numerics import config
from .numerics.linalg import _as_matrix, _square, expm
from .synthesis import SynthesisResult, _rho

MASK64 = (1 << 64) - 1

# SplitMix64's state increment and its two output multipliers
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(seed: int, first: int, count: int) -> np.ndarray:
    """Outputs first, ..., first + count - 1 of SplitMix64(seed), the
    generator whose k-th output mixes the state z = seed + k * GAMMA by
    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31, all modulo 2^64, with
    GAMMA = 0x9E3779B97F4A7C15.

    Pure integer arithmetic on a uint64 array, which wraps modulo 2^64,
    so identical seeds give identical streams on every platform and in
    every language that pins these constants. The seed is taken modulo
    2^64.
    """
    z = np.arange(first, first + count, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(int(seed) & MASK64)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


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


# rows of the schedule CSV formatted at a time
CSV_BLOCK_ROWS = 64
# values the trajectory CSV formats at a time: a block is the most rows
# that hold this many, so its working memory does not grow with the
# run or with the column count
CSV_BLOCK_VALUES = 2048
# output rows one grouped product of simulate computes at a time, so
# that its gathered operand and its result stay bounded
_GROUP_ROWS = 4096
# 8-byte words a run holds per output row besides its d + n states, N
# error norms and the d + N squares and sums these or V are computed
# from: the times and their integer-to-float copy, V, the eight index
# arrays that place the rows (out_ticks, seg, offset, at_knot, inner,
# key, order, grouped) and the two arrays out_ticks is sorted and
# deduplicated from
_ROW_WORDS = 13
# ... and per sampling interval besides the d + n of its opening state:
# the ticks, modes, openings and gaps, and the temporaries that snap
# the instants to the grid
_INTERVAL_WORDS = 12
# bytes per value of a trajectory CSV block: the block itself, the
# followers' states summed into it, and the most floattext.format_rows
# holds while it formats it; and the most the formatter's tables take
# while they are built
_CSV_BYTES_PER_VALUE = 16 + 256
_CSV_TABLE_BYTES = 1 << 20


def _check_memory(modes: int, L: int, N: int, n: int, n_open: int,
                  n_rows: int) -> int:
    """Refuse a run whose transition tables (modes x (L + 1) blocks of
    d x d, d = N n, plus L + 1 leader blocks and L + 1 input-gain blocks
    of n x n) and the rest it allocates in simulate, the certificate
    trace and the trajectory CSV would together exceed
    config.SIM_MEMORY_BUDGET bytes: the output rows with their index
    arrays, error norms and V, the states at the sampling instants, one
    grouped product, and the CSV's block with the formatter's working
    memory and tables. Returns the bytes counted."""
    d = N * n
    table = 8 * (L + 1) * (modes * d * d + 2 * n * n)
    block = max(CSV_BLOCK_VALUES, 2 + n + d + N)
    outputs = (8 * (n_rows * (2 * (d + N) + n + _ROW_WORDS)
                    + (n_open + 1) * (d + n + _INTERVAL_WORDS)
                    + 2 * min(n_rows, _GROUP_ROWS) * d)
               + block * _CSV_BYTES_PER_VALUE + _CSV_TABLE_BYTES)
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
    return table + outputs


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


# bytes gen_schedule holds per drawn gap, at most horizon / T_low + 3 of
# them: 16 while a block is mixed (the uint64 draws and one shifted
# copy), then 25 at the concatenation (the int64 ticks, their float
# times, the stop mask and the instants), and 16 while SamplingSchedule
# copies the instants; 25 rounded up to cover the arrays' fixed headers
_SCHEDULE_BYTES_PER_INSTANT = 32


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


def check_run_memory(modes: int, N: int, n: int, T_low: float,
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
    _check_memory(modes, 0, N, n, 0, rows)


def _draw_instants(lo: int, hi: int, grid_h: float, horizon: float,
                   seed: int, most: int) -> np.ndarray:
    """0.0, then tick_k * grid_h for k = 1, 2, ... up to the first at or
    past the horizon, where tick_k sums the gaps lo + u_j mod
    (hi - lo + 1), j <= k, of the SplitMix64(seed) outputs u_j.

    The gaps are drawn a block at a time. A block holds the est gaps of
    the mean size that would reach the horizon plus a margin of
    sqrt(est) + 1, capped so that no more than most gaps are drawn
    while that many reach it; a block that falls short is followed by
    one for the rest.
    """
    span = np.uint64(hi - lo + 1)
    mean = 0.5 * (lo + hi)
    blocks = [np.zeros(1)]
    drawn = last = 0
    while True:
        est = max(horizon / grid_h - last, 0.0) / mean
        size = max(1, min(most - drawn, math.ceil(est + math.sqrt(est)) + 1))
        ticks = _splitmix64(seed, drawn + 1, size)
        ticks %= span
        ticks = ticks.view(np.int64)
        ticks += lo
        ticks[0] += last
        np.cumsum(ticks, out=ticks)
        times = ticks * grid_h
        reached = times >= horizon
        stop = int(np.argmax(reached))
        if reached[stop]:
            blocks.append(times[:stop + 1])
            return np.concatenate(blocks)
        blocks.append(times)
        drawn += size
        last = int(ticks[-1])


def gen_schedule(T_low: float, T_high: float, grid_h: float, horizon: float,
                 seed: int) -> SamplingSchedule:
    """Draw a deterministic aperiodic schedule covering the horizon.

    Each gap is l * grid_h with l = lo + u mod (hi - lo + 1), lo and hi
    being T_low/grid_h and T_high/grid_h and u the next output of
    SplitMix64(seed); the instants run from 0 up to the first at or past
    the horizon. The outputs are drawn in uint64 numpy arithmetic, a
    block of gaps at a time, and the ticks summed with one cumsum, so a
    run costs a few array passes, not Python work per instant. The same
    arguments always reproduce the same instants bit for bit.

    A T_low below one grid step, a schedule that could pass 2^62 grid
    steps, or a horizon that could need more instants than
    config.SIM_MEMORY_BUDGET bytes hold raises InvalidSchedule before
    any gap is drawn.
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
    if lo < 1:
        raise InvalidSchedule(f"T_low = {T_low} is below the grid pitch")
    _check_schedule_memory(T_low, horizon)
    # every tick before the last is below the horizon, and the last adds
    # at most hi, so this keeps the int64 ticks exact
    if not hi + horizon / grid_h < 2.0 ** 62:
        raise InvalidSchedule(
            f"a schedule up to horizon = {horizon} with gaps up to T_high = "
            f"{T_high} may pass 2^62 grid steps of {grid_h}; raise grid_h")
    most = int(horizon / T_low + 3.0)
    instants = _draw_instants(lo, hi, grid_h, horizon, seed, most)
    return SamplingSchedule(instants=instants, T_low=float(T_low),
                            T_high=float(T_high), grid_h=float(grid_h),
                            seed=int(seed) & MASK64, horizon=float(horizon))


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Dense closed-loop trajectories plus the sampling record.

    times are the selected output instants; leader and errors are the
    states there, follower i being at errors[k, i] + leader[k]. instants
    and modes list the sampling instants that occurred within the
    horizon and the graph mode active on each interval (the input each
    interval holds is -(H_p kron K) times the error at its opening
    instant); boundary_idx maps each such instant to its row in times.
    n_complete counts the intervals whose right endpoint also lies
    within the horizon.
    """

    times: np.ndarray
    leader: np.ndarray
    errors: np.ndarray
    instants: np.ndarray
    modes: np.ndarray
    boundary_idx: np.ndarray
    n_complete: int
    schedule: SamplingSchedule

    @functools.cached_property
    def error_norms(self) -> np.ndarray:
        """Euclidean norm of each follower's error at each output row,
        (rows, N), computed once per run; inf or NaN where the state
        left the float range, without a numpy warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            return np.linalg.norm(self.errors, axis=2)


def _transition_tables(model: SystemModel, K: np.ndarray, Hs: np.ndarray,
                       grid_h: float, L: int):
    """Phi[p, l], the error transition over l = 0..L grid steps of a
    held input in graph mode p, and Lead[l] = E^l, the leader's.

    Every agent shares A, B and K, so one Van Loan exponential of the
    agent, expm([[A, B], [0, 0]] grid_h) with top row [E, Gamma], gives
    the one-step blocks of the network: F = I kron E and
    G_p = -H_p kron (Gamma K). With Psi_l = E Psi_{l-1} + Gamma
    (Psi_0 = 0) the input gain accumulated over l held steps,
    Phi[p, l] = F^l + sum_{j<l} F^j G_p = I kron E^l - H_p kron (Psi_l K),
    written block by block into one table.
    """
    N, n, m = Hs.shape[1], model.n, model.m
    d = N * n
    vl = np.zeros((n + m, n + m))
    vl[:n, :n] = model.A
    vl[:n, n:] = model.B
    top = expm(vl, grid_h)[:n]
    E, negGammaK = top[:, :n], top[:, n:] @ -K
    # the small recursions, with negPsiK[l] = -Psi_l K
    Lead = np.empty((L + 1, n, n))
    negPsiK = np.empty((L + 1, n, n))
    Lead[0] = np.eye(n)
    negPsiK[0] = 0.0
    for l in range(1, L + 1):
        Lead[l] = E @ Lead[l - 1]
        negPsiK[l] = E @ negPsiK[l - 1] + negGammaK
    # one table-sized allocation; a zero entry of H_p leaves its block
    # zero, so only the nonzero entries are written
    Phi = np.zeros((Hs.shape[0], L + 1, d, d))
    blocks = Phi.reshape(Hs.shape[0], L + 1, N, n, N, n)
    for p, i, j in zip(*np.nonzero(Hs)):
        np.multiply(Hs[p, i, j], negPsiK, out=blocks[p, :, i, :, j, :])
    for i in range(N):
        blocks[:, :, i, :, i, :] += Lead
    return Phi, Lead


def simulate(model: SystemModel, topologies, signal: SwitchingSignal, K,
             schedule: SamplingSchedule, x0_leader, x0_followers,
             output_dt: float | None = None) -> SimulationResult:
    """Integrate the sampled closed loop exactly over the schedule.

    On each interval the active graph is the one the switching signal
    selects at the interval's opening instant and the input is the
    error feedback frozen there, so the error state l grid steps after
    the opening is Phi[p, l] times the opening state. Since every agent
    shares A, B and K, the table Phi[p, 0..L] (L the longest interval
    in grid steps) is assembled as I kron E^l - H_p kron (Psi_l K) from
    one (n + m) x (n + m) Van Loan exponential of the agent, and the
    leader advances by the same powers E^l (see _transition_tables).
    The run then costs one matrix-vector product per interval plus one
    matrix product per (mode, offset) group of output rows. Outputs
    are taken at every multiple of output_dt (default grid_h), at
    every sampling instant, and at the horizon.

    The transition tables and the output arrays are sized before any
    of them is allocated; a run that would need more than
    config.SIM_MEMORY_BUDGET bytes raises InvalidSchedule. A diverging
    run raises no numpy warning: its states become inf or NaN.
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
    mode_idx = signal_mode(signal, schedule.instants[:n_open])

    # output rows: the stride multiples, the horizon, every instant
    off_stride = used_ticks[used_ticks % stride != 0]
    n_rows = grid_rows + int(np.count_nonzero(off_stride != hor))
    d = N * n
    L = int(steps.max()) if n_open else 0
    _check_memory(len(topologies), L, N, n, n_open, n_rows)

    # output rows: the knot (opening instant or horizon) each follows,
    # and the grid steps past it
    out_ticks = np.sort(np.concatenate(
        (np.arange(0, hor + 1, stride), used_ticks, [hor])))
    out_ticks = out_ticks[np.append(True, out_ticks[1:] != out_ticks[:-1])]
    knots = np.append(starts, hor)
    seg = np.searchsorted(knots, out_ticks, side="right") - 1
    offset = out_ticks - knots[seg]
    at_knot = offset == 0
    # every other row is one product per (mode, offset) group: the rows
    # in key order, and the bounds, mode and offset of each group
    inner = np.flatnonzero(~at_knot)
    key = mode_idx[seg[inner]] * (L + 1) + offset[inner]
    order = np.argsort(key, kind="stable")
    grouped, key = inner[order], key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    group_p, group_l = np.divmod(key[first], L + 1)
    groups = zip(first.tolist(), np.append(first[1:], key.size).tolist(),
                 group_p.tolist(), group_l.tolist())

    Hs = np.array([build_H(t) for t in topologies])
    # a diverging run ends in non-finite states, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        Phi, Lead = _transition_tables(model, Km, Hs, grid_h, L)

        # states at every opening instant and at the horizon; each
        # product writes its row of X and Y and is the next one's operand
        X = np.empty((n_open + 1, d))
        Y = np.empty((n_open + 1, n))
        X[0] = (foll0 - lead0[None, :]).reshape(-1)
        Y[0] = lead0
        x, y = X[0], Y[0]
        for s, p, l in zip(range(1, n_open + 1), mode_idx.tolist(),
                           steps.tolist()):
            x = Phi[p, l].dot(x, out=X[s])
            y = Lead[l].dot(y, out=Y[s])

        err = np.empty((n_rows, d))
        leader = np.empty((n_rows, n))
        err[at_knot] = X[seg[at_knot]]
        leader[at_knot] = Y[seg[at_knot]]
        grouped_seg = seg[grouped]
        for a, b, p, l in groups:
            for lo in range(a, b, _GROUP_ROWS):
                hi = min(lo + _GROUP_ROWS, b)
                rows, knot = grouped[lo:hi], grouped_seg[lo:hi]
                err[rows] = X[knot] @ Phi[p, l].T
                leader[rows] = Y[knot] @ Lead[l].T

    return SimulationResult(
        times=out_ticks.astype(float) * grid_h, leader=leader,
        errors=err.reshape(n_rows, N, n),
        instants=used_ticks.astype(float) * grid_h, modes=mode_idx,
        boundary_idx=np.searchsorted(out_ticks, used_ticks),
        n_complete=n_complete, schedule=schedule)


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


def lyapunov_trace(result: SimulationResult,
                   synth: SynthesisResult) -> ContractionReport:
    """Evaluate the design's quadratic certificate along a simulated run.

    V = sum_i D_i e_i' P e_i, the value of e' (D kron P) e, is taken
    agent by agent from the scaling D and the Riccati solution P of
    synth. Checks two properties the synthesized bound implies when
    every gap is at most T_high: inside each interval the dense values
    of V never exceed V at the interval's opening instant (slack
    INTERVAL_SLACK), and across each complete interval V contracts by
    at least the factor rho (see ContractionReport). The monitor is
    observational: violations are reported, never raised, and a
    diverging run gives inf or NaN values of V, not numpy warnings.
    """
    _, N, n = result.errors.shape
    if synth.D is None or synth.D.shape != (N,):
        raise ValueError(f"the design's D must have {N} entries")
    if synth.P.shape != (n, n):
        raise ValueError(f"the design's P must be {n}x{n}")

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

    with np.errstate(over="ignore", invalid="ignore"):
        e = result.errors
        V = np.einsum("kia,kia->ki", e @ synth.P, e) @ synth.D
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


def write_trajectory_csv(path, result: SimulationResult, V=None) -> None:
    """One row per output time: leader state, every follower state,
    per-follower error norms, and the monitored quadratic V (NaN when
    no certificate was available). Each value is written as Python's
    shortest round-trip repr writes it.

    A V whose length is not the run's output row count raises
    ValueError before the file is opened."""
    n_out, N, n = result.errors.shape
    if V is not None:
        V = np.asarray(V, dtype=float).reshape(-1)
        if V.size != n_out:
            raise ValueError(
                f"V has {V.size} entries but the run has {n_out} output rows")
    cols = ["t"]
    cols += [f"x0_{j}" for j in range(1, n + 1)]
    for i in range(1, N + 1):
        cols += [f"x{i}_{j}" for j in range(1, n + 1)]
    cols += [f"err_norm_{i}" for i in range(1, N + 1)]
    cols.append("V")
    norms = result.error_norms
    width = len(cols)
    rows = max(1, CSV_BLOCK_VALUES // width)
    block = np.empty((min(rows, n_out), width))
    # the column ranges of the leader, the followers and the norms
    foll = 1 + n
    norm = foll + N * n
    # a diverging run's follower states are inf or NaN, not warnings
    with open(path, "wb") as f, np.errstate(over="ignore", invalid="ignore"):
        f.write((",".join(cols) + "\n").encode())
        for lo in range(0, n_out, rows):
            hi = min(lo + rows, n_out)
            b = block[:hi - lo]
            b[:, 0] = result.times[lo:hi]
            lead = result.leader[lo:hi]
            b[:, 1:foll] = lead
            b[:, foll:norm] = (result.errors[lo:hi]
                               + lead[:, None, :]).reshape(hi - lo, -1)
            b[:, norm:-1] = norms[lo:hi]
            b[:, -1] = math.nan if V is None else V[lo:hi]
            f.write(floattext.format_rows(b))


def write_schedule_csv(path, result: SimulationResult) -> None:
    """One row per simulated interval: index, opening instant,
    scheduled gap, and the graph mode in force."""
    k = result.modes.shape[0]
    sched = result.schedule.instants[:k + 1]
    gaps = np.diff(sched)
    with open(path, "w", newline="\n") as f:
        f.write("s,t_s,T_s,mode\n")
        # formatted from Python floats and ints, a block of rows per write
        for lo in range(0, k, CSV_BLOCK_ROWS):
            hi = min(lo + CSV_BLOCK_ROWS, k)
            rows = zip(range(lo, hi), sched[lo:hi].tolist(),
                       gaps[lo:hi].tolist(), result.modes[lo:hi].tolist())
            f.write("".join([f"{s},{t!r},{gap!r},{p}\n"
                             for s, t, gap, p in rows]))
