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
from .graph import SwitchingSignal, signal_mode
from .numerics.linalg import _as_matrix, _square, expm
from .synthesis import SynthesisResult, _laplacian_stack, _rho

MASK64 = (1 << 64) - 1

# SplitMix64's state increment and its two output multipliers
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def check_seed(seed: int) -> int:
    """seed itself when it is an unsigned 64-bit integer, ValueError
    otherwise. The schedule draw adds the seed to SplitMix64's uint64
    states, so every seed in range gives its own stream, while one
    outside it would be taken modulo 2^64 and silently give another
    seed's stream. A seed past 128 bits is named by its width, so the
    message stays short."""
    if not 0 <= seed < 1 << 64:
        bits = seed.bit_length()
        shown = seed if bits <= 128 else (
            f"a{' negative' if seed < 0 else ''} {bits}-bit integer")
        raise ValueError(f"seed must be an unsigned 64-bit integer, "
                         f"got {shown}")
    return seed


def _splitmix64(seed: int, first: int, count: int) -> np.ndarray:
    """Outputs first, ..., first + count - 1 of SplitMix64(seed), the
    generator whose k-th output mixes the state z = seed + k * GAMMA by
    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31, all modulo 2^64, with
    GAMMA = 0x9E3779B97F4A7C15.

    Pure integer arithmetic on a uint64 array, which wraps modulo 2^64,
    so identical seeds give identical streams on every platform and in
    every language that pins these constants. The seed is taken modulo
    2^64; gen_schedule refuses one outside that range.
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


# relative error allowed when snapping a time to the grid
GRID_DIV_TOL = 1e-12


def _grid_ticks(value, grid_h: float, what: str):
    """Snap a time, or an array of times, to its grid step count,
    rejecting off-grid values."""
    v = np.asarray(value, dtype=float)
    # a ratio beyond the float range is off the grid, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.rint(v / grid_h)
        on_grid = np.abs(k * grid_h - v) <= \
            GRID_DIV_TOL * np.maximum(1.0, np.abs(v))
    if not np.all(on_grid):
        raise InvalidSchedule(
            f"{what} = {float(v[~on_grid].flat[0])} is not a whole number "
            f"of grid steps (grid_h = {grid_h})")
    return int(k) if k.ndim == 0 else k.astype(np.int64)


# bytes one run may allocate: the transition tables and everything
# simulate, the certificate trace and the trajectory CSV hold (counted
# by _check_memory), and the instants gen_schedule draws (counted by
# _check_schedule_memory); checked before anything is allocated
SIM_MEMORY_BUDGET = 256 * 2**20

# rows of the schedule CSV formatted at a time
CSV_BLOCK_ROWS = 64
# values the trajectory CSV formats at a time: a block is the most rows
# that hold this many, so its working memory does not grow with the
# run or with the column count
CSV_BLOCK_VALUES = 4096
# output rows one grouped product of simulate computes at a time, so
# that its gathered operand and its result stay bounded
_GROUP_ROWS = 4096
# 8-byte words a run holds per output row besides its D = d + n
# states (the followers' errors and the leader), N error norms and the
# d + N squares and sums these or V are computed from: the times and
# their integer-to-float copy, V, the eight index arrays that place the
# rows (out_ticks, seg, offset, inner, key, order, grouped, and the knot
# each grouped row follows) and the two arrays out_ticks is sorted and
# deduplicated from
_ROW_WORDS = 13
# ... and per sampling interval besides the D of its opening state: the
# ticks, modes, openings and gaps, and the temporaries that snap the
# instants to the grid, which are freed before the table key of each
# interval is listed (12); and, while the intervals are stepped, the
# view of each distinct table block they use with its entries in the
# block map and in the set of keys that map is built from (232 bytes)
_INTERVAL_WORDS = 41


def _check_memory(modes: int, L: int, N: int, n: int, n_open: int,
                  n_rows: int) -> int:
    """Refuse a run whose transition table (modes x (L + 1) blocks of
    D x D, D = (N + 1) n, for the followers' errors and the leader) and
    the rest it allocates in simulate, the certificate trace and the
    trajectory CSV would together exceed SIM_MEMORY_BUDGET bytes: the
    pair of (L + 1) x n x n tables the table is built from, the output
    rows with their index arrays, error norms and V, the states at the
    sampling instants, one grouped product, and the CSV's block with
    the followers' states formed for it and the formatter's working
    memory and tables. Returns the bytes counted."""
    d, D = N * n, (N + 1) * n
    table = 8 * modes * (L + 1) * D * D
    block = max(CSV_BLOCK_VALUES, 2 + n + d + N)
    outputs = (8 * (2 * (L + 1) * n * n
                    + n_rows * (2 * (d + N) + n + _ROW_WORDS)
                    + (n_open + 1) * (D + _INTERVAL_WORDS)
                    + 2 * min(n_rows, _GROUP_ROWS) * D)
               # 24 bytes per value: the block, and the followers' states
               # with the buffer numpy allocates for their broadcast sum
               + block * (24 + floattext.WORK_BYTES_PER_VALUE)
               + floattext.TABLE_BYTES)
    if table + outputs > SIM_MEMORY_BUDGET:
        mib = 1 << 20
        raise InvalidSchedule(
            f"simulation needs {(table + outputs) / mib:.1f} MiB "
            f"({table / mib:.1f} MiB of transition tables for {modes} "
            f"mode(s) x {L + 1} steps of {D}x{D} blocks, "
            f"{outputs / mib:.1f} MiB for {n_rows} output rows), above "
            f"the budget of {SIM_MEMORY_BUDGET / mib:.0f} MiB; shorten the "
            f"longest sampling gap or the horizon, or raise grid_h or "
            f"output_dt")
    return table + outputs


def _output_grid(horizon: float, grid_h: float, output_dt: float | None):
    """Horizon and output pitch (default grid_h) in grid steps, and the
    number of output rows at the pitch multiples and the horizon. A
    grid_h that is not positive or a negative horizon, NaN for either,
    raises InvalidSchedule."""
    if not grid_h > 0.0:
        raise InvalidSchedule(f"grid_h must be positive, got {grid_h}")
    if not horizon >= 0.0:
        raise InvalidSchedule(f"horizon must not be negative, got {horizon}")
    hor = _grid_ticks(horizon, grid_h, "horizon")
    out_dt = grid_h if output_dt is None else float(output_dt)
    if not out_dt > 0.0:
        raise InvalidSchedule(f"output_dt must be positive, got {out_dt}")
    stride = _grid_ticks(out_dt, grid_h, "output_dt")
    if stride < 1:
        raise InvalidSchedule(f"output_dt = {out_dt} is below the grid pitch")
    # any stride past the horizon gives the same rows, and this one
    # stays within int64
    stride = min(stride, hor + 1)
    return hor, stride, hor // stride + 1 + int(hor % stride != 0)


# bytes gen_schedule holds per drawn gap, at most horizon / T_low + 3 of
# them: 16 while a block is mixed (the uint64 draws and one shifted
# copy), then 25 at the concatenation (the int64 ticks, their float
# times, the stop mask and the instants), and 16 while SamplingSchedule
# copies the instants; 25 rounded up to cover the arrays' fixed headers
_SCHEDULE_BYTES_PER_INSTANT = 32


def _check_schedule_memory(T_low: float, horizon: float) -> None:
    """Refuse a horizon that could need more sampling instants than
    SIM_MEMORY_BUDGET bytes hold."""
    # at most ceil(horizon / T_low) + 2 instants; bounded in floats so
    # that an infinite horizon or an overflowing ratio is refused too
    most = horizon / T_low + 3.0
    need = most * _SCHEDULE_BYTES_PER_INSTANT
    if not need <= SIM_MEMORY_BUDGET:
        mib = 1 << 20
        raise InvalidSchedule(
            f"schedule may need {most:.0f} sampling instants "
            f"({need / mib:.1f} MiB), above the budget of "
            f"{SIM_MEMORY_BUDGET / mib:.0f} MiB; shorten the "
            f"horizon or raise T_low")


def check_run_memory(modes: int, N: int, n: int, T_low: float,
                     horizon: float, grid_h: float,
                     output_dt: float | None = None) -> None:
    """The memory checks of gen_schedule and simulate that need no
    schedule, once the horizon and output_dt are checked as simulate
    checks them: the instants the horizon may need, then the output
    rows at the output_dt multiples and the horizon with the tables up
    to min(T_low, horizon), a length some interval of every run
    reaches. Raises InvalidSchedule, naming the horizon when it is NaN,
    infinite or negative, and when either check exceeds
    SIM_MEMORY_BUDGET, so a run that gen_schedule or simulate would
    refuse is refused before its schedule is drawn."""
    hor, _, rows = _output_grid(horizon, grid_h, output_dt)
    _check_schedule_memory(T_low, horizon)
    L = min(_grid_ticks(T_low, grid_h, "T_low"), hor)
    _check_memory(modes, L, N, n, 0, rows)


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

    A seed outside [0, 2^64) raises ValueError. A T_low below one grid
    step, a schedule that could pass 2^62 grid steps, or a horizon that
    could need more instants than SIM_MEMORY_BUDGET bytes hold raises
    InvalidSchedule before any gap is drawn.
    """
    check_seed(seed)
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
                            seed=int(seed), horizon=float(horizon))


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
        e = self.errors
        with np.errstate(over="ignore", invalid="ignore"):
            # summed component by component, in the order numpy's norm
            # sums fewer than 8, with no temporary as large as errors
            sq = e[..., 0] * e[..., 0]
            for j in range(1, e.shape[2]):
                sq += e[..., j] * e[..., j]
            return np.sqrt(sq, out=sq)


def _transition_tables(A: np.ndarray, B: np.ndarray, K: np.ndarray,
                       Hs: np.ndarray, grid_h: float, L: int):
    """Phi[p, l], the transition of the state z = [e_1; ...; e_N; x_0]
    (the followers' errors, then the leader) over l = 0..L grid steps
    of a held input in graph mode p: modes x (L + 1) blocks of D x D,
    D = (N + 1) n, in one table.

    Every agent shares A, B and K, so one Van Loan exponential of the
    agent, expm([[A, B], [0, 0]] grid_h) with top row [E, Gamma], gives
    the one-step blocks of the network: F = I kron E and
    G_p = -H_p kron (Gamma K), the leader being agent N + 1, whose row
    and column of H_p are zero. With Psi_l = E Psi_{l-1} + Gamma
    (Psi_0 = 0) the input gain accumulated over l held steps,
    Phi[p, l] = F^l + sum_{j<l} F^j G_p = I kron E^l - H_p kron (Psi_l K),
    written block by block from the pair (E^l, -Psi_l K), one recursion
    with one stacked product per step: the leader's diagonal block is
    E^l and its coupling blocks are exactly zero.
    """
    N, (n, m) = Hs.shape[1], B.shape
    D = (N + 1) * n
    vl = np.zeros((n + m, n + m))
    vl[:n, :n] = A
    vl[:n, n:] = B
    top = expm(vl, grid_h)[:n]
    E, negGammaK = top[:, :n], top[:, n:] @ -K
    # R[:, l] = (E^l, -Psi_l K) = E R[:, l - 1] + (0, -Gamma K)
    R = np.zeros((2, L + 1, n, n))
    R[0, 0] = np.eye(n)
    for l in range(1, L + 1):
        np.matmul(E, R[:, l - 1], out=R[:, l])
        R[1, l] += negGammaK
    # one table-sized allocation; a zero entry of H_p leaves its block
    # zero, so only the nonzero entries are written
    Phi = np.zeros((Hs.shape[0], L + 1, D, D))
    blocks = Phi.reshape(Hs.shape[0], L + 1, N + 1, n, N + 1, n)
    for p, i, j in zip(*np.nonzero(Hs)):
        np.multiply(Hs[p, i, j], R[1], out=blocks[p, :, i, :, j, :])
    for i in range(N + 1):
        blocks[:, :, i, :, i, :] += R[0]
    return Phi


def simulate(A, B, Hs, signal: SwitchingSignal, K, schedule: SamplingSchedule,
             x0_leader, x0_followers,
             output_dt: float | None = None) -> SimulationResult:
    """Integrate the sampled closed loop exactly over the schedule.

    Followers obey x' = A x + B u, the leader x' = A x, and Hs lists or
    stacks the grounded Laplacian of each graph mode. On each interval
    the active graph is the one the switching signal selects at the
    interval's opening instant and the input is the error feedback
    frozen there. The leader rides along as agent N + 1, uncoupled, so
    the state z = [e_1; ...; e_N; x_0] of the followers' errors and the
    leader l grid steps after the opening is Phi[p, l] times the opening
    state. Since every agent shares A, B and K, the table Phi[p, 0..L]
    (L the longest interval in grid steps) of D x D blocks,
    D = (N + 1) n, is assembled as I kron E^l - H_p kron (Psi_l K) from
    one (n + m) x (n + m) Van Loan exponential of the agent and one
    recursion of two n x n tables (see _transition_tables). The run then
    costs one matrix-vector product per interval, by its table block,
    plus one matrix product per (mode, offset) group of output rows, and
    errors and leader are written as C-contiguous arrays. Outputs are
    taken at every multiple of output_dt (default grid_h), at every
    sampling instant, and at the horizon.

    A gap outside the schedule's [T_low, T_high] raises InvalidSchedule,
    as does a run needing more than SIM_MEMORY_BUDGET bytes: the tables
    and output arrays are sized before any of them is allocated. A
    diverging run raises no numpy warning: its states become inf or NaN.
    A run where the errors or the leader leave the float range is
    stepped again with the two apart, so that the other keeps its
    values rather than a NaN from an exact zero block.
    """
    a, b = _square(A, "A"), _as_matrix(B, "B")
    n, m = b.shape
    if n != a.shape[0]:
        raise ValueError(f"B must have {a.shape[0]} rows, got {n}")
    Hs = _laplacian_stack(Hs)
    if len(Hs) != signal.mode_count:
        raise ValueError(
            f"signal selects among {signal.mode_count} modes but "
            f"{len(Hs)} grounded Laplacians were given")
    N = Hs.shape[-1]
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
    gap_ticks = np.diff(ticks)
    if np.any(gap_ticks <= 0):
        raise InvalidSchedule("sampling instants must strictly increase")
    if ticks[-1] < hor:
        raise InvalidSchedule(
            f"schedule ends at {ticks[-1] * grid_h} but the horizon is "
            f"{schedule.horizon}")

    # intervals that open inside the window, truncated at the horizon
    n_open = int(np.searchsorted(ticks, hor, side="left"))
    starts = ticks[:n_open]
    steps = np.minimum(gap_ticks[:n_open], hor - starts)
    used_ticks = ticks[:int(np.searchsorted(ticks, hor, side="right"))]
    n_complete = used_ticks.size - 1
    mode_idx = signal_mode(signal, schedule.instants[:n_open])

    # lyapunov_trace takes rho from [T_low, T_high], so no gap may leave it
    tol = GRID_DIV_TOL * max(1.0, abs(schedule.T_high))
    gaps = gap_ticks[:n_open] * grid_h
    outside = ~((gaps >= schedule.T_low - tol)
                & (gaps <= schedule.T_high + tol))
    if outside.any():
        s = int(np.argmax(outside))
        raise InvalidSchedule(
            f"sampling gap {gaps[s]} at t = {ticks[s] * grid_h} is outside "
            f"[T_low, T_high] = [{schedule.T_low}, {schedule.T_high}]")
    del gap_ticks, gaps, outside  # not counted by _check_memory

    # output rows: the stride multiples, the horizon, every instant
    off_stride = used_ticks[used_ticks % stride != 0]
    n_rows = grid_rows + int(np.count_nonzero(off_stride != hor))
    d, D = N * n, (N + 1) * n
    L = int(steps.max()) if n_open else 0
    _check_memory(len(Hs), L, N, n, n_open, n_rows)

    # output rows: the row of each knot (opening instant or horizon),
    # the knot each row follows, counted from the knot rows' marks, and
    # the grid steps past it
    out_ticks = np.sort(np.concatenate(
        (np.arange(0, hor + 1, stride), used_ticks, [hor])))
    out_ticks = out_ticks[np.append(True, out_ticks[1:] != out_ticks[:-1])]
    knots = np.append(starts, hor)
    knot_rows = np.searchsorted(out_ticks, knots)
    seg = np.zeros(n_rows, dtype=np.intp)
    seg[knot_rows[1:]] = 1
    np.cumsum(seg, out=seg)
    offset = out_ticks - knots[seg]
    # every other row is one product per (mode, offset) group: the rows
    # in key order, and the bounds and table block of each group; keys
    # of the least unsigned type that holds them, which numpy sorts by
    # radix up to 16 bits (in the same order as the int64 keys)
    inner = np.flatnonzero(offset)
    key = (mode_idx[seg[inner]] * (L + 1) + offset[inner]).astype(
        np.min_scalar_type(len(Hs) * (L + 1) - 1))
    order = np.argsort(key, kind="stable")
    grouped, key = inner[order], key[order]
    grouped_seg = seg[grouped]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    groups = list(zip(first.tolist(), np.append(first[1:], key.size).tolist(),
                      key[first].tolist()))
    # the table block of each interval
    keys = (mode_idx * (L + 1) + steps).tolist()

    # a diverging run ends in non-finite states, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        Phi = _transition_tables(a, b, Km, Hs, grid_h, L).reshape(-1, D, D)
        # z at every opening instant and at the horizon, and the outputs
        Z = np.empty((n_open + 1, D))
        Z[0, :d] = (foll0 - lead0[None, :]).reshape(-1)
        Z[0, d:] = lead0
        err = np.empty((n_rows, d))
        leader = np.empty((n_rows, n))

        def propagate(part, outs):
            """Step columns part of Z by the diagonal table blocks
            Phi[:, part, part], one product per interval, each writing
            its row of Z and being the next one's operand; then fill the
            output rows, one product per (mode, offset) group, each out
            array taking its columns of the product. Each out array and
            its columns are written as 1-D arrays of whole-row records,
            so that a row write is one 1-D assignment."""
            table, states = Phi[:, part, part], Z[:, part]
            # one view per table block an interval uses, not per interval
            blocks = {k: table[k] for k in set(keys)}
            z = states[0]
            for z_next, k in zip(states[1:], keys):
                z = blocks[k].dot(z, out=z_next)
            recs = []
            for out, cols in outs:
                row = np.dtype((np.void, out.shape[1] * out.itemsize))
                rec = out.view(row)[:, 0]
                rec[knot_rows] = states[:, cols].view(row)[:, 0]
                recs.append((rec, cols, row))
            for start, stop, k in groups:
                block = table[k].T
                for lo in range(start, stop, _GROUP_ROWS):
                    hi = min(lo + _GROUP_ROWS, stop)
                    rows = grouped[lo:hi]
                    prod = states.take(grouped_seg[lo:hi], axis=0) @ block
                    for rec, cols, row in recs:
                        rec[rows] = prod[:, cols].view(row)[:, 0]

        everything = slice(None)
        propagate(everything, ((err, slice(0, d)), (leader, slice(d, D))))
        if not np.isfinite(Z).all():
            # a non-finite state times an exact zero block is NaN, so a
            # run that left the float range steps its errors and its
            # leader apart, the one never touching the other
            propagate(slice(0, d), ((err, everything),))
            propagate(slice(d, D), ((leader, everything),))

    return SimulationResult(
        times=out_ticks.astype(float) * grid_h, leader=leader,
        errors=err.reshape(n_rows, N, n),
        instants=used_ticks.astype(float) * grid_h, modes=mode_idx,
        boundary_idx=knot_rows[:used_ticks.size],
        n_complete=n_complete, schedule=schedule)


# V(t) <= V(t_s) * (1 + slack) inside an interval
INTERVAL_SLACK = 1e-9
# V(t_{s+1}) / V(t_s) <= rho * (1 + slack)
RATIO_REL_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class ContractionReport:
    """Runtime check of the per-interval quadratic decay.

    V is x_err^T (D kron P) x_err at every output row and V_samples
    its values at the sampling instants. ratios[s] is
    V_samples[s+1] / V_samples[s] for each complete interval, NaN when
    V_samples[s] = 0 (vacuously passing) and inf when either value is
    not finite, so a run that left the float range never reads as
    decaying. worst_interval is the interval of the largest ratio
    (None when every interval is vacuous, and worst_ratio then 0).
    interval_violations counts intervals whose interior dense maximum
    exceeded the opening value beyond the allowed slack or where V is
    not finite, and worst_interval_slack is the largest relative excess
    seen (inf for an interval where V is not finite, negative when V
    strictly decayed inside every interval).

    rho evaluates (1 - beta2/beta1) e^(-beta1 T_low) + beta2/beta1
    with beta1 = c1 and beta2 = c2 * T_high^2, the decay factor the
    synthesis guarantees when every gap is at most T_high. When
    T_high is too large for that bound (beta2 >= beta1, so the formula
    no longer certifies decay), bound_feasible is False and the
    applied rho_threshold falls back to 1.0, which still detects
    growth at the samples. A beta2 / beta1 past the float range gives
    rho = inf.
    """

    V: np.ndarray
    V_samples: np.ndarray
    ratios: np.ndarray
    interval_violations: int
    worst_interval_slack: float
    rho: float
    bound_feasible: bool
    rho_threshold: float

    @functools.cached_property
    def worst_interval(self) -> int | None:
        if np.isnan(self.ratios).all():
            return None
        return int(np.nanargmax(self.ratios))

    @property
    def worst_ratio(self) -> float:
        s = self.worst_interval
        return 0.0 if s is None else float(self.ratios[s])

    @property
    def ratios_ok(self) -> bool:
        return self.worst_ratio <= self.rho_threshold * (1.0 + RATIO_REL_SLACK)

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
        # the terms (e_i P)_a e_ia of every row, then their sum weighted by D_i
        e = result.errors.reshape(-1, n)
        eP = e @ synth.P
        eP *= e
        V = eP.reshape(-1, N * n) @ np.repeat(synth.D, n)
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
            # an interval where V left the float range certifies nothing
            excess[~np.isfinite(seg_max)] = math.inf
            violations = int(np.count_nonzero(excess > INTERVAL_SLACK))
            worst = float(np.max(excess))

        V0 = V_samples[:result.n_complete]
        V1 = V_samples[1:result.n_complete + 1]
        ratios = np.full(result.n_complete, math.nan)
        positive = V0 > 0.0
        ratios[positive] = V1[positive] / V0[positive]
        ratios[~(np.isfinite(V0) & np.isfinite(V1))] = math.inf

    beta1 = synth.c1
    T_high = result.schedule.T_high
    beta2 = synth.c2 * (T_high * T_high)
    h = result.schedule.T_low
    # once beta2 / beta1 leaves the float range the formula reads
    # inf - inf; the factor it tends to there is inf
    rho = _rho(beta1, beta2, h) if beta2 / beta1 < math.inf else math.inf
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
