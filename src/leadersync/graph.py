"""Leader-rooted directed graphs, grounded Laplacians, and switching signals."""

from dataclasses import dataclass, field
import itertools

import numpy as np

from .errors import EnumerationTooLarge, InvalidTime

# grounded Laplacian M-matrix test: inverse entries may dip this far
# below zero
M_MATRIX_TOL = 1e-12


@dataclass(frozen=True)
class Topology:
    """Directed communication graph on nodes {0, ..., N}; node 0 leads.

    An edge (j, i) means agent i receives agent j's state. Edges into
    node 0 are allowed but never enter the grounded Laplacian.
    """

    N: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"follower count must be at least 1, got {self.N}")
        normalized = frozenset((int(j), int(i)) for j, i in self.edges)
        object.__setattr__(self, "edges", normalized)
        for j, i in normalized:
            if not (0 <= j <= self.N and 0 <= i <= self.N):
                raise ValueError(f"edge ({j}, {i}) references a node outside 0..{self.N}")
            if j == i:
                raise ValueError(f"self-loop ({j}, {i}) is not allowed")


ENUMERATION_CAP = 3


def _adjacency(t: Topology) -> np.ndarray:
    """0/1 adjacency on nodes 0..N: a[j, i] = 1 for each edge (j, i)."""
    a = np.zeros((t.N + 1, t.N + 1))
    for j, i in t.edges:
        a[j, i] = 1.0
    return a


def _grounded(adj) -> np.ndarray:
    """Grounded Laplacian of a 0/1 adjacency, or of each of a
    (..., N+1, N+1) stack: h_ii counts every in-edge of follower i,
    the leader's included, and h_ij = -1 for each follower in-edge
    (j, i). Edges into node 0 never enter."""
    a = np.asarray(adj, dtype=float)
    N = a.shape[-1] - 1
    H = np.zeros(a.shape[:-2] + (N, N))
    H[..., range(N), range(N)] = a[..., 1:].sum(axis=-2)
    # an adjacency's diagonal is 0; subtracting, not negating, keeps
    # the zero entries +0.0
    return H - a[..., 1:, 1:].swapaxes(-1, -2)


def _reachable(adj) -> np.ndarray:
    """True where every node of a 0/1 adjacency, or of each of a
    (..., N+1, N+1) stack, has a directed path from node 0. A path
    needs at most N edges and each product extends every path by one."""
    a = np.asarray(adj, dtype=float)
    reach = np.zeros(a.shape[:-2] + (1, a.shape[-1]))
    reach[..., 0, 0] = 1.0
    for _ in range(a.shape[-1] - 1):
        reach = np.minimum(reach + reach @ a, 1.0)
    return np.all(reach[..., 0, :] > 0.0, axis=-1)


def build_H(t: Topology) -> np.ndarray:
    """Read-only grounded Laplacian of a topology: h_ii counts all
    in-edges of follower i (leader included), h_ij = -1 for each
    follower in-edge (j, i)."""
    H = _grounded(_adjacency(t))
    H.flags.writeable = False
    return H


def leader_reachable(t: Topology) -> bool:
    """True iff every follower has a directed path from node 0."""
    return bool(_reachable(_adjacency(t)))


def admissible_laplacians(N: int):
    """Number of admissible digraphs on N followers and the (G, N, N)
    stack of their distinct grounded Laplacians.

    Bit k of a set's index stands for the k-th follower-target edge
    (j, i), i >= 1, ordered by target, then source; the sets that leave
    every follower reachable from the leader are kept in increasing
    index order. A set fixes H and H fixes the set, so G is the number
    of admissible sets. Edges into the leader neither reach H nor
    change reachability, so none is enumerated; each set stands for
    2^N digraphs, one per set of them, and the count is G << N.
    """
    if N < 1:
        raise ValueError(f"follower count must be at least 1, got {N}")
    if N > ENUMERATION_CAP:
        raise EnumerationTooLarge(
            f"enumeration supports at most {ENUMERATION_CAP} followers, got {N}")
    tgt, src = np.nonzero(~np.eye(N + 1, dtype=bool)[1:])
    bits = (np.arange(1 << tgt.size)[:, None] >> np.arange(tgt.size)) & 1
    adj = np.zeros((bits.shape[0], N + 1, N + 1))
    adj[:, src, tgt + 1] = bits
    adj = adj[_reachable(adj)]
    return adj.shape[0] << N, _grounded(adj)


def _all_nonsingular_M(Hs) -> bool:
    """True iff every matrix of a (..., N, N) stack is invertible with
    an elementwise nonnegative inverse (the defining property of a
    nonsingular M-matrix on Z-patterns)."""
    try:
        inv = np.linalg.inv(Hs)
    except np.linalg.LinAlgError:
        return False
    if not np.all(np.isfinite(inv)):
        return False
    return bool(np.min(inv) >= -M_MATRIX_TOL)


@dataclass(frozen=True)
class SwitchingSignal:
    """Piecewise-constant, right-continuous mode selector on [0, inf).

    Either a periodic pattern (period plus an ordered list of
    (mode, duration) phases) or an explicit event list of
    (switch time, mode) pairs starting at time 0.
    """

    mode_count: int
    period: float | None = None
    phases: tuple = ()
    events: tuple = ()

    def __post_init__(self):
        if self.mode_count < 1:
            raise ValueError(f"mode count must be at least 1, got {self.mode_count}")
        object.__setattr__(self, "phases",
                           tuple((int(m), float(d)) for m, d in self.phases))
        object.__setattr__(self, "events",
                           tuple((float(tm), int(m)) for tm, m in self.events))
        periodic = self.period is not None
        if periodic == bool(self.events):
            raise ValueError("exactly one of a periodic pattern or an event list is required")
        if periodic:
            if not self.phases:
                raise ValueError("a periodic signal needs at least one phase")
            if not self.period > 0.0:
                raise ValueError(f"period must be positive, got {self.period}")
            total = 0.0
            for mode, duration in self.phases:
                if not (0 <= mode < self.mode_count):
                    raise ValueError(f"mode {mode} is outside 0..{self.mode_count - 1}")
                if not duration > 0.0:
                    raise ValueError(f"phase duration must be positive, got {duration}")
                total += duration
            if abs(total - self.period) > 1e-9 * self.period:
                raise ValueError(
                    f"phase durations sum to {total}, which does not match the period {self.period}")
        else:
            if self.phases:
                raise ValueError("an event signal cannot carry phases")
            if self.events[0][0] != 0.0:
                raise ValueError("the first event must be at time 0")
            prev = -1.0
            for tm, mode in self.events:
                if not (0 <= mode < self.mode_count):
                    raise ValueError(f"mode {mode} is outside 0..{self.mode_count - 1}")
                if tm <= prev:
                    raise ValueError("event times must be strictly increasing")
                prev = tm

    @classmethod
    def static(cls) -> "SwitchingSignal":
        """Constant single-mode signal."""
        return cls(mode_count=1, events=((0.0, 0),))


def signal_mode(s: SwitchingSignal, t):
    """Active mode at time t; right-continuous at switch instants.

    t may be a float or an array of times: a float gives an int, an
    array an int64 array of its shape. Each time takes one binary
    search, over the accumulated phase ends of a periodic signal (by
    its offset tau = t - floor(t / period) * period into the period)
    or over the event times, so a whole schedule's modes cost one call.
    A negative or NaN time, or one too many periods past 0 for a float,
    raises InvalidTime.
    """
    ts = np.asarray(t, dtype=float)
    bad = ~(ts >= 0.0)
    if bad.any():
        raise InvalidTime(
            f"signal queried at time {float(ts[bad].flat[0])}; times must "
            f"be nonnegative")
    if s.period is not None:
        # a count of periods past the float range has no offset
        with np.errstate(over="ignore"):
            cycles = np.floor(ts / s.period)
        far = ~np.isfinite(cycles)
        if far.any():
            raise InvalidTime(
                f"signal queried at time {float(ts[far].flat[0])}, beyond "
                f"the float range of periods of {s.period}")
        tau = ts - cycles * s.period
        # phase k is active while tau < its end, the durations of phases
        # 0..k summed in order
        ends = list(itertools.accumulate(d for _, d in s.phases))
        k = np.searchsorted(ends, tau, side="right")
        # float shortfall: the ends can sum one ulp short of the period
        k = np.minimum(k, len(ends) - 1)
        modes = [m for m, _ in s.phases]
    else:
        k = np.searchsorted([tm for tm, _ in s.events], ts, side="right") - 1
        modes = [m for _, m in s.events]
    mode = np.array(modes, dtype=np.int64)[k]
    return int(mode) if mode.ndim == 0 else mode
