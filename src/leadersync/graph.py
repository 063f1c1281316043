"""Leader-rooted directed graphs, grounded Laplacians, and switching signals."""

from collections import deque
from dataclasses import dataclass, field
import math

import numpy as np

from .errors import InvalidTime
from .numerics import config


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


@dataclass(frozen=True, eq=False)
class GroundedLaplacian:
    """Follower-block matrix H with in-degree diagonal and -1 in-edges."""

    H: np.ndarray

    def __post_init__(self):
        a = np.array(self.H, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"H must be square, got shape {a.shape}")
        a.flags.writeable = False
        object.__setattr__(self, "H", a)


def build_H(t: Topology) -> GroundedLaplacian:
    """Grounded Laplacian: h_ii counts all in-edges of follower i
    (leader included), h_ij = -1 for each follower in-edge (j, i)."""
    H = np.zeros((t.N, t.N))
    for j, i in t.edges:
        if i == 0:
            continue
        H[i - 1, i - 1] += 1.0
        if j >= 1:
            H[i - 1, j - 1] -= 1.0
    return GroundedLaplacian(H)


def leader_reachable(t: Topology) -> bool:
    """True iff every follower has a directed path from node 0."""
    out = {k: [] for k in range(t.N + 1)}
    for j, i in t.edges:
        out[j].append(i)
    seen = {0}
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for nxt in out[node]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == t.N + 1


def is_nonsingular_M(gl: GroundedLaplacian) -> bool:
    """True iff H is invertible with an elementwise nonnegative inverse
    (the defining property of a nonsingular M-matrix on Z-patterns)."""
    return _all_nonsingular_M(gl.H)


def _all_nonsingular_M(Hs) -> bool:
    """is_nonsingular_M for every matrix of a (..., N, N) stack."""
    try:
        inv = np.linalg.inv(Hs)
    except np.linalg.LinAlgError:
        return False
    if not np.all(np.isfinite(inv)):
        return False
    return bool(np.min(inv) >= -config.M_MATRIX_TOL)


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


def signal_mode(s: SwitchingSignal, t: float) -> int:
    """Active mode at time t; right-continuous at switch instants."""
    if t < 0.0:
        raise InvalidTime(f"signal queried at negative time {t}")
    if s.period is not None:
        tau = t - math.floor(t / s.period) * s.period
        acc = 0.0
        for mode, duration in s.phases:
            acc += duration
            if tau < acc:
                return mode
        # float shortfall: the phase sums can land one ulp short of the period
        return s.phases[-1][0]
    mode = s.events[0][1]
    for tm, m in s.events:
        if tm <= t:
            mode = m
        else:
            break
    return mode
