"""Flat, line-oriented experiment descriptions.

One key per line, whitespace-separated tokens, `#` starts a comment.
Matrices are flattened row-major and prefixed with their dimensions.
The format round-trips exactly: scenario_text emits shortest
round-trip float representations, so parse(scenario_text(s)) == s.

Keys:
  name <token>                       experiment identifier
  A <n> <n*n floats>                 agent drift matrix
  B <n> <m> <n*m floats>             agent input matrix
  mu1 <float>, mu2 <float>           design weights
  topology <N> <j i ...>             one line per mode, directed edges
  period <float>                     periodic switching, with
  phase <mode> <duration>              one line per phase in order
  event <time> <mode>                aperiodic switching, first at 0
  T_low/T_high/grid_h/horizon <float>  sampling window and grid
  seed <u64>                         schedule generator seed
  x0 <n floats>                      leader initial state
  x<i> <n floats>                    follower i initial state, 1..N
  output_dt <float>                  optional dense-output pitch
  out_traj/out_sched <token>         optional CSV file names
  D <N floats>                       optional explicit diagonal scaling
  K <m*n floats>                     optional explicit gain (skips synthesis)
"""

import dataclasses
from dataclasses import dataclass
import math
import re

import numpy as np

from .errors import ScenarioError
from .graph import SwitchingSignal, Topology
from .sim import check_seed

_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
_FOLLOWER_RE = re.compile(r"^x([1-9][0-9]*)$")

_SCALAR_KEYS = ("name", "mu1", "mu2", "T_low", "T_high", "grid_h", "seed",
                "horizon", "x0", "output_dt", "out_traj", "out_sched",
                "A", "B", "D", "K", "period")
_REQUIRED_FULL = ("name", "A", "B", "mu1", "mu2", "T_low", "T_high",
                  "grid_h", "seed", "horizon", "x0")
_REQUIRED_MODEL = ("name", "A", "B", "mu1", "mu2")


@dataclass(eq=False)
class Scenario:
    """One complete closed-loop experiment."""

    name: str
    A: np.ndarray
    B: np.ndarray
    mu1: float
    mu2: float
    topologies: tuple
    signal: SwitchingSignal
    T_low: float
    T_high: float
    grid_h: float
    seed: int
    horizon: float
    x0_leader: np.ndarray
    x0_followers: np.ndarray
    output_dt: float | None = None
    out_traj: str | None = None
    out_sched: str | None = None
    D: np.ndarray | None = None
    K: np.ndarray | None = None

    def __eq__(self, other):
        """Field by field; an array field equals only an equal array."""
        if not isinstance(other, Scenario):
            return NotImplemented
        for f in dataclasses.fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                if a is None or b is None or not np.array_equal(a, b):
                    return False
            elif a != b:
                return False
        return True


@dataclass(frozen=True)
class ModelSpec:
    """The synthesis-relevant subset of a scenario."""

    name: str
    A: np.ndarray
    B: np.ndarray
    mu1: float
    mu2: float


def _float(tok: str, line: int, what: str) -> float:
    try:
        v = float(tok)
    except ValueError:
        raise ScenarioError(f"{what}: not a number: {tok!r}", line=line) from None
    if not math.isfinite(v):
        raise ScenarioError(f"{what}: value must be finite, got {tok}", line=line)
    return v


def _int(tok: str, line: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ScenarioError(f"{what}: not an integer: {tok!r}", line=line) from None


def _entries(text: str):
    """(lineno, key, tokens) for every meaningful line."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        out.append((lineno, toks[0], toks[1:]))
    return out


def _collect(text: str):
    """Group entries by key, rejecting duplicates of single-shot keys."""
    single = {}
    multi = {"topology": [], "phase": [], "event": []}
    followers = {}
    for lineno, key, toks in _entries(text):
        if key in multi:
            multi[key].append((lineno, toks))
            continue
        fm = _FOLLOWER_RE.match(key)
        if fm:
            i = int(fm.group(1))
            if i in followers:
                raise ScenarioError(f"duplicate key {key}", line=lineno)
            followers[i] = (lineno, toks)
            continue
        if key not in _SCALAR_KEYS:
            raise ScenarioError(f"unknown key {key!r}", line=lineno)
        if key in single:
            raise ScenarioError(f"duplicate key {key}", line=lineno)
        single[key] = (lineno, toks)
    return single, multi, followers


def _parse_model(single) -> ModelSpec:
    for key in _REQUIRED_MODEL:
        if key not in single:
            raise ScenarioError(f"missing required key {key}")

    ln, toks = single["name"]
    if len(toks) != 1 or not _NAME_RE.match(toks[0]):
        raise ScenarioError("name must be one token of [A-Za-z0-9_.-]", line=ln)
    name = toks[0]

    ln, toks = single["A"]
    if not toks:
        raise ScenarioError("A: missing dimension", line=ln)
    n = _int(toks[0], ln, "A")
    if n < 1 or len(toks) != 1 + n * n:
        raise ScenarioError(
            f"A: expected {n}*{n} entries after the dimension", line=ln)
    A = np.array([_float(t, ln, "A") for t in toks[1:]]).reshape(n, n)

    ln, toks = single["B"]
    if len(toks) < 2:
        raise ScenarioError("B: missing dimensions", line=ln)
    bn = _int(toks[0], ln, "B")
    bm = _int(toks[1], ln, "B")
    if bn != n:
        raise ScenarioError(f"B: row count {bn} does not match A size {n}", line=ln)
    if bm < 1 or len(toks) != 2 + bn * bm:
        raise ScenarioError(
            f"B: expected {bn}*{bm} entries after the dimensions", line=ln)
    B = np.array([_float(t, ln, "B") for t in toks[2:]]).reshape(bn, bm)

    mus = []
    for key in ("mu1", "mu2"):
        ln, toks = single[key]
        if len(toks) != 1:
            raise ScenarioError(f"{key}: expected one value", line=ln)
        v = _float(toks[0], ln, key)
        if not v > 0.0:
            raise ScenarioError(f"{key} must be positive, got {v}", line=ln)
        mus.append(v)
    return ModelSpec(name=name, A=A, B=B, mu1=mus[0], mu2=mus[1])


def parse_model(text: str) -> ModelSpec:
    """Extract just the model block; other valid keys are ignored."""
    single, _multi, _followers = _collect(text)
    return _parse_model(single)


def parse_scenario(text: str) -> Scenario:
    single, multi, followers = _collect(text)
    model = _parse_model(single)
    n = model.A.shape[0]
    m = model.B.shape[1]
    for key in _REQUIRED_FULL:
        if key not in single:
            raise ScenarioError(f"missing required key {key}")

    if not multi["topology"]:
        raise ScenarioError("missing required key topology")
    topologies = []
    N = None
    for ln, toks in multi["topology"]:
        if not toks:
            raise ScenarioError("topology: missing follower count", line=ln)
        tN = _int(toks[0], ln, "topology")
        if N is None:
            N = tN
        elif tN != N:
            raise ScenarioError(
                f"topology: follower count {tN} differs from {N}", line=ln)
        rest = toks[1:]
        if len(rest) % 2:
            raise ScenarioError("topology: edges must come in pairs", line=ln)
        edges = []
        for k in range(0, len(rest), 2):
            edges.append((_int(rest[k], ln, "topology"),
                          _int(rest[k + 1], ln, "topology")))
        try:
            topologies.append(Topology(tN, frozenset(edges)))
        except ValueError as e:
            raise ScenarioError(f"topology: {e}", line=ln) from None
    topologies = tuple(topologies)

    has_period = "period" in single
    has_phase = bool(multi["phase"])
    has_event = bool(multi["event"])
    if has_event and (has_period or has_phase):
        ln = multi["event"][0][0]
        raise ScenarioError(
            "event lines cannot be combined with period/phase", line=ln)
    if has_phase and not has_period:
        raise ScenarioError("phase lines require a period",
                            line=multi["phase"][0][0])
    if has_period and not has_phase:
        raise ScenarioError("period requires at least one phase line",
                            line=single["period"][0])
    try:
        if has_period:
            ln, toks = single["period"]
            if len(toks) != 1:
                raise ScenarioError("period: expected one value", line=ln)
            period = _float(toks[0], ln, "period")
            phases = []
            for pln, ptoks in multi["phase"]:
                if len(ptoks) != 2:
                    raise ScenarioError(
                        "phase: expected mode and duration", line=pln)
                phases.append((_int(ptoks[0], pln, "phase"),
                               _float(ptoks[1], pln, "phase")))
            signal = SwitchingSignal(mode_count=len(topologies), period=period,
                                     phases=tuple(phases))
        elif has_event:
            events = []
            for eln, etoks in multi["event"]:
                if len(etoks) != 2:
                    raise ScenarioError("event: expected time and mode", line=eln)
                events.append((_float(etoks[0], eln, "event"),
                               _int(etoks[1], eln, "event")))
            signal = SwitchingSignal(mode_count=len(topologies),
                                     events=tuple(events))
        else:
            if len(topologies) != 1:
                raise ScenarioError(
                    f"{len(topologies)} topologies given but no switching "
                    f"signal; static scenarios take exactly one")
            signal = SwitchingSignal.static()
    except ValueError as e:
        raise ScenarioError(f"switching signal: {e}") from None

    def scalar_float(key, positive=False):
        ln, toks = single[key]
        if len(toks) != 1:
            raise ScenarioError(f"{key}: expected one value", line=ln)
        v = _float(toks[0], ln, key)
        if positive and not v > 0.0:
            raise ScenarioError(f"{key} must be positive, got {v}", line=ln)
        return v

    T_low = scalar_float("T_low", positive=True)
    T_high = scalar_float("T_high", positive=True)
    if T_low > T_high:
        raise ScenarioError(
            f"T_low = {T_low} exceeds T_high = {T_high}",
            line=single["T_low"][0])
    grid_h = scalar_float("grid_h", positive=True)
    horizon = scalar_float("horizon", positive=True)

    ln, toks = single["seed"]
    if len(toks) != 1:
        raise ScenarioError("seed: expected one value", line=ln)
    try:
        seed = check_seed(_int(toks[0], ln, "seed"))
    except ValueError as e:
        raise ScenarioError(str(e), line=ln) from None

    ln, toks = single["x0"]
    if len(toks) != n:
        raise ScenarioError(f"x0: expected {n} entries", line=ln)
    x0_leader = np.array([_float(t, ln, "x0") for t in toks])

    for i in sorted(followers):
        if i > N:
            ln = followers[i][0]
            raise ScenarioError(
                f"x{i}: follower index exceeds the {N} followers", line=ln)
    rows = []
    for i in range(1, N + 1):
        if i not in followers:
            raise ScenarioError(f"missing required key x{i}")
        ln, toks = followers[i]
        if len(toks) != n:
            raise ScenarioError(f"x{i}: expected {n} entries", line=ln)
        rows.append([_float(t, ln, f"x{i}") for t in toks])
    x0_followers = np.array(rows)

    output_dt = None
    if "output_dt" in single:
        output_dt = scalar_float("output_dt", positive=True)

    def scalar_token(key):
        ln, toks = single[key]
        if len(toks) != 1:
            raise ScenarioError(f"{key}: expected one token", line=ln)
        return toks[0]

    out_traj = scalar_token("out_traj") if "out_traj" in single else None
    out_sched = scalar_token("out_sched") if "out_sched" in single else None

    D = None
    if "D" in single:
        ln, toks = single["D"]
        if len(toks) != N:
            raise ScenarioError(f"D: expected {N} entries", line=ln)
        D = np.array([_float(t, ln, "D") for t in toks])
        if np.min(D) <= 0.0:
            raise ScenarioError("D entries must be positive", line=ln)

    K = None
    if "K" in single:
        ln, toks = single["K"]
        if len(toks) != m * n:
            raise ScenarioError(f"K: expected {m}*{n} entries", line=ln)
        K = np.array([_float(t, ln, "K") for t in toks]).reshape(m, n)

    return Scenario(
        name=model.name, A=model.A, B=model.B, mu1=model.mu1, mu2=model.mu2,
        topologies=topologies, signal=signal, T_low=T_low, T_high=T_high,
        grid_h=grid_h, seed=seed, horizon=horizon, x0_leader=x0_leader,
        x0_followers=x0_followers, output_dt=output_dt, out_traj=out_traj,
        out_sched=out_sched, D=D, K=K)


def load_scenario(path) -> Scenario:
    with open(path, "r") as f:
        return parse_scenario(f.read())


def load_model(path) -> ModelSpec:
    with open(path, "r") as f:
        return parse_model(f.read())


def _fmt(x: float) -> str:
    return repr(float(x))


def scenario_text(sc: Scenario) -> str:
    """Canonical text form; parses back to an equal Scenario."""
    lines = [f"name {sc.name}"]
    n = sc.A.shape[0]
    m = sc.B.shape[1]
    lines.append("A " + " ".join([str(n)] + [_fmt(v) for v in sc.A.ravel()]))
    lines.append("B " + " ".join([str(n), str(m)]
                                 + [_fmt(v) for v in sc.B.ravel()]))
    lines.append(f"mu1 {_fmt(sc.mu1)}")
    lines.append(f"mu2 {_fmt(sc.mu2)}")
    for t in sc.topologies:
        toks = [str(t.N)]
        for j, i in sorted(t.edges):
            toks += [str(j), str(i)]
        lines.append("topology " + " ".join(toks))
    sig = sc.signal
    if sig.period is not None:
        lines.append(f"period {_fmt(sig.period)}")
        for mode, dur in sig.phases:
            lines.append(f"phase {mode} {_fmt(dur)}")
    elif sig != SwitchingSignal.static() or len(sc.topologies) != 1:
        for tm, mode in sig.events:
            lines.append(f"event {_fmt(tm)} {mode}")
    lines.append(f"T_low {_fmt(sc.T_low)}")
    lines.append(f"T_high {_fmt(sc.T_high)}")
    lines.append(f"grid_h {_fmt(sc.grid_h)}")
    lines.append(f"seed {sc.seed}")
    lines.append(f"horizon {_fmt(sc.horizon)}")
    lines.append("x0 " + " ".join(_fmt(v) for v in sc.x0_leader))
    for i in range(sc.x0_followers.shape[0]):
        lines.append(f"x{i + 1} "
                     + " ".join(_fmt(v) for v in sc.x0_followers[i]))
    if sc.output_dt is not None:
        lines.append(f"output_dt {_fmt(sc.output_dt)}")
    if sc.out_traj is not None:
        lines.append(f"out_traj {sc.out_traj}")
    if sc.out_sched is not None:
        lines.append(f"out_sched {sc.out_sched}")
    if sc.D is not None:
        lines.append("D " + " ".join(_fmt(v) for v in sc.D))
    if sc.K is not None:
        lines.append("K " + " ".join(_fmt(v) for v in sc.K.ravel()))
    return "\n".join(lines) + "\n"
