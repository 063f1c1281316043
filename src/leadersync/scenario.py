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
  K <m*n floats>                     optional explicit gain (design still runs)
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
# the decimal integers int() reads; one it refuses has too many digits
_INT_RE = re.compile(r"[+-]?\d+(?:_\d+)*")
_ECHO_MAX = 40

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


def _echo(tok: str) -> str:
    """A token as a message shows it: whole, or its first 12
    characters once it is longer than _ECHO_MAX."""
    return tok if len(tok) <= _ECHO_MAX else tok[:12] + "..."


def read_number(kind, tok: str):
    """kind(tok) for kind int or float. A token that kind refuses
    raises ValueError with a message that shows at most _ECHO_MAX
    characters of it, naming the digit count of an integer past
    int()'s digit limit."""
    try:
        return kind(tok)
    except ValueError:
        if kind is int and _INT_RE.fullmatch(tok):
            digits = sum(c.isdigit() for c in tok)
            raise ValueError(f"{_echo(tok)} has {digits} digits, too many "
                             f"to read") from None
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"not {noun}: {_echo(tok)!r}") from None


def _read(kind, tok: str, line: int, what: str):
    try:
        return read_number(kind, tok)
    except ValueError as exc:
        raise ScenarioError(f"{what}: {exc}", line=line) from None


def _float(tok: str, line: int, what: str) -> float:
    v = _read(float, tok, line, what)
    if not math.isfinite(v):
        raise ScenarioError(f"{what}: value must be finite, got {_echo(tok)}",
                            line=line)
    return v


def _int(tok: str, line: int, what: str) -> int:
    return _read(int, tok, line, what)


def _floats(entry, key, count=1, expected="one value") -> np.ndarray:
    """The count finite floats of a (line, tokens) entry, read in order."""
    ln, toks = entry
    if len(toks) != count:
        raise ScenarioError(f"{key}: expected {expected}", line=ln)
    return np.array([_float(t, ln, key) for t in toks])


def _number(entry, key, positive=True) -> float:
    """The one float of an entry, checked positive unless told not to."""
    v = float(_floats(entry, key)[0])
    if positive and not v > 0.0:
        raise ScenarioError(f"{key} must be positive, got {v}", line=entry[0])
    return v


def _token(entry, message, pattern=None) -> str:
    """The one token of an entry, which must match pattern when given."""
    ln, toks = entry
    if len(toks) != 1 or (pattern and not pattern.match(toks[0])):
        raise ScenarioError(message, line=ln)
    return toks[0]


def _dims(entry, key, count, missing):
    """The count leading integers of an entry, and the tokens after."""
    ln, toks = entry
    if len(toks) < count:
        raise ScenarioError(f"{key}: missing {missing}", line=ln)
    return [_int(t, ln, key) for t in toks[:count]], (ln, toks[count:])


def _matrix(entry, key, rows, cols, after):
    """A rows x cols matrix from the tokens after an entry's dimensions;
    a size below 1 matches no token count."""
    count = rows * cols if rows > 0 and cols > 0 else -1
    return _floats(entry, key, count,
                   f"{rows}*{cols} entries after the {after}").reshape(rows, cols)


def _pairs(lines, key, expected, first, second) -> tuple:
    """The two fields of each phase or event line, read in file order."""
    out = []
    for ln, toks in lines:
        if len(toks) != 2:
            raise ScenarioError(f"{key}: expected {expected}", line=ln)
        out.append((first(toks[0], ln, key), second(toks[1], ln, key)))
    return tuple(out)


def _missing(key):
    return ScenarioError(f"missing required key {key}")


def _collect(text: str):
    """Group the (line, tokens) entries of every meaningful line by key,
    rejecting unknown keys and duplicates of single-shot keys."""
    single = {}
    multi = {"topology": [], "phase": [], "event": []}
    followers = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        key = toks[0]
        if key in multi:
            multi[key].append((lineno, toks[1:]))
            continue
        fm = _FOLLOWER_RE.match(key)
        if fm:
            try:
                group, slot = followers, int(fm.group(1))
            except ValueError:  # past int()'s digit limit
                raise ScenarioError(
                    f"{key[:12]}...: follower index has {len(key) - 1} "
                    f"digits, too many to read", line=lineno) from None
        elif key in _SCALAR_KEYS:
            group, slot = single, key
        else:
            raise ScenarioError(f"unknown key {key!r}", line=lineno)
        if slot in group:
            raise ScenarioError(f"duplicate key {key}", line=lineno)
        group[slot] = (lineno, toks[1:])
    return single, multi, followers


def _parse_model(single) -> ModelSpec:
    for key in _REQUIRED_MODEL:
        if key not in single:
            raise _missing(key)
    name = _token(single["name"], "name must be one token of [A-Za-z0-9_.-]",
                  _NAME_RE)
    (n,), rest = _dims(single["A"], "A", 1, "dimension")
    A = _matrix(rest, "A", n, n, "dimension")
    (bn, bm), rest = _dims(single["B"], "B", 2, "dimensions")
    if bn != n:
        raise ScenarioError(f"B: row count {bn} does not match A size {n}",
                            line=rest[0])
    B = _matrix(rest, "B", bn, bm, "dimensions")
    return ModelSpec(name=name, A=A, B=B, mu1=_number(single["mu1"], "mu1"),
                     mu2=_number(single["mu2"], "mu2"))


def parse_model(text: str) -> ModelSpec:
    """Extract just the model block; other valid keys are ignored."""
    single, _multi, _followers = _collect(text)
    return _parse_model(single)


def _topologies(lines) -> tuple:
    """One Topology per topology line, all on the first line's count."""
    if not lines:
        raise _missing("topology")
    out = []
    for entry in lines:
        (N,), (ln, rest) = _dims(entry, "topology", 1, "follower count")
        if out and N != out[0].N:
            raise ScenarioError(
                f"topology: follower count {N} differs from {out[0].N}", line=ln)
        if len(rest) % 2:
            raise ScenarioError("topology: edges must come in pairs", line=ln)
        ends = [_int(t, ln, "topology") for t in rest]
        try:
            out.append(Topology(N, frozenset(zip(ends[::2], ends[1::2]))))
        except ValueError as e:
            raise ScenarioError(f"topology: {e}", line=ln) from None
    return tuple(out)


def _signal(period, phases, events, modes) -> SwitchingSignal:
    """The switching signal of a period entry (or None) with its phase
    lines, of event lines, or the static one of a single topology."""
    if events and (period or phases):
        raise ScenarioError(
            "event lines cannot be combined with period/phase", line=events[0][0])
    if phases and not period:
        raise ScenarioError("phase lines require a period", line=phases[0][0])
    if period and not phases:
        raise ScenarioError("period requires at least one phase line",
                            line=period[0])
    if not (period or events) and modes != 1:
        raise ScenarioError(f"{modes} topologies given but no switching "
                            f"signal; static scenarios take exactly one")
    try:
        if period:
            return SwitchingSignal(
                mode_count=modes, period=_number(period, "period", positive=False),
                phases=_pairs(phases, "phase", "mode and duration", _int, _float))
        if events:
            return SwitchingSignal(mode_count=modes, events=_pairs(
                events, "event", "time and mode", _float, _int))
        return SwitchingSignal.static()
    except ValueError as e:
        raise ScenarioError(f"switching signal: {e}") from None


def parse_scenario(text: str) -> Scenario:
    single, multi, followers = _collect(text)
    model = _parse_model(single)
    n = model.A.shape[0]
    m = model.B.shape[1]
    for key in _REQUIRED_FULL:
        if key not in single:
            raise _missing(key)
    topologies = _topologies(multi["topology"])
    N = topologies[0].N
    signal = _signal(single.get("period"), multi["phase"], multi["event"],
                     len(topologies))

    T_low = _number(single["T_low"], "T_low")
    T_high = _number(single["T_high"], "T_high")
    if T_low > T_high:
        raise ScenarioError(f"T_low = {T_low} exceeds T_high = {T_high}",
                            line=single["T_low"][0])
    grid_h = _number(single["grid_h"], "grid_h")
    horizon = _number(single["horizon"], "horizon")
    ln = single["seed"][0]
    try:
        seed = check_seed(_int(_token(single["seed"], "seed: expected one value"),
                               ln, "seed"))
    except ValueError as e:
        raise ScenarioError(str(e), line=ln) from None
    x0_leader = _floats(single["x0"], "x0", n, f"{n} entries")

    for i in sorted(followers):
        if i > N:
            raise ScenarioError(
                f"x{i}: follower index exceeds the {N} followers",
                line=followers[i][0])
    rows = []
    for i in range(1, N + 1):
        if i not in followers:
            raise _missing(f"x{i}")
        rows.append(_floats(followers[i], f"x{i}", n, f"{n} entries"))

    output_dt = (_number(single["output_dt"], "output_dt")
                 if "output_dt" in single else None)
    out_traj, out_sched = (
        _token(single[key], f"{key}: expected one token") if key in single
        else None for key in ("out_traj", "out_sched"))
    D = K = None
    if "D" in single:
        D = _floats(single["D"], "D", N, f"{N} entries")
        if np.min(D) <= 0.0:
            raise ScenarioError("D entries must be positive", line=single["D"][0])
    if "K" in single:
        K = _floats(single["K"], "K", m * n, f"{m}*{n} entries").reshape(m, n)
    return Scenario(
        name=model.name, A=model.A, B=model.B, mu1=model.mu1, mu2=model.mu2,
        topologies=topologies, signal=signal, T_low=T_low, T_high=T_high,
        grid_h=grid_h, seed=seed, horizon=horizon, x0_leader=x0_leader,
        x0_followers=np.array(rows), output_dt=output_dt, out_traj=out_traj,
        out_sched=out_sched, D=D, K=K)


def load_scenario(path) -> Scenario:
    with open(path, "r") as f:
        return parse_scenario(f.read())


def load_model(path) -> ModelSpec:
    with open(path, "r") as f:
        return parse_model(f.read())


def scenario_text(sc: Scenario) -> str:
    """Canonical text form; parses back to an equal Scenario."""
    lines = []

    def put(key, *values):
        """One line: strings as given, each other value as the shortest
        float repr that reads back to it."""
        lines.append(" ".join([key] + [v if isinstance(v, str) else repr(float(v))
                                       for v in values]))

    n, m = sc.A.shape[0], sc.B.shape[1]
    put("name", sc.name)
    put("A", str(n), *sc.A.ravel())
    put("B", str(n), str(m), *sc.B.ravel())
    put("mu1", sc.mu1)
    put("mu2", sc.mu2)
    for t in sc.topologies:
        put("topology", str(t.N), *(str(k) for e in sorted(t.edges) for k in e))
    sig = sc.signal
    if sig.period is not None:
        put("period", sig.period)
        for mode, dur in sig.phases:
            put("phase", str(mode), dur)
    elif sig != SwitchingSignal.static() or len(sc.topologies) != 1:
        for tm, mode in sig.events:
            put("event", tm, str(mode))
    for key in ("T_low", "T_high", "grid_h"):
        put(key, getattr(sc, key))
    put("seed", str(sc.seed))
    put("horizon", sc.horizon)
    put("x0", *sc.x0_leader)
    for i, row in enumerate(sc.x0_followers, start=1):
        put(f"x{i}", *row)
    for key in ("output_dt", "out_traj", "out_sched"):
        if getattr(sc, key) is not None:
            put(key, getattr(sc, key))
    if sc.D is not None:
        put("D", *sc.D)
    if sc.K is not None:
        put("K", *sc.K.ravel())
    return "\n".join(lines) + "\n"
