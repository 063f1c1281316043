import dataclasses
from pathlib import Path

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from leadersync import (Scenario, SwitchingSignal, Topology, load_scenario,
                        parse_scenario, scenario_text)
from leadersync.errors import ScenarioError
from leadersync.scenario import parse_model

from conftest import STATIC, SWITCHING

TINY = """\
name tiny
A 2  -0.38 0.72  -0.68 0.42
B 2 1  0.26 0.31
mu1 1.0
mu2 1.0
topology 2  0 1  1 2
T_low 0.001
T_high 0.01
grid_h 0.001
seed 7
horizon 1.0
x0 1.0 -1.0
x1 2.0 0.5
x2 -1.0 0.4
"""


def _mutate(remove=None, append=None, replace=None):
    lines = TINY.splitlines()
    if remove is not None:
        lines = [l for l in lines if not l.startswith(remove + " ")]
    if replace is not None:
        old, new = replace
        lines = [new if l.startswith(old + " ") else l for l in lines]
    if append is not None:
        lines.append(append)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------- round trips

def test_static_demo_text_round_trip():
    sc = load_scenario(STATIC)
    assert parse_scenario(scenario_text(sc)) == sc


def test_switching_demo_text_round_trip():
    sc = load_scenario(SWITCHING)
    assert parse_scenario(scenario_text(sc)) == sc


def test_file_round_trip(tmp_path):
    sc = load_scenario(SWITCHING)
    path = tmp_path / "sc.txt"
    path.write_text(scenario_text(sc))
    assert load_scenario(path) == sc


def test_bundled_files_are_canonical():
    for path in (STATIC, SWITCHING):
        assert Path(path).read_text() == scenario_text(load_scenario(path))


def test_optional_fields_round_trip():
    sc = load_scenario(STATIC)
    text = scenario_text(sc)
    assert "out_traj" in text
    assert sc.D is None and sc.K is None
    explicit = _mutate(append="D 1.0 0.5\nK 0.8 1.2\noutput_dt 0.01")
    parsed = parse_scenario(explicit)
    assert np.allclose(parsed.D, [1.0, 0.5])
    assert np.allclose(parsed.K, [[0.8, 1.2]])
    assert parsed.output_dt == 0.01
    assert parse_scenario(scenario_text(parsed)) == parsed


# finite floats, with -0.0 and subnormals named so every run has them
FINITE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308]),
                   st.floats(allow_nan=False, allow_infinity=False))
POSITIVE = st.one_of(st.sampled_from([5e-324, 1e-310]),
                     st.floats(min_value=0.0, max_value=1e300,
                               exclude_min=True))
TOKEN = st.from_regex(r"[A-Za-z0-9_.-]{1,12}", fullmatch=True)


def _matrix(draw, rows, cols):
    return np.array(draw(st.lists(FINITE, min_size=rows * cols,
                                  max_size=rows * cols))).reshape(rows, cols)


@st.composite
def scenarios(draw):
    """Valid scenarios of every shape the format allows: static,
    periodic and event signals, each optional key present or not."""
    n, m, N = draw(st.integers(1, 3)), draw(st.integers(1, 2)), \
        draw(st.integers(1, 4))
    pairs = [(j, i) for j in range(N + 1) for i in range(N + 1) if j != i]
    kind = draw(st.sampled_from(["static", "periodic", "event"]))
    modes = 1 if kind == "static" else draw(st.integers(1, 3))
    topologies = tuple(
        Topology(N, frozenset(draw(st.lists(st.sampled_from(pairs)))))
        for _ in range(modes))
    mode = st.integers(0, modes - 1)
    if kind == "static":
        signal = SwitchingSignal.static()
    elif kind == "periodic":
        phases = draw(st.lists(st.tuples(mode, POSITIVE), min_size=1,
                               max_size=4))
        total = 0.0
        for _, duration in phases:
            total += duration
        signal = SwitchingSignal(mode_count=modes, period=total,
                                 phases=tuple(phases))
    else:
        times = draw(st.lists(POSITIVE, max_size=4, unique=True))
        events = [(0.0, draw(mode))] + [(t, draw(mode)) for t in
                                        sorted(times)]
        signal = SwitchingSignal(mode_count=modes, events=tuple(events))
    T_low, T_high = sorted(draw(st.lists(POSITIVE, min_size=2, max_size=2)))

    def optional(strategy):
        return draw(strategy) if draw(st.booleans()) else None

    D = optional(st.lists(POSITIVE, min_size=N, max_size=N))
    return Scenario(
        name=draw(TOKEN), A=_matrix(draw, n, n), B=_matrix(draw, n, m),
        mu1=draw(POSITIVE), mu2=draw(POSITIVE), topologies=topologies,
        signal=signal, T_low=T_low, T_high=T_high, grid_h=draw(POSITIVE),
        seed=draw(st.integers(0, (1 << 64) - 1)), horizon=draw(POSITIVE),
        x0_leader=_matrix(draw, 1, n).reshape(n),
        x0_followers=_matrix(draw, N, n), output_dt=optional(POSITIVE),
        out_traj=optional(TOKEN), out_sched=optional(TOKEN),
        D=None if D is None else np.array(D),
        K=_matrix(draw, m, n) if draw(st.booleans()) else None)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(sc=scenarios())
def test_scenario_text_round_trip_property(sc):
    text = scenario_text(sc)
    back = parse_scenario(text)
    assert back == sc
    # the text keeps what == cannot see, such as the sign of -0.0
    assert scenario_text(back) == text


def test_tiny_parses_and_tolerates_comments():
    noisy = TINY.replace("mu1 1.0", "mu1 1.0   # weight")
    noisy = "# leading comment\n\n" + noisy + "\n   \n# trailing\n"
    sc = parse_scenario(noisy)
    assert sc.name == "tiny"
    assert sc.mu1 == 1.0
    assert sc.topologies[0].N == 2
    assert sc.signal.mode_count == 1
    assert np.allclose(sc.x0_followers, [[2.0, 0.5], [-1.0, 0.4]])


def test_parse_model_ignores_scenario_keys():
    ms = parse_model(TINY)
    assert ms.name == "tiny"
    assert np.allclose(ms.A, [[-0.38, 0.72], [-0.68, 0.42]])
    assert np.allclose(ms.B, [[0.26], [0.31]])
    assert ms.mu1 == ms.mu2 == 1.0


# --------------------------------------------------------- error paths

def test_unknown_key_reports_line():
    with pytest.raises(ScenarioError) as e:
        parse_scenario(_mutate(append="bogus 3"))
    assert e.value.line == len(TINY.splitlines()) + 1
    assert "unknown key" in str(e.value)


def test_duplicate_key_reports_line():
    with pytest.raises(ScenarioError, match="duplicate key seed"):
        parse_scenario(_mutate(append="seed 8"))


def test_missing_required_key():
    with pytest.raises(ScenarioError, match="missing required key horizon"):
        parse_scenario(_mutate(remove="horizon"))


def test_bad_number_reports_line_and_key():
    with pytest.raises(ScenarioError, match="line 4: mu1: not a number"):
        parse_scenario(_mutate(replace=("mu1", "mu1 abc")))


def test_odd_edge_tokens():
    with pytest.raises(ScenarioError, match="pairs"):
        parse_scenario(_mutate(replace=("topology", "topology 2  0 1  1")))


def test_follower_state_out_of_range():
    with pytest.raises(ScenarioError, match="x3: follower index exceeds"):
        parse_scenario(_mutate(append="x3 0.0 0.0"))


def test_missing_follower_state():
    with pytest.raises(ScenarioError, match="missing required key x2"):
        parse_scenario(_mutate(remove="x2"))


def test_wrong_state_arity():
    with pytest.raises(ScenarioError, match="x0: expected 2 entries"):
        parse_scenario(_mutate(replace=("x0", "x0 1.0")))


def test_seed_range():
    with pytest.raises(ScenarioError, match="unsigned 64-bit"):
        parse_scenario(_mutate(replace=("seed", "seed -1")))
    with pytest.raises(ScenarioError, match="unsigned 64-bit"):
        parse_scenario(_mutate(replace=("seed", f"seed {1 << 64}")))


def test_interval_bounds_ordered():
    with pytest.raises(ScenarioError, match="T_low"):
        parse_scenario(_mutate(replace=("T_low", "T_low 0.5")))


def test_period_and_event_conflict():
    bad = _mutate(append="period 1.0\nphase 0 1.0\nevent 0.0 0")
    with pytest.raises(ScenarioError):
        parse_scenario(bad)


def test_phase_without_period():
    with pytest.raises(ScenarioError, match="period"):
        parse_scenario(_mutate(append="phase 0 1.0"))


def test_static_rejects_multiple_topologies():
    bad = _mutate(append="topology 2  0 1  0 2")
    with pytest.raises(ScenarioError):
        parse_scenario(bad)


def test_gain_arity():
    with pytest.raises(ScenarioError, match=r"K: expected 1\*2 entries"):
        parse_scenario(_mutate(append="K 0.8 1.2 0.5"))


def test_scaling_positivity():
    with pytest.raises(ScenarioError, match="D entries must be positive"):
        parse_scenario(_mutate(append="D 1.0 0.0"))
    with pytest.raises(ScenarioError, match="D: expected 2 entries"):
        parse_scenario(_mutate(append="D 1.0"))


def test_bad_topology_edge():
    with pytest.raises(ScenarioError, match="topology"):
        parse_scenario(_mutate(replace=("topology", "topology 2  0 0")))


def test_model_validation():
    with pytest.raises(ScenarioError, match="mu1 must be positive"):
        parse_scenario(_mutate(replace=("mu1", "mu1 -1.0")))
    with pytest.raises(ScenarioError, match="B: row count"):
        parse_scenario(_mutate(replace=("B", "B 1 1  0.26")))
    with pytest.raises(ScenarioError, match="name"):
        parse_scenario(_mutate(replace=("name", "name two tokens")))


def _one_entry_changed(a):
    b = np.array(a, dtype=float)
    b.flat[0] += 1.0
    return b


def test_scenario_differs_in_each_field():
    sc = load_scenario(STATIC)
    top = sc.topologies[0]
    # move the edge (4, 3) to (4, 1)
    other_top = Topology(top.N, (top.edges - {(4, 3)}) | {(4, 1)})
    changed = {
        "name": "other_demo",
        "A": _one_entry_changed(sc.A),
        "B": _one_entry_changed(sc.B),
        "mu1": 2.0,
        "mu2": 2.0,
        "topologies": (other_top,),
        "signal": SwitchingSignal(mode_count=1, period=1.0,
                                  phases=((0, 1.0),)),
        "T_low": 0.002,
        "T_high": 0.017,
        "grid_h": 0.0005,
        "seed": 8,
        "horizon": 31.0,
        "x0_leader": _one_entry_changed(sc.x0_leader),
        "x0_followers": _one_entry_changed(sc.x0_followers),
        "output_dt": 0.01,
        "out_traj": "other_trajectory.csv",
        "out_sched": "other_schedule.csv",
        "D": np.ones(4),
        "K": np.array([[0.5, 0.5]]),
    }
    assert sorted(changed) == sorted(f.name for f in
                                     dataclasses.fields(Scenario))
    assert sc.D is None and sc.K is None
    assert sc == dataclasses.replace(sc)
    for name, value in changed.items():
        copy = dataclasses.replace(sc, **{name: value})
        assert copy != sc and sc != copy, name
        assert not copy == sc, name
    assert (sc == "text") is False


# ------------------------------------------- golden messages, one per rule

def _swap(key, new):
    return _mutate(replace=(key, new))


def _plus(lines):
    return _mutate(append=lines)


# (id, text, the exact message, its line); at least one case per place
# the parser raises, plus cases that pin which fault is reported first
GOLDEN = [
    ("float-not-a-number", _swap("mu1", "mu1 abc"),
     "line 4: mu1: not a number: 'abc'", 4),
    ("float-not-finite", _swap("mu1", "mu1 inf"),
     "line 4: mu1: value must be finite, got inf", 4),
    ("float-nan", _swap("x0", "x0 1.0 nan"),
     "line 12: x0: value must be finite, got nan", 12),
    ("float-first-bad-token-wins", _swap("A", "A 2 1 inf abc 2"),
     "line 2: A: value must be finite, got inf", 2),
    ("int-not-an-integer", _swap("A", "A x 1 2 3 4"),
     "line 2: A: not an integer: 'x'", 2),
    ("duplicate-follower", _plus("x1 0 0"), "line 15: duplicate key x1", 15),
    ("unknown-key", _plus("bogus 3"), "line 15: unknown key 'bogus'", 15),
    ("unknown-follower-like-key", _plus("x01 0 0"),
     "line 15: unknown key 'x01'", 15),
    ("duplicate-key", _plus("seed 8"), "line 15: duplicate key seed", 15),
    ("collect-before-model", _plus("seed 8\nmu1 abc"),
     "line 15: duplicate key seed", 15),
    ("missing-model-key", _mutate(remove="mu2"),
     "missing required key mu2", None),
    ("model-keys-before-name", _mutate(remove="mu2").replace(
        "name tiny", "name a b"), "missing required key mu2", None),
    ("name-two-tokens", _swap("name", "name two tokens"),
     "line 1: name must be one token of [A-Za-z0-9_.-]", 1),
    ("name-bad-character", _swap("name", "name a/b"),
     "line 1: name must be one token of [A-Za-z0-9_.-]", 1),
    ("name-empty", _swap("name", "name"),
     "line 1: name must be one token of [A-Za-z0-9_.-]", 1),
    ("A-missing-dimension", _swap("A", "A"),
     "line 2: A: missing dimension", 2),
    ("A-entry-count", _swap("A", "A 2 1 2 3"),
     "line 2: A: expected 2*2 entries after the dimension", 2),
    ("A-zero-size", _swap("A", "A 0"),
     "line 2: A: expected 0*0 entries after the dimension", 2),
    ("A-negative-size", _swap("A", "A -1 5"),
     "line 2: A: expected -1*-1 entries after the dimension", 2),
    ("B-missing-dimensions", _swap("B", "B 2"),
     "line 3: B: missing dimensions", 3),
    ("B-bad-column-count", _swap("B", "B 2 y 0.26"),
     "line 3: B: not an integer: 'y'", 3),
    ("B-row-count", _swap("B", "B 1 1 0.26"),
     "line 3: B: row count 1 does not match A size 2", 3),
    ("B-entry-count", _swap("B", "B 2 1 0.26"),
     "line 3: B: expected 2*1 entries after the dimensions", 3),
    ("B-zero-columns", _swap("B", "B 2 0"),
     "line 3: B: expected 2*0 entries after the dimensions", 3),
    ("mu-one-value", _swap("mu2", "mu2 1 2"),
     "line 5: mu2: expected one value", 5),
    ("mu-positive", _swap("mu1", "mu1 -1.0"),
     "line 4: mu1 must be positive, got -1.0", 4),
    ("mu-negative-zero", _swap("mu2", "mu2 -0"),
     "line 5: mu2 must be positive, got -0.0", 5),
    ("missing-key", _mutate(remove="horizon"),
     "missing required key horizon", None),
    ("missing-topology", _mutate(remove="topology"),
     "missing required key topology", None),
    ("topology-follower-count", _swap("topology", "topology"),
     "line 6: topology: missing follower count", 6),
    ("topology-count-differs", _plus("topology 3 0 1"),
     "line 15: topology: follower count 3 differs from 2", 15),
    ("topology-pairs", _swap("topology", "topology 2 0 1 1"),
     "line 6: topology: edges must come in pairs", 6),
    ("topology-pairs-before-integers", _swap("topology", "topology 2 0 x 1"),
     "line 6: topology: edges must come in pairs", 6),
    ("topology-edge-integer", _swap("topology", "topology 2 0 x"),
     "line 6: topology: not an integer: 'x'", 6),
    ("topology-self-loop", _swap("topology", "topology 2 0 0"),
     "line 6: topology: self-loop (0, 0) is not allowed", 6),
    ("topology-no-followers", _swap("topology", "topology 0"),
     "line 6: topology: follower count must be at least 1, got 0", 6),
    ("topology-node-range", _swap("topology", "topology 2 0 5"),
     "line 6: topology: edge (0, 5) references a node outside 0..2", 6),
    ("event-with-period", _plus("period 1.0\nphase 0 1.0\nevent 0.0 0"),
     "line 17: event lines cannot be combined with period/phase", 17),
    ("phase-without-period", _plus("phase 0 1.0"),
     "line 15: phase lines require a period", 15),
    ("period-without-phase", _plus("period 1.0"),
     "line 15: period requires at least one phase line", 15),
    ("period-one-value", _plus("period 1 2\nphase 0 1.0"),
     "line 15: period: expected one value", 15),
    ("period-before-phase", _plus("phase 0\nperiod abc"),
     "line 16: period: not a number: 'abc'", 16),
    ("phase-two-fields", _plus("period 1.0\nphase 0"),
     "line 16: phase: expected mode and duration", 16),
    ("phase-mode-integer", _plus("period 1.0\nphase 0.5 1.0"),
     "line 16: phase: not an integer: '0.5'", 16),
    ("event-two-fields", _plus("event 0.0"),
     "line 15: event: expected time and mode", 15),
    ("event-time-first", _plus("event zero x"),
     "line 15: event: not a number: 'zero'", 15),
    ("static-one-topology", _plus("topology 2 0 1 0 2"),
     "2 topologies given but no switching signal; static scenarios take "
     "exactly one", None),
    ("signal-phase-sum", _plus("period 1.0\nphase 0 0.5"),
     "switching signal: phase durations sum to 0.5, which does not match "
     "the period 1.0", None),
    ("signal-first-event", _plus("event 1.0 0"),
     "switching signal: the first event must be at time 0", None),
    ("signal-period-positive", _plus("period -1\nphase 0 1.0"),
     "switching signal: period must be positive, got -1.0", None),
    ("scalar-one-value", _swap("T_high", "T_high 0.01 0.02"),
     "line 8: T_high: expected one value", 8),
    ("scalar-positive", _swap("grid_h", "grid_h 0"),
     "line 9: grid_h must be positive, got 0.0", 9),
    ("signal-before-scalars", _plus("event 1.0 0").replace(
        "grid_h 0.001", "grid_h 0"),
     "switching signal: the first event must be at time 0", None),
    ("T-order", _swap("T_low", "T_low 0.5"),
     "line 7: T_low = 0.5 exceeds T_high = 0.01", 7),
    ("T-order-before-grid", _swap("T_low", "T_low 0.5").replace(
        "grid_h 0.001", "grid_h -1"),
     "line 7: T_low = 0.5 exceeds T_high = 0.01", 7),
    ("seed-one-value", _swap("seed", "seed 1 2"),
     "line 10: seed: expected one value", 10),
    ("seed-integer", _swap("seed", "seed 1.5"),
     "line 10: seed: not an integer: '1.5'", 10),
    ("seed-range", _swap("seed", "seed -1"),
     "line 10: seed must be an unsigned 64-bit integer, got -1", 10),
    ("seed-digit-limit", _swap("seed", "seed " + "7" * 5000),
     "line 10: seed: 777777777777... has 5000 digits, too many to read", 10),
    ("seed-digit-limit-underscores",
     _swap("seed", "seed " + "1_" * 4500 + "1"),
     "line 10: seed: 1_1_1_1_1_1_... has 4501 digits, too many to read", 10),
    ("seed-range-wide", _swap("seed", "seed " + "7" * 4000),
     "line 10: seed must be an unsigned 64-bit integer, got a 13288-bit "
     "integer", 10),
    ("seed-long-token", _swap("seed", "seed " + "7" * 50 + "x"),
     "line 10: seed: not an integer: '777777777777...'", 10),
    ("topology-digit-limit", _swap("topology", "topology " + "2" * 5000),
     "line 6: topology: 222222222222... has 5000 digits, too many to read",
     6),
    ("float-token-at-echo-limit", _swap("mu1", "mu1 " + "a" * 40),
     "line 4: mu1: not a number: '" + "a" * 40 + "'", 4),
    ("float-long-token", _swap("mu1", "mu1 " + "a" * 41),
     "line 4: mu1: not a number: 'aaaaaaaaaaaa...'", 4),
    ("float-long-not-finite", _swap("mu1", "mu1 " + "9" * 5000),
     "line 4: mu1: value must be finite, got 999999999999...", 4),
    ("x0-entries", _swap("x0", "x0 1.0"),
     "line 12: x0: expected 2 entries", 12),
    ("follower-index", _plus("x3 0 0"),
     "line 15: x3: follower index exceeds the 2 followers", 15),
    ("follower-index-smallest", _plus("x9 0 0\nx4 0 0"),
     "line 16: x4: follower index exceeds the 2 followers", 16),
    ("follower-index-digit-limit", _plus("x" + "1" * 5000 + " 0 0"),
     "line 15: x11111111111...: follower index has 5000 digits, too many "
     "to read", 15),
    ("missing-follower", _mutate(remove="x2"),
     "missing required key x2", None),
    ("follower-entries", _swap("x1", "x1 1.0"),
     "line 13: x1: expected 2 entries", 13),
    ("follower-order", _swap("x1", "x1 1.0").replace("x2 -1.0 0.4\n", ""),
     "line 13: x1: expected 2 entries", 13),
    ("follower-value", _swap("x2", "x2 1.0 -inf"),
     "line 14: x2: value must be finite, got -inf", 14),
    ("output-dt-positive", _plus("output_dt -0.5"),
     "line 15: output_dt must be positive, got -0.5", 15),
    ("token-one", _plus("out_traj a b"),
     "line 15: out_traj: expected one token", 15),
    ("token-sched", _plus("out_sched"),
     "line 15: out_sched: expected one token", 15),
    ("D-entries", _plus("D 1.0"), "line 15: D: expected 2 entries", 15),
    ("D-positive", _plus("D 1.0 0.0"),
     "line 15: D entries must be positive", 15),
    ("D-values-before-sign", _plus("D -1.0 abc"),
     "line 15: D: not a number: 'abc'", 15),
    ("K-entries", _plus("K 1 2 3"), "line 15: K: expected 1*2 entries", 15),
    ("K-value", _plus("K 1 nan"), "line 15: K: value must be finite, got nan",
     15),
    ("optional-order", _plus("K 1\nD 1\nout_traj\noutput_dt 0"),
     "line 18: output_dt must be positive, got 0.0", 18),
]


@pytest.mark.parametrize("text,message,line",
                         [case[1:] for case in GOLDEN],
                         ids=[case[0] for case in GOLDEN])
def test_golden_error_messages(text, message, line):
    with pytest.raises(ScenarioError) as e:
        parse_scenario(text)
    assert str(e.value) == message
    assert e.value.line == line


# parse_model reads the model keys and the line grouping only
GOLDEN_MODEL = [
    ("ignores-bad-scenario-keys", _swap("seed", "seed x"), None, None),
    ("ignores-missing-topology", _mutate(remove="topology"), None, None),
    ("unknown-key", _plus("bogus"), "line 15: unknown key 'bogus'", 15),
    ("duplicate-key", _plus("horizon 2"),
     "line 15: duplicate key horizon", 15),
    ("missing-key", _mutate(remove="B"), "missing required key B", None),
    ("bad-matrix", _swap("A", "A 2 1 2 3 q"),
     "line 2: A: not a number: 'q'", 2),
    ("bad-weight", _swap("mu2", "mu2 0"),
     "line 5: mu2 must be positive, got 0.0", 5),
]


@pytest.mark.parametrize("text,message,line",
                         [case[1:] for case in GOLDEN_MODEL],
                         ids=[case[0] for case in GOLDEN_MODEL])
def test_golden_model_messages(text, message, line):
    if message is None:
        ms = parse_model(text)
        assert ms.name == "tiny" and ms.mu1 == ms.mu2 == 1.0
        assert np.array_equal(ms.A, parse_model(TINY).A)
        return
    with pytest.raises(ScenarioError) as e:
        parse_model(text)
    assert str(e.value) == message
    assert e.value.line == line


# ------------------------------------------------- fuzzed demo text

_KEYS = ["name", "A", "B", "mu1", "mu2", "topology", "period", "phase",
         "event", "T_low", "T_high", "grid_h", "seed", "horizon", "x0", "x1",
         "x4", "x5", "output_dt", "out_traj", "out_sched", "D", "K", "bogus"]
_TOKENS = ["0", "1", "-1", "2", "3", "4", "5", "0.5", "-0", "1.0", "1e999",
           "-inf", "nan", "x", "1_0", "1e-320", "18446744073709551616", "#",
           "a/b", "0x1"]


@st.composite
def mutated_demos(draw):
    """A demo file with one to four edits: a token dropped, replaced or
    added, a line dropped or repeated, or a new line of a known key."""
    path = draw(st.sampled_from([STATIC, SWITCHING]))
    lines = [l.split() for l in Path(path).read_text().splitlines()]
    token = st.sampled_from(_TOKENS)
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(lines) - 1))
        line = lines[k]
        op = draw(st.sampled_from(["drop", "set", "add", "cut", "copy",
                                   "new"]))
        if op in ("drop", "set") and len(line) > 1:
            t = draw(st.integers(1, len(line) - 1))
            line[t:t + 1] = [draw(token)] if op == "set" else []
        elif op == "add":
            line.insert(draw(st.integers(1, len(line))), draw(token))
        elif op == "cut" and len(lines) > 1:
            del lines[k]
        elif op == "copy":
            lines.insert(k, list(line))
        elif op == "new":
            lines.insert(k, [draw(st.sampled_from(_KEYS))]
                         + draw(st.lists(token, max_size=5)))
    return "".join(" ".join(l) + "\n" for l in lines)


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(text=mutated_demos())
def test_mutated_demos_raise_only_scenario_errors(text):
    for parse in (parse_scenario, parse_model):
        try:
            parse(text)
        except ScenarioError:
            pass
    try:
        sc = parse_scenario(text)
    except ScenarioError:
        return
    assert parse_scenario(scenario_text(sc)) == sc
