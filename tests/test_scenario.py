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
