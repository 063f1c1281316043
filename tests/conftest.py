import os
import sys
from pathlib import Path

import numpy as np
import pytest

from leadersync import (SwitchingSignal, Topology, build_H, find_common_D,
                        gen_schedule, synthesize)

sys.path.insert(0, str(Path(__file__).parent))

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
STATIC = str(SCENARIO_DIR / "static.txt")
SWITCHING = str(SCENARIO_DIR / "switching.txt")


@pytest.fixture
def source_env():
    """Environment for a child interpreter that imports leadersync from this
    checkout's ``src``, whatever the child's working directory; any
    ``PYTHONPATH`` already set follows it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


def ring_setup(horizon):
    """16 followers of 4 states on a leader-fed ring: the arguments of
    simulate for a run up to the horizon, and the design."""
    A = np.array([[-0.38, 0.72, 0.05, 0.0], [-0.68, 0.42, 0.0, 0.0],
                  [0.0, 0.0, -0.38, 0.72], [0.0, 0.05, -0.68, 0.42]])
    B = np.array([[0.26, 0.0], [0.31, 0.0], [0.0, 0.26], [0.0, 0.31]])
    N = 16
    edges = [(0, i) for i in range(1, N + 1)]
    edges += [(i, i + 1) for i in range(1, N)] + [(N, 1)]
    Hs = [build_H(Topology(N, frozenset(edges)))]
    synth = synthesize(A, B, 1.0, 1.0, find_common_D(Hs), Hs)
    rng = np.random.default_rng(3)
    return (A, B, Hs, SwitchingSignal.static(), synth.K,
            gen_schedule(0.001, 0.04, 0.001, horizon, 9),
            rng.uniform(-3, 3, 4), rng.uniform(-3, 3, (N, 4))), synth
