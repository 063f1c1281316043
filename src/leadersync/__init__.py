"""Sampled-data leader-following consensus toolkit.

Synthesizes distributed error-feedback gains and explicit maximum
sampling intervals for agents sharing linear dynamics over static or
switching directed networks, simulates the closed loop exactly, and
verifies the promised quadratic decay at runtime.
"""

from .errors import LeaderSyncError
from .graph import SwitchingSignal, Topology, build_H
from .synthesis import (SynthesisResult, find_common_D, synthesize,
                        worst_case_params)
from .sim import (ContractionReport, SamplingSchedule, SimulationResult,
                  gen_schedule, lyapunov_trace, simulate, write_schedule_csv,
                  write_trajectory_csv)
from .scenario import Scenario, load_scenario, parse_scenario, scenario_text
from .cli import main

__version__ = "0.1.0"

__all__ = [
    "ContractionReport", "LeaderSyncError", "SamplingSchedule", "Scenario",
    "SimulationResult", "SwitchingSignal", "SynthesisResult", "Topology",
    "build_H", "find_common_D", "gen_schedule", "load_scenario",
    "lyapunov_trace", "main", "parse_scenario", "scenario_text", "simulate",
    "synthesize", "worst_case_params", "write_schedule_csv",
    "write_trajectory_csv",
]
