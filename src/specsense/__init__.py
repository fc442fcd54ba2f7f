"""Distributed wideband spectrum sensing simulator.

Library layers, bottom to top: model (topology, spectrum, scenarios),
propagation (pathloss, fading, measurement frames), scheduler (sensing
subset assignment), diffusion (cooperative detection), baselines (comparison
schemes), metrics, harness (Monte-Carlo campaigns), cli.
"""

__version__ = "0.1.0"  # before the submodules, which record it

from .baselines import SCHEME_IDS, DecisionMap
from .diffusion import DiffusionParams, run_diffusion
from .harness import Campaign, generate_scenario, run_campaign
from .model import (ConfigurationError, Incumbent, Scenario, Topology,
                    build_grid_topology, build_random_topology,
                    build_spectrum_plan, load_scenario, save_scenario,
                    uniform_quota)
from .propagation import MeasurementFrame, PropagationParams
from .scheduler import (Assignment, benchmark_gap, build_cost_tensor,
                        heuristic_assign, solve_exact)
from .seeding import substream

__all__ = [
    "Assignment",
    "Campaign",
    "ConfigurationError",
    "DecisionMap",
    "DiffusionParams",
    "Incumbent",
    "MeasurementFrame",
    "PropagationParams",
    "SCHEME_IDS",
    "Scenario",
    "Topology",
    "benchmark_gap",
    "build_cost_tensor",
    "build_grid_topology",
    "build_random_topology",
    "build_spectrum_plan",
    "generate_scenario",
    "heuristic_assign",
    "load_scenario",
    "run_campaign",
    "run_diffusion",
    "save_scenario",
    "solve_exact",
    "substream",
    "uniform_quota",
]
