"""Cooperative route planning for a ground vehicle with an aerial scout.

The ground vehicle minimizes arrival time through a network whose impeded
edges have hidden travel costs; the scout inspects impeded edges ahead of
it so it can reroute early.  The package provides the incremental
k-shortest-path planner, the inspection-tour and priority planners for the
scout, a deterministic co-simulation, and benchmark generators.
"""

from .core import (
    INF,
    EdgeRecord,
    InstanceError,
    NoPathError,
    Path,
    PlanningCostView,
    ProblemInstance,
    Realization,
    UavMetric,
    UniformCost,
    load_instance,
    load_realization,
    sample_realization,
    save_instance,
    save_realization,
)
from .dstar import DStarState
from .kspp import PathSet, update_k_paths
from .paa import EdgePriority, select_edge
from .rpp import (
    RppSolution,
    TransformedGraph,
    UavLeg,
    build_transformed_graph,
    extract_critical_edges,
    rpp_dfs,
    solution_to_uav_plan,
)
from .sim import (
    Event,
    ReplanRecord,
    SimulationConfig,
    SimulationOutcome,
    lower_bound,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "DStarState",
    "EdgePriority",
    "EdgeRecord",
    "Event",
    "InstanceError",
    "NoPathError",
    "Path",
    "PathSet",
    "PlanningCostView",
    "ProblemInstance",
    "Realization",
    "ReplanRecord",
    "RppSolution",
    "SimulationConfig",
    "SimulationOutcome",
    "TransformedGraph",
    "UavLeg",
    "UavMetric",
    "UniformCost",
    "build_transformed_graph",
    "extract_critical_edges",
    "load_instance",
    "load_realization",
    "lower_bound",
    "rpp_dfs",
    "run",
    "sample_realization",
    "save_instance",
    "save_realization",
    "select_edge",
    "solution_to_uav_plan",
    "update_k_paths",
]
