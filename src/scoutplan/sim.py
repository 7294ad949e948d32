"""Continuous-time co-simulation of the ground vehicle and the scout.

Both vehicles start at t=0.  The ground vehicle follows its current best
path and never pauses; entering an impeded edge whose cost is still hidden
commits it to the true cost, revealed on arrival.  The scout flies its
inspection plan and reveals an edge when it finishes crossing it.  Every
revelation replans both vehicles.  Each vehicle holds one plan, and every
plan starts at the vehicle's next vertex (the one it stands on, or the far
end of the edge it is committed to), so mid-edge commitments are always
honored.  When the ground vehicle enters a hidden edge that the scout's
remaining legs would inspect, the scout alone is replanned without that
edge.  Planning wall time is measured but never consumes simulated time.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import NamedTuple

from . import dstar, kspp, paa, rpp
from .core import (
    INF,
    NoPathError,
    PlanningCostView,
    ProblemInstance,
    Realization,
    UavMetric,
    check_at_least,
    dijkstra,
)
from .rpp import UavLeg

@dataclass
class SimulationConfig:
    planner: str = "rpp"
    k: int = 3

    def __post_init__(self):
        if self.planner not in PLANNERS:
            raise ValueError(f"unknown planner {self.planner!r}")
        check_at_least("k", self.k, 1)


class Event(NamedTuple):
    time: float
    kind: str  # "reveal" | "ugv_arrives" | "uav_arrives"
    data: tuple


def format_event(ev: Event) -> str:
    if ev.kind == "reveal":
        eid, cost, by = ev.data
        return f"t={ev.time!r} reveal edge={eid} cost={cost!r} by={by}"
    (v,) = ev.data
    return f"t={ev.time!r} {ev.kind} v={v}"


@dataclass
class ReplanRecord:
    trigger: str
    ugv_seconds: float = 0.0
    uav_seconds: float = 0.0
    uav_solver_seconds: float = 0.0
    budget_hit: bool = False
    spur: kspp.SpurCounts = kspp.SpurCounts()  # of the k-path update, if any
    expansions: int = 0  # D* expansions of the k-path update, if any
    critical_edges: int = 0  # critical edges handed to the scout's planner
    dfs_nodes: int = 0  # nodes of the tour search, if any


@dataclass
class SimulationOutcome:
    arrival_time: float
    events: list[Event]
    replans: list[ReplanRecord]
    lower_bound: float
    late_inspections: int = 0

    @property
    def budget_hits(self) -> int:
        return sum(1 for r in self.replans if r.budget_hit)

    def event_log_text(self) -> str:
        return "\n".join(format_event(ev) for ev in self.events) + "\n"


def lower_bound(inst: ProblemInstance, realization: Realization) -> float:
    """Perfect-information shortest arrival: every hidden cost known upfront.
    The first call on a realization searches and stores the result in it;
    later calls return it.  An unreachable destination raises every time."""
    lb = realization.lower_bound
    if lb is None:
        dist, _, _ = dijkstra(inst.adj, inst.p, realization.costs, inst.d)
        if dist[inst.d] == INF:
            raise NoPathError("destination unreachable")
        lb = realization.lower_bound = dist[inst.d]
    return lb


def naive_step(
    metric: UavMetric,
    critical: dict[int, float],
    path_set: kspp.PathSet,
    uav_pos: int,
    uav_time: float,
) -> list[tuple[int, int]]:
    """Nearest on-path inspection the scout can finish inside its window,
    over the edges of ``metric.inst``.

    Returns [(edge id, starting endpoint)], or [] when nothing is feasible.
    """
    for eid in path_set.paths[0].edges:
        t_max = critical.get(eid)
        if t_max is None:
            continue
        rec = metric.inst.edges[eid]
        cu = uav_time + metric.cost(uav_pos, rec.u) + rec.uav_cost
        cv = uav_time + metric.cost(uav_pos, rec.v) + rec.uav_cost
        completion, start = (cu, rec.u) if cu <= cv else (cv, rec.v)
        if completion <= t_max:
            return [(eid, start)]
    return []


def _timed(rec: ReplanRecord, solver, *args):
    """Call a scout solver and charge its wall time to the replan record."""
    s0 = _time.perf_counter()
    out = solver(*args)
    rec.uav_solver_seconds = _time.perf_counter() - s0
    return out


# Scout planners: each maps (engine, critical edges, scout origin, origin
# time, replan record) to the inspections it chose, in flying order, as
# (edge id, start vertex) pairs; "none" never inspects, so the scout stays
# at its start.  Layers are looked up through their modules at call time,
# so patched module attributes take effect.


def _rpp_inspections(
    eng: _Engine, critical: dict[int, float], origin: int, origin_time: float, rec: ReplanRecord
) -> list[tuple[int, int]]:
    graph = rpp.build_transformed_graph(eng.metric, critical, origin, origin_time)
    sol = _timed(rec, rpp.rpp_dfs, graph)
    rec.budget_hit, rec.dfs_nodes = sol.budget_exhausted, sol.nodes
    return graph.inspections(sol)


def _paa_inspections(
    eng: _Engine, critical: dict[int, float], origin: int, origin_time: float, rec: ReplanRecord
) -> list[tuple[int, int]]:
    return _timed(rec, paa.select_edge, critical, eng.view, eng.pset, origin, eng.cfg.k, eng.metric)


def _naive_inspections(
    eng: _Engine, critical: dict[int, float], origin: int, origin_time: float, rec: ReplanRecord
) -> list[tuple[int, int]]:
    return _timed(rec, naive_step, eng.metric, critical, eng.pset, origin, origin_time)


PLANNERS = {"rpp": _rpp_inspections, "paa": _paa_inspections, "naive": _naive_inspections,
            "none": lambda *_: []}


class _Engine:
    def __init__(self, inst: ProblemInstance, realization: Realization, cfg: SimulationConfig):
        self.inst = inst
        self.real = realization
        self.cfg = cfg
        self.k_eff = 1 if cfg.planner in ("naive", "none") else cfg.k
        self.view = PlanningCostView(inst)
        self.metric = UavMetric(inst)
        self.dstate = dstar.initialize(inst)
        self.events: list[Event] = []
        self.replans: list[ReplanRecord] = []
        self.late = 0
        self.now = 0.0
        # Ground vehicle: it reaches route[0] over ugv_edge at ugv_arrival,
        # then takes route_edges[0] towards route[1].
        self.route: list[int] = [inst.p]
        self.route_edges: list[int] = []
        self.ugv_edge = -1
        self.ugv_arrival = 0.0
        # Scout: flying uav_leg to uav_to until uav_arrival, or idle at uav_to.
        self.uav_leg: UavLeg | None = None
        self.uav_to = inst.q
        self.uav_arrival = 0.0
        self.uav_legs: list[UavLeg] = []
        # Current plan context for inspection windows.
        self.pset = kspp.PathSet()
        self.plan_origin_time = 0.0

    # -- planning ---------------------------------------------------------

    def _replan(self, trigger: str, changed: list[int] | None) -> None:
        """Replan and record it: the ground vehicle's k paths from its next
        vertex after the cost changes in `changed` (None keeps its route:
        a scout-only replan), then the scout's legs from its next vertex."""
        rec = ReplanRecord(trigger)
        if changed is not None:
            expanded = self.dstate.expansions
            t0 = _time.perf_counter()
            pset = kspp.update_k_paths(
                self.inst, self.view, self.dstate, self.route[0], changed, self.k_eff
            )
            rec.ugv_seconds = _time.perf_counter() - t0
            rec.expansions = self.dstate.expansions - expanded
            rec.spur = pset.spur
            self.pset = pset
            self.plan_origin_time = self.ugv_arrival
            self.route = list(pset.paths[0].vertices)
            self.route_edges = list(pset.paths[0].edges)
        origin_time = self.now if self.uav_leg is None else self.uav_arrival
        t0 = _time.perf_counter()
        critical = rpp.extract_critical_edges(
            self.pset, self.view, self.inst,
            start_time=self.plan_origin_time, exclude=self.ugv_edge,
        )
        rec.critical_edges = len(critical)
        plan = PLANNERS[self.cfg.planner]
        inspections = plan(self, critical, self.uav_to, origin_time, rec) if critical else []
        self.uav_legs = rpp.solution_to_uav_plan(inspections, self.metric, self.uav_to)
        rec.uav_seconds = _time.perf_counter() - t0
        self.replans.append(rec)

    # -- movement ---------------------------------------------------------

    def _ugv_depart(self) -> None:
        eid = self.route_edges.pop(0)
        del self.route[0]
        self.ugv_edge = eid
        self.ugv_arrival = self.now + self.real.costs[eid]
        if self.view.unrevealed(eid) and any(leg.edge == eid for leg in self.uav_legs):
            self._replan(f"cancel:{eid}", None)
            self._uav_depart_if_idle()

    def _uav_depart_if_idle(self) -> None:
        if self.uav_leg is None and self.uav_legs:
            leg = self.uav_legs.pop(0)
            self.uav_leg = leg
            self.uav_to = leg.to
            self.uav_arrival = self.now + leg.duration

    # -- event processing -------------------------------------------------

    def _log(self, kind: str, data: tuple) -> None:
        self.events.append(Event(self.now, kind, data))

    def _reveal(self, eid: int, by: str) -> None:
        true = self.real.costs[eid]
        if by == "uav" and self.ugv_edge == eid:
            self.late += 1
        self._log("reveal", (eid, true, by))
        self.view.reveal(eid, true)
        self._replan(f"reveal:{eid}", [eid])

    def _process_uav_arrival(self) -> None:
        leg = self.uav_leg
        self.now = self.uav_arrival
        self.uav_leg = None
        if leg.inspect and self.view.unrevealed(leg.edge):
            self._reveal(leg.edge, "uav")
        self._log("uav_arrives", (leg.to,))
        self._uav_depart_if_idle()

    def _process_ugv_arrival(self) -> bool:
        self.now = self.ugv_arrival
        v = self.route[0]
        eid = self.ugv_edge
        if self.view.unrevealed(eid):
            self._reveal(eid, "ugv")
        self._log("ugv_arrives", (v,))
        if v == self.inst.d:
            return True
        self._ugv_depart()
        self._uav_depart_if_idle()
        return False

    def run(self) -> SimulationOutcome:
        lb = lower_bound(self.inst, self.real)
        self._replan("init", [])
        if self.inst.p == self.inst.d:
            self._log("ugv_arrives", (self.inst.p,))
            return SimulationOutcome(0.0, self.events, self.replans, lb, self.late)
        self._ugv_depart()
        self._uav_depart_if_idle()
        while True:
            if self.uav_leg is not None and self.uav_arrival <= self.ugv_arrival:
                self._process_uav_arrival()
            else:
                if self._process_ugv_arrival():
                    break
        return SimulationOutcome(self.now, self.events, self.replans, lb, self.late)


def run(
    inst: ProblemInstance, realization: Realization, config: SimulationConfig
) -> SimulationOutcome:
    """Simulate one mission and return its outcome."""
    return _Engine(inst, realization, config).run()
