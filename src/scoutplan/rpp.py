"""Inspection-tour planning for the aerial scout.

Unrealized impeded edges on the ground vehicle's candidate paths become
inspection targets with visit deadlines.  Each target edge turns into two
direction nodes of a small complete digraph rooted at a depot node for the
scout's current position; a depth-first branch-and-prune search then picks
the tour inspecting as many edges as possible (cheapest among equals)
within the deadlines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    INF,
    KnowledgeState,
    PlanningCostView,
    ProblemInstance,
    UavMetric,
)
from .kspp import PathSet


@dataclass(frozen=True)
class CriticalEdge:
    """An inspection target and the window in which it must be finished."""

    edge: int
    t_max: float


def extract_critical_edges(
    path_set: PathSet,
    knowledge: KnowledgeState,
    inst: ProblemInstance,
    view: PlanningCostView,
    start_time: float = 0.0,
    exclude: tuple[int, ...] = (),
) -> list[CriticalEdge]:
    """Unrealized impeded edges on any ranked path.

    An edge on the best path gets a finite deadline: the earliest the ground
    vehicle could reach the edge's first endpoint, i.e. the prefix cost with
    every unrealized impeded edge priced at its minimum.  Edges only on
    lower-ranked paths get an infinite deadline.  ``start_time`` shifts the
    deadlines to absolute simulation time.
    """
    excluded = set(exclude)
    found: dict[int, float] = {}
    impeded = inst.impeded_ids
    edges = inst.edges
    first = True
    for path in path_set:
        vs = path.vertices
        arrival = start_time
        for a, b in zip(vs, vs[1:]):
            eid = inst.ugv_edge_between(a, b)
            rec = edges[eid]
            if eid in impeded and not knowledge.knows(eid) and eid not in excluded:
                if first:
                    prior = found.get(eid, INF)
                    if arrival < prior:
                        found[eid] = arrival
                elif eid not in found:
                    found[eid] = INF
            if rec.impeded:
                known = knowledge.realized.get(eid)
                step = known if known is not None else rec.distribution.t_min
            else:
                step = rec.ugv_cost
            arrival += step
        first = False
    return [CriticalEdge(e, found[e]) for e in sorted(found)]


@dataclass(frozen=True)
class TourNode:
    """One traversal direction of a critical edge in the transformed graph."""

    edge: int
    start: int
    end: int
    tau: float
    deadline: float  # latest arrival at this node, already net of tau


@dataclass
class TransformedGraph:
    """Complete digraph over direction nodes plus depot node 0.

    ``arc[i][j]`` is the cost of finishing node i's edge and flying to the
    start of node j; ``arc[0][j]`` is the flight from the scout's position.
    Nodes of the same underlying edge are not connected.
    """

    nodes: list[TourNode | None]  # index 0 is the depot placeholder
    arc: list[list[float]]
    twin: list[int]

    @property
    def size(self) -> int:
        return len(self.nodes)


def build_transformed_graph(
    inst: ProblemInstance,
    critical: list[CriticalEdge],
    uav_pos: int,
    uav_time_offset: float = 0.0,
    metric: UavMetric | None = None,
) -> TransformedGraph:
    """Direction-node graph for the tour search.

    Deadlines are shifted by the scout's current time and reduced by the
    edge's own traversal time, so a node is feasible exactly when the whole
    inspection can finish inside the original window.
    """
    if metric is None:
        metric = UavMetric(inst)
    nodes: list[TourNode | None] = [None]
    twin = [0]
    for ce in critical:
        rec = inst.edges[ce.edge]
        tau = rec.uav_cost
        deadline = ce.t_max - tau - uav_time_offset
        nodes.append(TourNode(ce.edge, rec.u, rec.v, tau, deadline))
        nodes.append(TourNode(ce.edge, rec.v, rec.u, tau, deadline))
        n = len(nodes)
        twin.extend((n - 1, n - 2))
    n = len(nodes)
    arc = [[INF] * n for _ in range(n)]
    for j in range(1, n):
        arc[0][j] = metric.cost(uav_pos, nodes[j].start)
        arc[j][0] = nodes[j].tau
    for i in range(1, n):
        ni = nodes[i]
        for j in range(1, n):
            if i == j or nodes[j].edge == ni.edge:
                continue
            arc[i][j] = ni.tau + metric.cost(ni.end, nodes[j].start)
    return TransformedGraph(nodes, arc, twin)


#: DFS nodes (calls of the inner search) after which ``rpp_dfs`` stops and
#: returns its incumbent.  Counting work instead of time keeps every tour,
#: and so every event log, independent of machine speed.
DFS_NODE_BUDGET = 450_000


@dataclass
class RppSolution:
    """Best tour found: node indices starting at the depot."""

    best_cost: float
    best_visited: list[int]
    budget_exhausted: bool = False
    nodes: int = 0  # DFS nodes visited

    @property
    def inspected(self) -> int:
        return len(self.best_visited) - 1


def rpp_dfs(graph: TransformedGraph) -> RppSolution:
    """Depth-first branch and prune over inspection orders.

    A child is explored when it meets its deadline and is not dominated by
    the incumbent (costlier while visiting only a subset).  At a dead end
    the incumbent is replaced by tours visiting more edges, or equally many
    at lower cost, so the result is the lexicographic optimum.  Children are
    tried in ascending arc cost, so equal optima resolve deterministically.
    After ``DFS_NODE_BUDGET`` nodes the incumbent is returned as is.
    """
    n = graph.size
    arc = graph.arc
    twin = graph.twin
    best_cost = INF
    best_visited = [0]
    best_set: frozenset[int] = frozenset((0,))
    deadline = [0.0] + [node.deadline for node in graph.nodes[1:]]
    budget = DFS_NODE_BUDGET
    nodes = 0
    exhausted = False

    order = [
        sorted((j for j in range(1, n)), key=lambda j: (arc[i][j], j))
        for i in range(n)
    ]

    def dfs(v: int, cost: float, visited: list[int], vset: frozenset[int]) -> None:
        nonlocal best_cost, best_visited, best_set, nodes, exhausted
        if nodes == budget:
            exhausted = True
            return
        nodes += 1
        terminal = True
        row = arc[v]
        for nxt in order[v]:
            if nxt in vset or twin[nxt] in vset or row[nxt] == INF:
                continue
            new_cost = cost + row[nxt]
            if new_cost > deadline[nxt]:
                continue
            new_set = vset | {nxt}
            if new_cost < best_cost or not new_set <= best_set:
                visited.append(nxt)
                dfs(nxt, new_cost, visited, new_set)
                visited.pop()
                terminal = False
                if exhausted:
                    return
        if terminal:
            if len(visited) > len(best_visited) or (
                len(visited) == len(best_visited) and cost < best_cost
            ):
                best_cost = cost
                best_visited = visited.copy()
                best_set = vset

    dfs(0, 0.0, [0], frozenset((0,)))
    if best_cost == INF:  # no feasible inspection at all
        best_cost = 0.0
    return RppSolution(best_cost, best_visited, exhausted, nodes)


@dataclass(frozen=True)
class UavLeg:
    """One planned scout action: a transit hop or a full edge inspection."""

    frm: int
    to: int
    duration: float
    edge: int | None = None  # set for inspection legs

    @property
    def inspect(self) -> bool:
        return self.edge is not None


def edge_inspection_legs(
    inst: ProblemInstance, metric: UavMetric, origin: int, eid: int, start: int
) -> list[UavLeg]:
    """Transit hops from origin to the chosen endpoint, then the inspection."""
    rec = inst.edges[eid]
    legs: list[UavLeg] = []
    transit = metric.path(origin, start)
    free = inst.uav_free_flight
    for a, b in zip(transit, transit[1:]):
        if free:
            dur = inst.euclid(a, b) / inst.uav_speed
        else:
            dur = inst.edges[inst.uav_edge_between(a, b)].uav_cost
        legs.append(UavLeg(a, b, dur))
    legs.append(UavLeg(start, rec.other(start), rec.uav_cost, edge=eid))
    return legs


def solution_to_uav_plan(
    graph: TransformedGraph,
    sol: RppSolution,
    inst: ProblemInstance,
    uav_pos: int,
    metric: UavMetric | None = None,
) -> list[UavLeg]:
    """Expand a tour into concrete transit hops and inspections."""
    if metric is None:
        metric = UavMetric(inst)
    legs: list[UavLeg] = []
    pos = uav_pos
    for idx in sol.best_visited[1:]:
        node = graph.nodes[idx]
        legs.extend(edge_inspection_legs(inst, metric, pos, node.edge, node.start))
        pos = node.end
    return legs

