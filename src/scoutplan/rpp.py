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

from .core import INF, PlanningCostView, ProblemInstance, UavMetric
from .kspp import PathSet


def extract_critical_edges(
    path_set: PathSet,
    view: PlanningCostView,
    inst: ProblemInstance,
    start_time: float = 0.0,
    exclude: tuple[int, ...] = (),
) -> dict[int, float]:
    """Unrevealed impeded edges on any ranked path, mapped to the time by
    which the scout must have finished inspecting them, in ascending edge id.

    An edge on the best path gets a finite deadline: the earliest the ground
    vehicle could reach the edge's first endpoint, i.e. the prefix cost with
    every unrevealed impeded edge priced at its minimum.  Edges only on
    lower-ranked paths get an infinite deadline.  ``start_time`` shifts the
    deadlines to absolute simulation time.
    """
    excluded = set(exclude)
    found: dict[int, float] = {}
    paths = path_set.paths
    if paths:
        arrival = start_time
        for eid in paths[0].edges:
            unrevealed = view.unrevealed(eid)
            if unrevealed and eid not in excluded:
                found.setdefault(eid, arrival)
            arrival += inst.edges[eid].distribution.t_min if unrevealed else view.costs[eid]
    for path in paths[1:]:
        for eid in path.edges:
            if view.unrevealed(eid) and eid not in excluded:
                found.setdefault(eid, INF)
    return dict(sorted(found.items()))


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

    def inspections(self, sol: RppSolution) -> list[tuple[int, int]]:
        """A tour's inspections as (edge id, start vertex), in visit order."""
        return [(self.nodes[i].edge, self.nodes[i].start) for i in sol.best_visited[1:]]


def build_transformed_graph(
    inst: ProblemInstance,
    metric: UavMetric,
    critical: dict[int, float],
    uav_pos: int,
    uav_time_offset: float = 0.0,
) -> TransformedGraph:
    """Direction-node graph for the tour search.

    Deadlines are shifted by the scout's current time and reduced by the
    edge's own traversal time, so a node is feasible exactly when the whole
    inspection can finish inside the original window.
    """
    nodes: list[TourNode | None] = [None]
    twin = [0]
    for eid, t_max in critical.items():
        rec = inst.edges[eid]
        tau = rec.uav_cost
        deadline = t_max - tau - uav_time_offset
        nodes.append(TourNode(eid, rec.u, rec.v, tau, deadline))
        nodes.append(TourNode(eid, rec.v, rec.u, tau, deadline))
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


def solution_to_uav_plan(
    inspections: list[tuple[int, int]], metric: UavMetric, uav_pos: int
) -> list[UavLeg]:
    """Expand (edge id, start vertex) inspections, in flying order, into
    transit hops from the scout's position and the inspection legs."""
    legs: list[UavLeg] = []
    pos = uav_pos
    for eid, start in inspections:
        rec = metric.inst.edges[eid]
        legs.extend(UavLeg(a, b, dur) for a, b, dur in metric.path(pos, start))
        pos = rec.other(start)
        legs.append(UavLeg(start, pos, rec.uav_cost, edge=eid))
    return legs
