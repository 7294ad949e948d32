"""Inspection-tour planning for the aerial scout.

Unrealized impeded edges on the ground vehicle's candidate paths become
inspection targets with visit deadlines.  Each target edge turns into two
direction nodes of a small complete digraph rooted at a depot node for the
scout's current position; an exact depth-first search with a Held-Karp
dominance memo and a count bound then picks the tour inspecting as many
edges as possible (cheapest among equals) within the deadlines.
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
    for eid, t_max in critical.items():
        rec = inst.edges[eid]
        deadline = t_max - rec.uav_cost - uav_time_offset
        nodes.append(TourNode(eid, rec.u, rec.v, rec.uav_cost, deadline))
        nodes.append(TourNode(eid, rec.v, rec.u, rec.uav_cost, deadline))
    n = len(nodes)
    arc = [[INF] * n for _ in range(n)]
    for j in range(1, n):
        arc[0][j] = metric.cost(uav_pos, nodes[j].start)
        arc[j][0] = nodes[j].tau
    for i in range(1, n):
        ni = nodes[i]
        for j in range(1, n):
            if nodes[j].edge != ni.edge:
                arc[i][j] = ni.tau + metric.cost(ni.end, nodes[j].start)
    return TransformedGraph(nodes, arc)


#: DFS nodes (calls of the inner search) after which ``rpp_dfs`` stops and
#: returns its incumbent.  Counting work instead of time keeps every tour,
#: and so every event log, independent of machine speed.  Sized so that a
#: search reaching it takes about 1 s: searches on 18-30 critical edges ran
#: at a median of 149,000 nodes/s on a 2-core x86 host (Python 3.11).
DFS_NODE_BUDGET = 140_000


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
    """Exact depth-first search over inspection orders.

    A state is the last direction node and the mask of inspected edges.  A
    child is entered when it meets its deadline, its state was not reached
    before at no greater cost (a deadline is only a latest time), and it can
    still beat the incumbent by the count of edges left with a direction j
    whose arrival bound ``min(c + arc[v][j], (c + min_out[v]) + min_in[j])``
    from child v at cost c meets j's deadline.  Adding non-negative arcs is
    monotone in floats, so this holds as summed, without slack or triangle
    inequality; the scan is skipped when the edges left with a deadline are
    too few to win even if all are reached.  Each node entered is a tour and
    replaces the incumbent on more inspections, or as many at lower cost.
    Children go in (arc, index) order, so equal optima resolve to the first
    found.  After ``DFS_NODE_BUDGET`` nodes the incumbent is returned as is.
    """
    n, arc = graph.size, graph.arc
    deadline = [0.0] + [node.deadline for node in graph.nodes[1:]]
    edges = list(dict.fromkeys(node.edge for node in graph.nodes[1:]))
    bit = [0] + [1 << edges.index(node.edge) for node in graph.nodes[1:]]
    free = sum({bit[j] for j in range(1, n) if deadline[j] == INF})  # edges never late
    min_out = [min(row[1:], default=INF) for row in arc]
    min_in = [min((arc[i][j] for i in range(1, n)), default=INF) for j in range(n)]
    timed = [(j, deadline[j], bit[j], min_in[j]) for j in range(1, n) if deadline[j] < INF]
    timed_edges = sum({b for _, _, b, _ in timed})  # edges with a direction that has a deadline
    kids = [  # finite arcs as (node, arc, deadline, bit), in (arc, node) order
        [(j, row[j], deadline[j], bit[j]) for j in sorted(range(1, n), key=row.__getitem__)
         if row[j] < INF] for row in arc]
    memo: list[dict[int, float]] = [{} for _ in range(n)]  # [node][mask], one per node entered
    best_cost, best_visited = 0.0, [0]
    budget, nodes, exhausted = DFS_NODE_BUDGET, 0, False

    def dfs(v: int, cost: float, mask: int, visited: list[int]) -> None:
        nonlocal best_cost, best_visited, nodes, exhausted
        if nodes == budget:
            exhausted = True
            return
        nodes += 1
        count = len(visited)
        if count > len(best_visited) or (count == len(best_visited) and cost < best_cost):
            best_cost, best_visited = cost, visited
        for nxt, a, d, b in kids[v]:
            if mask & b or cost + a > d:
                continue
            new_cost, new_mask = cost + a, mask | b
            if memo[nxt].get(new_mask, INF) <= new_cost:
                continue
            # Edges the child must still reach to win; equal counts win on cost.
            need = len(best_visited) - count - (new_cost < best_cost)
            need -= (free & ~new_mask).bit_count()
            if need > 0:
                if need > (timed_edges & ~(new_mask | free)).bit_count():
                    continue  # the scan below lowers need at most once per such edge
                out, reach = arc[nxt], new_mask | free
                base = new_cost + min_out[nxt]
                for j, dj, bj, min_in_j in timed:
                    if not reach & bj and (new_cost + out[j] <= dj or base + min_in_j <= dj):
                        reach |= bj
                        need -= 1
                        if need == 0:
                            break
                else:
                    continue
            memo[nxt][new_mask] = new_cost
            dfs(nxt, new_cost, new_mask, visited + [nxt])
            if exhausted:
                return

    dfs(0, 0.0, 0, [0])
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
