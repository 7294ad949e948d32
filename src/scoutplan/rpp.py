"""Inspection-tour planning for the aerial scout.

Unrealized impeded edges on the ground vehicle's candidate paths become
inspection targets with visit deadlines.  Each target edge turns into two
direction nodes of a small complete digraph rooted at a depot node for the
scout's current position; an exact depth-first search with a Held-Karp
dominance memo, a count bound and a cost bound for ties then picks the tour
inspecting as many edges as possible (cheapest among equals) within the
deadlines.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import NamedTuple

from .core import INF, PlanningCostView, ProblemInstance, UavMetric
from .kspp import PathSet


def extract_critical_edges(
    path_set: PathSet,
    view: PlanningCostView,
    inst: ProblemInstance,
    start_time: float = 0.0,
    exclude: int = -1,
) -> dict[int, float]:
    """Unrevealed impeded edges on any ranked path, mapped to the time by
    which the scout must have finished inspecting them, in ascending edge id.

    An edge on the best path gets a finite deadline: the earliest the ground
    vehicle could reach the edge's first endpoint, i.e. the prefix cost with
    every unrevealed impeded edge priced at its minimum.  Edges only on
    lower-ranked paths get an infinite deadline.  ``start_time`` shifts the
    deadlines to absolute simulation time; edge ``exclude`` is never critical.
    """
    found: dict[int, float] = {}
    paths = path_set.paths
    if paths:
        arrival = start_time
        for eid in paths[0].edges:
            unrevealed = view.unrevealed(eid)
            if unrevealed and eid != exclude:
                found.setdefault(eid, arrival)
            arrival += inst.edges[eid].distribution.t_min if unrevealed else view.costs[eid]
    for path in paths[1:]:
        for eid in path.edges:
            if view.unrevealed(eid) and eid != exclude:
                found.setdefault(eid, INF)
    return dict(sorted(found.items()))


class TourNode(NamedTuple):
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
    metric: UavMetric,
    critical: dict[int, float],
    uav_pos: int,
    uav_time_offset: float = 0.0,
) -> TransformedGraph:
    """Direction-node graph for the tour search over ``metric.inst``.

    Deadlines are shifted by the scout's current time and reduced by the
    edge's own traversal time, so a node is feasible exactly when the whole
    inspection can finish inside the original window.
    """
    nodes: list[TourNode | None] = [None]
    for eid, t_max in critical.items():
        rec = metric.inst.edges[eid]
        deadline = t_max - rec.uav_cost - uav_time_offset
        nodes.append(TourNode(eid, rec.u, rec.v, rec.uav_cost, deadline))
        nodes.append(TourNode(eid, rec.v, rec.u, rec.uav_cost, deadline))
    cost = metric.cost
    targets = [(node.edge, node.start) for node in nodes[1:]]
    arc = [[INF] + [cost(uav_pos, start) for _, start in targets]]
    for edge, _, end, tau, _ in nodes[1:]:
        arc.append([tau] + [tau + cost(end, start) if e != edge else INF for e, start in targets])
    return TransformedGraph(nodes, arc)


#: DFS nodes (calls of the inner search) after which ``rpp_dfs`` stops and
#: returns its incumbent.  Counting work instead of time keeps every tour,
#: and so every event log, independent of machine speed.  A search reaching
#: it takes 0.5-0.9 s: the seven that did among the tour searches of six
#: 20x20 bridge missions with 80% of chain edges impeded (15-21 critical
#: edges) ran at a median of 211,000 nodes/s on a 2-core x86 host
#: (Python 3.11).
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
    from child v at cost c meets j's deadline.  An equal count wins only on
    cost: a tour below child v that ties the incumbent's count needs
    ``tie`` more arcs, the first out of v and each later one between
    direction nodes, so it costs at least c, plus ``min_out[v]``, plus the
    least arc between direction nodes ``tie - 1`` times, added one at a
    time and stopped once the sum reaches the incumbent's cost, which it
    then never falls below.  Adding non-negative arcs is monotone in floats,
    so both bounds hold as summed, without slack or triangle inequality, and
    no direction due before c can be reached: the scan reads only those due
    at c or later, and is skipped when their edges left are too few to win
    even if all are reached.  Each node entered is a tour and replaces the
    incumbent on more inspections, or as many at lower cost.  Children go
    in (arc, index) order, a stable sort of each row's indices, and the
    inspected edges are tested first.  No INF arc is entered: a direction
    node's own edge is inspected, and any other INF arc misses a finite
    deadline or finds the memo's INF default.  After ``DFS_NODE_BUDGET``
    nodes the incumbent is returned as is.

    Unless the budget binds, the result is F, the first optimal tour in
    (arc, index) pre-order, because each prune skips only children whose
    subtree holds no tour strictly better than the current incumbent.
    (i) Had such a prune skipped an ancestor of F, the incumbent then was
    already optimal and entered before F, so F would not be the first.
    (ii) Had the memo skipped an ancestor x of F, an earlier node y with
    x's state was entered at no greater cost, and y is not an ancestor of
    x.  F's suffix from x flown from y meets every deadline, since
    ``fl(c + a)`` is monotone in c, and gives an optimum before F.  So any
    prunes of this kind, the count and tie bounds included, return F.
    """
    n, arc = graph.size, graph.arc
    deadline = [0.0] + [node.deadline for node in graph.nodes[1:]]
    index: dict[int, int] = {}
    bit = [0] + [1 << index.setdefault(node.edge, len(index)) for node in graph.nodes[1:]]
    free = sum({bit[j] for j in range(1, n) if deadline[j] == INF})  # edges never late
    order = [sorted(range(1, n), key=row.__getitem__) for row in arc]  # children, (arc, index) order
    min_out = [row[kids[0]] if kids else INF for row, kids in zip(arc, order)]
    min_in = list(map(min, zip(*arc[1:])))  # over arcs from direction nodes
    least = min(min_out[1:], default=INF)  # no arc between direction nodes costs less
    # Directions with a deadline, latest first: from cost c only those due at
    # c or later can be reached, the first bisect_right(due, -c) of them.
    timed = sorted(((deadline[j], j, bit[j], min_in[j]) for j in range(1, n) if deadline[j] < INF),
                   reverse=True)
    due = [-d for d, _, _, _ in timed]
    timed_edges = list(accumulate((b for _, _, b, _ in timed), or_, initial=0))  # [k]: edges of the first k
    memo: list[dict[int, float]] = [{} for _ in range(n)]  # [node][mask], one per node entered
    visited = [0]  # the current tour, shared down the search
    best_cost, best_count, best_visited = 0.0, 1, [0]
    budget, nodes, exhausted = DFS_NODE_BUDGET, 0, False

    def dfs(v: int, cost: float, mask: int) -> None:
        nonlocal best_cost, best_count, best_visited, nodes, exhausted
        if nodes == budget:
            exhausted = True
            return
        nodes += 1
        count = len(visited)
        if count > best_count or (count == best_count and cost < best_cost):
            best_cost, best_count, best_visited = cost, count, visited[:]
        row = arc[v]
        for nxt in order[v]:
            b = bit[nxt]
            if mask & b:
                continue
            new_cost = cost + row[nxt]
            if new_cost > deadline[nxt]:
                continue
            new_mask = mask | b
            if memo[nxt].get(new_mask, INF) <= new_cost:
                continue
            # Edges the child must still reach to win; equal counts win on
            # cost, if the arcs a tie needs below it sum to less.
            low, tie = new_cost, best_count - count - 1
            if tie > 0:
                low += min_out[nxt]
                while tie > 1 and low < best_cost:
                    low += least
                    tie -= 1
            need = best_count - count - (low < best_cost) - (free & ~new_mask).bit_count()
            if need > 0:
                reach = new_mask | free
                k = bisect_right(due, -new_cost)
                if need > (timed_edges[k] & ~reach).bit_count():
                    continue  # the scan below lowers need at most once per such edge
                out = arc[nxt]
                base = new_cost + min_out[nxt]
                for dj, j, bj, min_in_j in timed[:k]:
                    if not reach & bj and (new_cost + out[j] <= dj or base + min_in_j <= dj):
                        reach |= bj
                        need -= 1
                        if need == 0:
                            break
                else:
                    continue
            memo[nxt][new_mask] = new_cost
            visited.append(nxt)
            dfs(nxt, new_cost, new_mask)
            visited.pop()
            if exhausted:
                return

    dfs(0, 0.0, 0)
    return RppSolution(best_cost, best_visited, exhausted, nodes)


class UavLeg(NamedTuple):
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
