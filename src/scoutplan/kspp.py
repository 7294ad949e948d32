"""Dynamic k-shortest path maintenance.

Yen's loopless-paths scheme on top of the incremental planner, whose repair
of the best path leaves exact distances to the destination everywhere.  One
update's spur searches share the reverse shortest-path tree they define
(Feng's node classification) and re-derive only the "yellow" vertices,
whose tree paths cross a hidden edge.  Lawler's rule spurs a path only from
where it left its parent, and only what can be ranked is searched for
(Martins and Pascoal): a spur whose tree lower bound exceeds X, the cost
above which nothing can be ranked, is skipped, and a search is capped at X
less its root's cost and seeds no yellow vertex beyond that limit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from . import dstar
from .core import INF, Path, PlanningCostView, ProblemInstance, descend, dijkstra
from .dstar import DStarState


class SpurCounts(NamedTuple):
    """Work of the Yen spur searches of one k-path update, or a sum of them."""

    searches: int = 0  # searches run
    isolated: int = 0  # skipped because every edge at the spur vertex was hidden (bound INF)
    nopath: int = 0  # searches run that found no rankable spur path
    settled: int = 0  # vertices settled by the searches run
    pruned: int = 0  # skipped because the tree bound showed nothing rankable


@dataclass
class PathSet:
    """Ranked loopless paths plus the rankable candidates left over, a heap
    of (cost, vertices, path), and the spur-search work that found them."""

    paths: list[Path] = field(default_factory=list)
    pool: list[tuple[float, tuple[int, ...], Path]] = field(default_factory=list)
    spur: SpurCounts = SpurCounts()

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)


class ReverseTree:
    """Shortest-path tree towards the destination under the view's costs,
    read off the drained D* state and shared by one update's spur searches.

    ``dist`` is the state's ``g``; a vertex's ``parent`` is its first tight
    edge in ``ugv_adj`` order, which the drained state keeps at every
    reachable vertex but the destination.  ``cost`` is the tree's own copy
    of the view's costs with the ``hidden`` edges at INF, and ``marked``
    lists the yellow vertices, the subtrees below the hidden tree edges.
    """

    def __init__(self, inst: ProblemInstance, view: PlanningCostView, state: DStarState):
        self.inst = inst
        self.dest = state.dest
        self.view_costs = cost = view.costs
        self.cost = cost.copy()
        self.dist = dist = state.g
        self.parent = [-1] * len(dist)
        self.children: list[list[int]] = [[] for _ in inst.ugv_adj]
        for v, nbrs in enumerate(inst.ugv_adj):
            if v != self.dest and dist[v] < INF:
                for w, eid in nbrs:
                    if cost[eid] + dist[w] == dist[v]:
                        self.parent[v] = eid
                        self.children[w].append(v)
                        break
        self.hidden: list[int] = []
        self.yellow = bytearray(len(inst.ugv_adj))
        self.marked: list[int] = []  # the yellow vertices

    def hide(self, edge_ids) -> None:
        """Price the edges at INF in ``cost`` and mark yellow the subtree
        below each tree edge; an edge already at INF is off the tree."""
        cost, parent, edges, children = self.cost, self.parent, self.inst.edges, self.children
        yellow, marked = self.yellow, self.marked
        for eid in edge_ids:
            if cost[eid] == INF:
                continue
            cost[eid] = INF
            self.hidden.append(eid)
            e = edges[eid]
            child = e.u if parent[e.u] == eid else e.v if parent[e.v] == eid else -1
            stack = [child] if child >= 0 else []
            while stack:
                v = stack.pop()
                if not yellow[v]:
                    yellow[v] = 1
                    marked.append(v)
                    stack.extend(children[v])

    def lower_bound(self, v: int) -> float:
        """min(cost + dist) over v's edges: no path from v costs less."""
        return min(self.cost[eid] + self.dist[w] for w, eid in self.inst.ugv_adj[v])

    def reset(self) -> None:
        """Restore the hidden edges' costs and clear the yellow marks."""
        for eid in self.hidden:
            self.cost[eid] = self.view_costs[eid]
        for v in self.marked:
            self.yellow[v] = 0
        self.hidden.clear()
        self.marked.clear()


def spur_search(
    tree: ReverseTree, spur: int, limit: float
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]] | None, int]:
    """Shortest path from ``spur`` to the tree's destination that avoids the
    hidden edges and costs at most ``limit``, as its vertices and edge ids
    (None when there is none), and the number of vertices settled.

    Exactness.  Hiding edges only removes paths, so no vertex gets closer to
    the destination than its tree distance, and a vertex outside the yellow
    set keeps it, bit for bit, along its tree path.  A shortest path to a
    yellow vertex enters the set by one last edge from outside it, so each
    is seeded with min(edge cost + tree distance) over its neighbours
    outside the set, but one whose tree distance exceeds the limit lies on
    no path within it and gets INF unscanned.  The spur's distance is capped
    one float above the limit, and ``core.dijkstra`` runs from the seeds
    until it pops a distance above the spur's.  A spur still at the cap has
    no path within the limit; otherwise every vertex no farther than the
    spur holds a full search's distance, and the greedy descent walks a
    full search's path, lowest vertex id on ties.

    Work.  Only yellow vertices within the limit are scanned, and only
    those no farther than the spur and the cap are settled.
    """
    adj, cost, yellow, tree_dist = tree.inst.ugv_adj, tree.cost, tree.yellow, tree.dist
    dist = tree_dist.copy()
    frontier = []
    for y in tree.marked:
        best = INF
        if tree_dist[y] <= limit:
            for w, eid in adj[y]:
                if not yellow[w]:
                    alt = dist[w] + cost[eid]
                    if alt < best:
                        best = alt
        dist[y] = best
        if best < INF:
            frontier.append(y)
    cap = math.nextafter(limit, INF)
    dist[spur] = min(dist[spur], cap)
    _, _, settled = dijkstra(adj, frontier, cost, spur, dist=dist)
    return None if dist[spur] == cap else descend(adj, dist, cost, spur, tree.dest), settled


def rank_limit(pool: list[tuple[float, tuple[int, ...], Path]], need: int) -> float:
    """X: the pool's ``need``-th cheapest cost, INF while it holds fewer."""
    return heapq.nsmallest(need, pool)[-1][0] if len(pool) >= need else INF


def update_k_paths(
    inst: ProblemInstance, view: PlanningCostView, state: DStarState,
    v_curr: int, changed: list[int], k: int,
) -> PathSet:
    """Refresh the k best loopless paths from v_curr after the edges in
    ``changed`` changed cost; ``NoPathError`` when no route is left.

    Only the rank-1 repair touches the shared search state; ranks 2..k come
    from spur searches against one ``ReverseTree`` read off it.  Each ranked
    path is walked once, root by root: a step hides the edges of the vertex
    just made interior and the next edge of each accepted path still sharing
    the root, and adds one edge to the root's cost, left to right as
    ``view.path_cost`` sums.  Lawler's rule spurs a path only from its
    ``deviation`` index; a candidate is new when its vertices are not a key.

    The bound.  With ``need`` = k - len(accepted) paths still to rank, X is
    the ``need``-th cheapest pooled cost (``rank_limit``).  A candidate above
    X is never ranked, as ``need`` pooled ones beat it and X never rises (a
    round pops the cheapest and ``need`` falls by one), so it is dropped; a
    vertex sequence has one cost (no parallel edges), so it is dropped again
    if found again.  Ties with X are kept, as the pool orders them by
    vertices.  A spur is pruned when its root's cost plus the tree's lower
    bound exceeds X, and otherwise searched within X less the root's cost.

    Rounding.  Costs are non-negative and a path has under n = len(ugv_adj)
    edges.  A candidate's cost, a spur distance (at most the float sum from
    the destination along any path: rounding is monotone) and a root's cost
    plus either each sum one path's edges in some order, so each is within a
    relative (n-1)*2**-53 of the exact sum (Jeannerod and Rump 2013), and X
    scaled by 1 + 4n*2**-53 covers both sides and the limit's subtraction.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    best = dstar.replan(state, view, v_curr, changed)
    accepted = [best]
    if k == 1:
        return PathSet(accepted)
    adj, costs = inst.ugv_adj, view.costs
    slack = 1.0 + 4 * len(adj) * 2.0**-53
    pool: list[tuple[float, tuple[int, ...], Path]] = []
    deviation = {best.vertices: 0}
    tree = ReverseTree(inst, view, state)
    searches = isolated = nopath = settled = pruned = 0

    for _ in range(2, k + 1):
        prev = accepted[-1]
        vs, first = prev.vertices, deviation[prev.vertices]
        x = rank_limit(pool, k - len(accepted))
        tree.reset()
        sharing = accepted
        root_cost = 0.0
        for j, spur in enumerate(vs[:-1]):
            if j:
                tree.hide([eid for _, eid in adj[vs[j - 1]]])
                root_cost += costs[prev.edges[j - 1]]
            sharing = [p for p in sharing if p.vertices[j] == spur]
            tree.hide([p.edges[j] for p in sharing])
            if j < first:
                continue
            bound = tree.lower_bound(spur)
            if bound == INF:  # every edge at the spur is hidden: tree distances are finite
                isolated += 1
                continue
            if root_cost + bound > x * slack:
                pruned += 1
                continue
            spur_path, n_settled = spur_search(tree, spur, x * slack - root_cost)
            searches += 1
            settled += n_settled
            if spur_path is None:
                nopath += 1
                continue
            vertices = vs[:j] + spur_path[0]
            if vertices not in deviation:
                edges = prev.edges[:j] + spur_path[1]
                cost = view.path_cost(edges)
                if cost <= x:
                    deviation[vertices] = j
                    heapq.heappush(pool, (cost, vertices, Path(vertices, edges, cost)))
                    x = rank_limit(pool, k - len(accepted))
        if not pool:
            break
        accepted.append(heapq.heappop(pool)[2])
    return PathSet(accepted, pool, SpurCounts(searches, isolated, nopath, settled, pruned))
