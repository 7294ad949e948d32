"""Dynamic k-shortest path maintenance.

Yen's loopless-paths scheme on top of the incremental planner, whose repair
of the best path drains to exact distances to the destination everywhere
when k >= 2 (at k = 1 it stops at the vehicle: nothing reads past it).  One
update's spur searches share the reverse shortest-path tree they define
(Feng's node classification) and re-derive only the "yellow" vertices,
whose tree paths cross a hidden edge, read only as far as a search reads.
Lawler's rule spurs a path only from where it left its parent, and only
what can be ranked is searched for (Martins and Pascoal): a spur is judged
by one limit, X (the cost above which nothing can be ranked) less its
root's cost, which never rises along a walk of a path.  A walk reads
bounds and sorts out the paths sharing its root only at branch vertices: a
vertex with two edges, reached past the start, is entered by one and left
by the other on every path that shares the root, so both are hidden there
and no spur can leave it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from . import dstar
from .core import INF, Path, PlanningCostView, ProblemInstance, descend, dijkstra
from .dstar import DStarState


class SpurCounts(NamedTuple):
    """Work of the Yen spur searches of one k-path update, or a sum of them."""

    searches: int = 0  # searches run
    isolated: int = 0  # skipped: every edge at the spur was hidden (bound INF); chain vertices by degree
    nopath: int = 0  # searches run that found no rankable spur path
    settled: int = 0  # vertices settled by the searches run
    pruned: int = 0  # skipped because the tree bound showed nothing rankable


@dataclass
class PathSet:
    """Ranked loopless paths plus the rankable candidates left over, a list
    of (cost, vertices, path) sorted by (cost, vertices), and the
    spur-search work that found them."""

    paths: list[Path] = field(default_factory=list)
    pool: list[tuple[float, tuple[int, ...], Path]] = field(default_factory=list)
    spur: SpurCounts = SpurCounts()


class ReverseTree:
    """Shortest-path tree towards the destination under the view's costs,
    read off the D* state, which only an update with k >= 2 drains, and
    shared by one update's spur searches.

    ``dist`` is the state's ``g``; ``parent`` memoises each vertex's first
    tight edge in ``adj`` order under the view's costs, which the
    drained state keeps at every reachable vertex but the destination (-1:
    none, -2: unread).  ``cost`` copies the view's costs with the hidden
    edges at INF.  ``mark`` flags the yellow vertices, the subtrees below
    the hidden tree edges, walking down from the (v, e) ``roots`` that
    ``hide`` queues (v yellow if e is its parent edge).
    """

    def __init__(self, view: PlanningCostView, state: DStarState):
        self.inst, self.dest, self.view_costs, self.dist = state.inst, state.inst.d, view.costs, state.g
        self.parent = [-2] * len(state.g)
        self.parent[self.dest] = -1
        self.reset()

    def hide(self, edge_ids) -> None:
        """Price the edges at INF in ``cost`` and queue each end that the
        edge is tight at as a root; an edge at INF is off the tree."""
        cost, dist, view_costs, edges = self.cost, self.dist, self.view_costs, self.inst.edges
        for eid in edge_ids:
            if cost[eid] == INF:
                continue
            cost[eid] = INF
            e, c = edges[eid], view_costs[eid]
            if c + dist[e.v] == dist[e.u] < INF:
                self.roots.append((e.u, eid))
            if c + dist[e.u] == dist[e.v] < INF:
                self.roots.append((e.v, eid))

    def mark(self, bound: float) -> list[int]:
        """Flag the yellow vertices within ``bound``, walking each subtree
        down to it (a child is no nearer), and list them in ``marked``.
        Bounds must not rise between resets: what lies past one is dropped
        for good from the walk and the list, though it stays flagged."""
        if bound > self.bound:
            raise ValueError(f"mark bound {bound} rises above {self.bound}")
        adj, dist, cost, parent, yellow = (
            self.inst.adj, self.dist, self.view_costs, self.parent, self.yellow)
        marked = self.marked = [v for v in self.marked if dist[v] <= bound]
        stack, self.roots, self.bound = self.roots, [], bound
        while stack:
            v, e = stack.pop()
            p, dv = parent[v], dist[v]
            if yellow[v] or dv > bound:
                continue
            if p == -2:  # read v's parent
                for w, p in adj[v]:
                    if cost[p] + dist[w] == dv:
                        break
                parent[v] = p
            if p != e:
                continue
            yellow[v] = 1
            marked.append(v)
            for x, eid in adj[v]:
                if cost[eid] + dv == dist[x] < INF and not yellow[x]:
                    stack.append((x, eid))
        return marked

    def lower_bound(self, v: int) -> float:
        """min(cost + dist) over v's edges: no path from v costs less."""
        return min(self.cost[eid] + self.dist[w] for w, eid in self.inst.adj[v])

    def reset(self) -> None:
        """Restore the view's costs and clear the hidden edges and marks."""
        self.cost = self.view_costs.copy()
        self.yellow = bytearray(len(self.dist))
        self.roots, self.marked, self.bound = [], [], INF


def spur_search(
    tree: ReverseTree, spur: int, limit: float
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]] | None, int]:
    """Shortest path from ``spur`` to the tree's destination that avoids the
    hidden edges and costs at most ``limit``, as its vertices and edge ids
    (None when there is none), and the number of vertices settled.

    Hiding edges only removes paths, so no vertex gets closer to the
    destination than its tree distance, and one outside the yellow set
    keeps it, bit for bit.  A shortest path to a yellow vertex enters the
    set by one last edge from outside, so each one marked within the limit
    gets min(edge cost + tree distance) over its neighbours outside the
    set, a seed if below the cap, one float above the limit.  With the
    spur capped there too, ``core.dijkstra`` runs until it pops a distance
    above the spur's: a spur still at the cap has no path within the
    limit, else every vertex up to the spur holds a full search's distance
    and the descent walks a full search's path, lowest id on ties.  A
    yellow vertex past the limit keeps its tree distance, or gives sums
    from it, at or past the cap: never lowered, popped or descended to.
    """
    adj, cost, yellow = tree.inst.adj, tree.cost, tree.yellow
    cap = math.nextafter(limit, INF)
    dist, frontier = tree.dist.copy(), []
    for y in tree.mark(limit):
        dist[y] = INF
        for w, eid in adj[y]:
            if not yellow[w] and (alt := dist[w] + cost[eid]) < dist[y]:
                dist[y] = alt
        if dist[y] < cap:
            frontier.append(y)
    dist[spur] = min(dist[spur], cap)
    _, _, settled = dijkstra(adj, frontier, cost, spur, dist=dist)
    return None if dist[spur] == cap else descend(adj, dist, cost, spur, tree.dest), settled


def rank_limit(pool: list[tuple[float, tuple[int, ...], Path]], need: int) -> float:
    """X: the sorted pool's ``need``-th cheapest cost, INF while it holds fewer."""
    return pool[need - 1][0] if len(pool) >= need else INF


def update_k_paths(
    inst: ProblemInstance, view: PlanningCostView, state: DStarState,
    v_curr: int, changed: list[int], k: int,
) -> PathSet:
    """Refresh the k best loopless paths from v_curr after the edges in
    ``changed`` changed cost; ``NoPathError`` when no route is left.

    Only the rank-1 repair touches the shared search state; it stops at
    v_curr when k = 1 and drains for the spur searches of ranks 2..k, which
    run against one ``ReverseTree`` read off it.  Each ranked
    path is walked once, root by root: a step hides the edges of the vertex
    just made interior and the next edge of each accepted path still sharing
    the root, and adds one edge to the root's cost, left to right as
    ``view.path_cost`` sums.  Lawler's rule spurs a path only from its
    ``deviation`` index; a candidate is new when its vertices are not a key.

    Chain vertices.  Edges are never parallel and paths are loopless, so a
    vertex with exactly two ``adj`` entries, reached at j >= 1, has
    ``prev.edges[j - 1]``, already hidden as an edge of the interior vertex
    ``vs[j - 1]``, and ``prev.edges[j]`` as its edges, and every path still
    sharing the root leaves it by the latter.  Hiding that edge alone therefore hides what
    the sharing paths would, the spur's lower bound is INF without reading
    it, and the vertex counts as ``isolated`` when j >= ``deviation``.  At
    the next step both of its edges are already INF, and every sharing path
    goes on to ``vs[j + 1]``, so the step skips hiding them and filtering
    ``sharing``.  Neither holds at j = 0, where the way in is not hidden.

    The bound.  With ``need`` = k - len(accepted) paths still to rank, X is
    the ``need``-th cheapest pooled cost (``rank_limit``).  A candidate above
    X is never ranked, as ``need`` pooled ones beat it and X never rises (a
    round pops the cheapest and ``need`` falls by one), so it is dropped; a
    vertex sequence has one cost (no parallel edges), so it is dropped again
    if found again.  Ties with X are kept, as the pool orders them by
    vertices.  A spur is pruned when the tree's lower bound exceeds its
    ``limit``, X less the root's cost, and otherwise searched within it;
    along a walk X falls and the root's cost grows, so the limits never rise.

    Rounding.  Costs are non-negative and a path has under n = len(adj)
    edges.  A candidate's cost, a spur distance (at most the float sum from
    the destination along any path: rounding is monotone) and a root's cost
    plus either each sum one path's edges in some order, so each is within a
    relative (n-1)*2**-53 of the exact sum (Jeannerod and Rump 2013), and X
    scaled by 1 + 4n*2**-53 covers both sides and the limit's subtraction:
    a rankable spur's distance is at most the limit, and so is the lower
    bound, as a non-yellow vertex's tight edge sums exactly to its distance.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    accepted = [dstar.replan(state, view, v_curr, changed, drain=k > 1)]
    if k == 1:
        return PathSet(accepted)
    adj, costs = inst.adj, view.costs
    slack = 1.0 + 4 * len(adj) * 2.0**-53
    pool: list[tuple[float, tuple[int, ...], Path]] = []
    deviation = {accepted[0].vertices: 0}
    tree = ReverseTree(view, state)
    searches = isolated = nopath = settled = pruned = 0

    for _ in range(2, k + 1):
        prev = accepted[-1]
        vs, first = prev.vertices, deviation[prev.vertices]
        x = rank_limit(pool, k - len(accepted))
        sharing, root_cost, chain = accepted, 0.0, False
        for j, spur in enumerate(vs[:-1]):
            if j:
                root_cost += costs[prev.edges[j - 1]]
            if not chain:  # after a chain vertex both would change nothing
                if j:
                    tree.hide([eid for _, eid in adj[vs[j - 1]]])
                sharing = [p for p in sharing if p.vertices[j] == spur]
            chain = j > 0 and len(adj[spur]) == 2
            if chain:  # in by a hidden edge, on by prev's next edge: both INF
                tree.hide((prev.edges[j],))
                if j >= first:
                    isolated += 1
                continue
            tree.hide([p.edges[j] for p in sharing])
            if j < first:
                continue
            bound, limit = tree.lower_bound(spur), x * slack - root_cost
            if bound == INF:  # every edge at the spur is hidden: tree distances are finite
                isolated += 1
                continue
            if bound > limit:
                pruned += 1
                continue
            spur_path, n_settled = spur_search(tree, spur, limit)
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
                    bisect.insort(pool, (cost, vertices, Path(vertices, edges, cost)))
                    x = rank_limit(pool, k - len(accepted))
        if not pool:
            break
        accepted.append(pool.pop(0)[2])
        tree.reset()
    return PathSet(accepted, pool, SpurCounts(searches, isolated, nopath, settled, pruned))
