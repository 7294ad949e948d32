"""Dynamic k-shortest path maintenance.

Yen's loopless-paths scheme on top of the incremental planner: the best
path is repaired in place after each batch of cost updates.  That repair
leaves exact distances to the destination everywhere, and the spur
searches of one update share the reverse shortest-path tree they define
(Feng's node classification): a spur search re-derives only the
distances of the "yellow" vertices, whose tree paths cross a hidden edge,
by an early-stopping search seeded from their neighbours outside that
set.  The tree owns the hidden edges, priced at infinity in its own copy
of the edge costs so the shared view never sees them; along one path's
roots the set only grows, and it is reset between paths.  Lawler's rule
spurs each path only from the vertex where it left its parent path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import NamedTuple

from . import dstar
from .core import INF, Path, PlanningCostView, ProblemInstance, descend, dijkstra
from .dstar import DStarState


class SpurCounts(NamedTuple):
    """Work of the Yen spur searches of one k-path update, or a sum of them."""

    searches: int = 0  # searches run
    isolated: int = 0  # skipped because every edge at the spur vertex was hidden or at INF
    nopath: int = 0  # searches run that found no spur path
    settled: int = 0  # vertices settled by the searches run


@dataclass
class PathSet:
    """Ranked loopless paths plus the candidate pool left behind, a heap of
    (cost, vertices, path), and the spur-search work that found them."""

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

    ``dist`` is the state's ``g``.  A vertex's ``parent`` is its first tight
    edge in ``ugv_adj`` order, one whose cost plus the far end's ``dist``
    equals its own; the drained state keeps one at every reachable vertex
    but the destination.  The tree owns the hidden edges of the path being
    spurred: ``cost`` is its own copy of the view's costs with the
    ``hidden`` edges at INF, and ``marked`` lists the yellow vertices, the
    subtrees below the hidden tree edges.  ``hide`` grows the set root by
    root; ``reset`` empties it between paths.
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

    def reset(self) -> None:
        """Restore the hidden edges' costs and clear the yellow marks."""
        for eid in self.hidden:
            self.cost[eid] = self.view_costs[eid]
        for v in self.marked:
            self.yellow[v] = 0
        self.hidden.clear()
        self.marked.clear()


def spur_search(
    tree: ReverseTree, spur: int
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]] | None, int]:
    """Shortest path from ``spur`` to the tree's destination that avoids the
    tree's hidden edges, as its vertices and edge ids (None when none is
    left), and the number of vertices the search settled.

    Exactness.  Hiding edges only removes paths, so no vertex gets closer to
    the destination than its tree distance.  The yellow vertices are those
    whose tree path crosses a hidden edge: the subtrees below the hidden
    tree edges.  Every other vertex keeps its tree distance, bit for bit:
    that distance is the sum along its tree path from the destination, and
    the tree path avoids every hidden edge.  A shortest path to a yellow
    vertex enters the yellow set by one last edge from a vertex outside it,
    so each yellow vertex is seeded with min(edge cost + tree distance) over
    its neighbours outside the set, and ``core.dijkstra`` runs from those
    seeds until it pops a distance above the spur's.  That search never
    improves a tree distance, so it settles yellow vertices only, and it
    leaves what a full search would: exact distances at every vertex no
    farther than the spur, so on all of the spur's shortest paths, and upper
    bounds elsewhere.  The greedy descent the incremental planner uses then
    walks the path a full search gives, ties to the lowest vertex id
    included.

    Work.  A spur outside the yellow set has its distance from the start, so
    only the yellow vertices no farther than it are settled; a search that
    finds no path settles at most the yellow set.
    """
    adj, cost, yellow = tree.inst.ugv_adj, tree.cost, tree.yellow
    dist = tree.dist.copy()
    frontier = []
    for y in tree.marked:
        best = INF
        for w, eid in adj[y]:
            if not yellow[w]:
                alt = dist[w] + cost[eid]
                if alt < best:
                    best = alt
        dist[y] = best
        if best < INF:
            frontier.append(y)
    _, _, settled = dijkstra(adj, frontier, cost, spur, dist=dist)
    return descend(adj, dist, cost, spur, tree.dest), settled


def update_k_paths(
    inst: ProblemInstance,
    view: PlanningCostView,
    state: DStarState,
    v_curr: int,
    changed: list[int],
    k: int,
) -> PathSet:
    """Refresh the k best loopless paths from v_curr after the edges in
    ``changed`` changed cost; ``NoPathError`` when no route is left.

    Only the rank-1 repair touches the shared search state; ranks 2..k come
    from Yen spur searches (``spur_search``) against one ``ReverseTree``
    read off that state when k > 1, and write nothing shared.

    Each ranked path is walked once, root by root.  A spur from the end of
    a root hides every edge at an interior root vertex and the continuation
    edge of each accepted path sharing the root, so each step adds the
    edges of the vertex just made interior (which hold the last step's
    continuations) and those of the paths still sharing the root.

    Lawler's rule: each pooled path records its deviation index, the
    position of the spur vertex where it left the path it was spurred from
    (rank 1 deviates at 0), and is spurred only from there on; an earlier
    spur would only find a candidate already ranked or pooled.  A
    candidate is new exactly when its vertices are not a key of
    ``deviation``, which holds every ranked or pooled sequence.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    best = dstar.replan(state, view, v_curr, changed)
    accepted = [best]
    if k == 1:
        return PathSet(accepted)
    adj = inst.ugv_adj
    pool: list[tuple[float, tuple[int, ...], Path]] = []
    deviation = {best.vertices: 0}
    tree = ReverseTree(inst, view, state)
    searches = isolated = nopath = settled = 0

    for _ in range(2, k + 1):
        prev = accepted[-1]
        vs, first = prev.vertices, deviation[prev.vertices]
        tree.reset()
        sharing = accepted
        for j, spur in enumerate(vs[:-1]):
            if j:
                tree.hide([eid for _, eid in adj[vs[j - 1]]])
            sharing = [p for p in sharing if p.vertices[j] == spur]
            tree.hide([p.edges[j] for p in sharing])
            if j < first:
                continue
            if all(tree.cost[eid] == INF for _, eid in adj[spur]):
                isolated += 1
                continue
            spur_path, n_settled = spur_search(tree, spur)
            searches += 1
            settled += n_settled
            if spur_path is None:
                nopath += 1
                continue
            spur_vertices, spur_edges = spur_path
            vertices = vs[:j] + spur_vertices
            if vertices not in deviation:
                deviation[vertices] = j
                edges = prev.edges[:j] + spur_edges
                cost = view.path_cost(edges)
                heapq.heappush(pool, (cost, vertices, Path(vertices, edges, cost)))
        if not pool:
            break
        accepted.append(heapq.heappop(pool)[2])
    return PathSet(accepted, pool, SpurCounts(searches, isolated, nopath, settled))
