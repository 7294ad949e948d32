"""Dynamic k-shortest path maintenance.

Yen's loopless-paths scheme on top of the incremental planner: the best
path is repaired in place after each batch of cost updates.  The spur
searches of one update share a reverse shortest-path tree to the
destination (Feng's node classification): a spur search re-derives only
the distances of the "yellow" vertices, whose tree paths cross an edge it
hides, by an early-stopping A* seeded from their neighbours outside that
set, with the hidden edges priced at infinity in the tree's own copy of
the edge costs, so the shared view never sees them.  Lawler's rule spurs
each path only from the vertex where it left its parent path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from . import dstar
from .core import INF, NoPathError, Path, PlanningCostView, ProblemInstance, descend, dijkstra
from .dstar import DStarState


class SpurCounts(NamedTuple):
    """Work of the Yen spur searches of one k-path update, or a sum of them."""

    searches: int = 0  # searches run
    isolated: int = 0  # skipped because every edge at the spur vertex was hidden
    nopath: int = 0  # searches run that found no spur path
    settled: int = 0  # vertices settled by the tree build and the searches run


@dataclass
class PathSet:
    """Ranked loopless paths plus the candidate pool left behind, and the
    spur-search work that found them."""

    paths: list[Path] = field(default_factory=list)
    pool: list[Path] = field(default_factory=list)
    spur: SpurCounts = SpurCounts()

    def best(self) -> Path | None:
        return self.paths[0] if self.paths else None

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)


def yen_edge_suppression(
    inst: ProblemInstance, accepted: list[Path], root: tuple[int, ...]
) -> set[int]:
    """Edge ids to hide for one spur search from the end of ``root``.

    Hides the continuation edge of every accepted path sharing the root
    prefix, plus every edge incident to an interior root vertex (all of the
    root except the spur node).
    """
    i = len(root)
    hidden: set[int] = set()
    for path in accepted:
        vs = path.vertices
        if len(vs) > i and vs[:i] == root:
            hidden.add(path.edges[i - 1])
    for w in root[:-1]:
        for _, eid in inst.ugv_adj[w]:
            hidden.add(eid)
    return hidden


class ReverseTree:
    """Shortest-path tree towards ``dest`` under the view's costs, built once
    per k-path update and shared by its spur searches.

    ``dist`` and ``parent`` (edge ids) are those of a full ``core.dijkstra``
    from ``dest``, and ``settled`` its settled count.  The tree also holds
    the searches' working state: its own copy of the costs with the last
    search's hidden edges at INF, and that search's yellow marks.
    """

    def __init__(self, inst: ProblemInstance, view: PlanningCostView, dest: int):
        self.inst = inst
        self.dest = dest
        self.view_costs = view.costs
        self.cost = view.costs.copy()
        self.dist, self.parent, self.settled = dijkstra(inst.ugv_adj, dest, view.costs)
        self.children: list[list[int]] = [[] for _ in inst.ugv_adj]
        for v, eid in enumerate(self.parent):
            if eid >= 0:
                self.children[inst.edges[eid].other(v)].append(v)
        self.hidden: set[int] = set()
        self.yellow = bytearray(len(inst.ugv_adj))
        self.marked: list[int] = []  # the yellow vertices

    def hide(self, hidden: set[int]) -> list[int]:
        """Price the ``hidden`` edges at INF in ``cost``, mark the subtrees
        below the hidden tree edges yellow, and return the yellow vertices.

        When ``hidden`` contains the last call's set, as along the successive
        roots of one path, only the new edges and subtrees are handled;
        otherwise the last call's are restored first.
        """
        cost, yellow, marked = self.cost, self.yellow, self.marked
        if not self.hidden <= hidden:
            for eid in self.hidden:
                cost[eid] = self.view_costs[eid]
            for v in marked:
                yellow[v] = 0
            marked.clear()
            self.hidden = set()
        parent, edges, children = self.parent, self.inst.edges, self.children
        new = hidden - self.hidden
        for eid in new:
            cost[eid] = INF
            e = edges[eid]
            child = e.u if parent[e.u] == eid else e.v if parent[e.v] == eid else -1
            stack = [child] if child >= 0 else []
            while stack:
                v = stack.pop()
                if not yellow[v]:
                    yellow[v] = 1
                    marked.append(v)
                    stack.extend(children[v])
        self.hidden |= new
        return marked


def spur_search(
    tree: ReverseTree, hidden: set[int], spur: int
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]] | None, int]:
    """Shortest path from ``spur`` to the tree's destination that avoids the
    ``hidden`` edges, as its vertices and edge ids (None when none is left),
    and the number of vertices the search settled.

    Exactness.  Hiding edges only removes paths, so no vertex gets closer to
    the destination than its tree distance.  The yellow vertices are those
    whose tree path crosses a hidden edge: the subtrees below the hidden
    tree edges.  Every other vertex keeps its tree distance, bit for bit:
    that distance is the sum along its tree path from the destination, and
    the tree path avoids every hidden edge.  A shortest path to a yellow
    vertex enters the yellow set by one last edge from a vertex outside it,
    so each yellow vertex is seeded with min(edge cost + tree distance) over
    its neighbours outside the set, and ``core.dijkstra`` runs its
    early-stopping A* from those seeds towards the spur.  That search never
    improves a tree distance, so it settles yellow vertices only, and it
    leaves what a full search would: exact distances on the spur's shortest
    paths, upper bounds elsewhere.  The greedy descent the incremental
    planner uses then walks the path a full search gives, ties to the lowest
    vertex id included.

    Work.  A spur outside the yellow set has its distance from the start, so
    only the yellow vertices that could tie with it are settled; a search
    that finds no path settles at most the yellow set.  An isolated spur,
    whose every edge is hidden, finds no path; ``update_k_paths`` skips it.
    """
    adj = tree.inst.ugv_adj
    cost = tree.cost
    yellow = tree.yellow
    marked = tree.hide(hidden)
    dist = tree.dist.copy()
    frontier = []
    for y in marked:
        best = INF
        for w, eid in adj[y]:
            if not yellow[w]:
                alt = dist[w] + cost[eid]
                if alt < best:
                    best = alt
        dist[y] = best
        if best < INF:
            frontier.append(y)
    _, _, settled = dijkstra(adj, frontier, cost, spur, tree.inst.heuristic, dist)
    return descend(adj, dist, cost, spur, tree.dest), settled


def candidate_admission(
    pool: list[Path], accepted: list[Path], candidate: Path
) -> bool:
    """Add a candidate unless its vertex sequence is already ranked or
    pooled; return whether it was added.

    The pool stays sorted by (cost, vertex sequence) so selection is
    deterministic under cost ties.
    """
    seq = candidate.vertices
    for p in accepted:
        if p.vertices == seq:
            return False
    for p in pool:
        if p.vertices == seq:
            return False
    pool.append(candidate)
    pool.sort(key=lambda p: (p.cost, p.vertices))
    return True


def update_k_paths(
    inst: ProblemInstance,
    view: PlanningCostView,
    state: DStarState,
    v_curr: int,
    changed: list[int],
    k: int,
) -> PathSet:
    """Refresh the k best loopless paths from v_curr after the edges in
    ``changed`` changed cost.

    Only the rank-1 repair touches the shared search state; ranks 2..k come
    from Yen spur searches (``spur_search``) against one ``ReverseTree``,
    built at the first spur that is not isolated, and write nothing shared.

    Lawler's rule: each pooled path records its deviation index, the
    position of the spur vertex where it left the path it was spurred from
    (rank 1 deviates at 0), and is spurred only from there on.  A spur
    before that index hides the same edges as an earlier spur from the same
    root did, so it would only find a candidate already ranked or pooled.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    try:
        best = dstar.replan(state, view, v_curr, changed)
    except NoPathError:
        return PathSet()
    accepted = [best]
    pool: list[Path] = []
    deviation = {best.vertices: 0}
    searches = isolated = nopath = settled = 0
    tree = None

    for _ in range(2, k + 1):
        prev = accepted[-1]
        for i in range(deviation[prev.vertices] + 1, len(prev.vertices)):
            root = prev.vertices[:i]
            hidden = yen_edge_suppression(inst, accepted, root)
            if all(eid in hidden for _, eid in inst.ugv_adj[root[-1]]):
                isolated += 1
                continue
            if tree is None:
                tree = ReverseTree(inst, view, state.dest)
                settled += tree.settled
            spur_path, n_settled = spur_search(tree, hidden, root[-1])
            searches += 1
            settled += n_settled
            if spur_path is None:
                nopath += 1
                continue
            spur_vertices, spur_edges = spur_path
            vertices = root[:-1] + spur_vertices
            edges = prev.edges[: i - 1] + spur_edges
            candidate = Path(vertices, edges, view.path_cost(edges))
            if candidate_admission(pool, accepted, candidate):
                deviation[vertices] = i - 1
        if not pool:
            break
        accepted.append(pool.pop(0))
    return PathSet(accepted, pool, SpurCounts(searches, isolated, nopath, settled))
