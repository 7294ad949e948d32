"""Dynamic k-shortest path maintenance.

Yen's loopless-paths scheme on top of the incremental planner: the best
path is repaired in place after each batch of cost updates.  Every spur
search is an A* search from the destination towards the spur vertex that
stops once the spur's shortest paths are settled, with the suppressed
edges priced at infinity in its own copy of the edge costs, so the shared
view never sees them.  Lawler's rule spurs each path only from the vertex
where it left its parent path.
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
    settled: int = 0  # vertices settled by the searches run


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


def spur_search(
    inst: ProblemInstance, view: PlanningCostView, hidden: set[int], spur: int, dest: int
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]] | None, int]:
    """Shortest spur path from ``spur`` to ``dest`` with ``hidden`` edges
    priced at infinity in a copy of the view's costs, as its vertices and
    edge ids (None when none is left), and the number of vertices the search
    settled.

    A spur vertex whose every edge is hidden gives (None, 0) without a
    search.  Otherwise an A* search runs from the destination with the
    spur as its target and stops early (``core.dijkstra``); the distances
    it leaves on the spur's shortest paths are exact, so the greedy descent
    the incremental planner uses walks the path a full search would give,
    ties to the lowest vertex id included.
    """
    adj = inst.ugv_adj
    if spur != dest and all(eid in hidden for _, eid in adj[spur]):
        return None, 0
    cost = view.costs.copy()
    for eid in hidden:
        cost[eid] = INF
    dist, _, settled = dijkstra(adj, dest, cost, spur, inst.heuristic)
    return descend(adj, dist, cost, spur, dest), settled


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
    from Yen spur searches (``spur_search``) that read the view and write
    nothing shared.

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

    for _ in range(2, k + 1):
        prev = accepted[-1]
        for i in range(deviation[prev.vertices] + 1, len(prev.vertices)):
            root = prev.vertices[:i]
            hidden = yen_edge_suppression(inst, accepted, root)
            spur_path, n_settled = spur_search(inst, view, hidden, root[-1], state.dest)
            if not n_settled:
                isolated += 1
                continue
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
