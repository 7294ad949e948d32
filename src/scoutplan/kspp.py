"""Dynamic k-shortest path maintenance.

Yen's loopless-paths scheme on top of the incremental planner: the best
path is repaired in place after each batch of cost updates, and every spur
search is a plain Dijkstra search towards the destination with the
suppressed edges priced at infinity, so the shared state never sees them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import dstar
from .core import INF, NoPathError, Path, PlanningCostView, ProblemInstance, descend, dijkstra
from .dstar import CostUpdate, DStarState


@dataclass
class PathSet:
    """Ranked loopless paths plus the candidate pool left behind."""

    paths: list[Path] = field(default_factory=list)
    pool: list[Path] = field(default_factory=list)

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
            hidden.add(inst.ugv_edge_between(vs[i - 1], vs[i]))
    for w in root[:-1]:
        for _, eid in inst.ugv_adj[w]:
            hidden.add(eid)
    return hidden


def spur_search(
    inst: ProblemInstance, view: PlanningCostView, hidden: set[int], spur: int, dest: int
) -> tuple[int, ...] | None:
    """Shortest spur path from ``spur`` to ``dest`` with ``hidden`` edges
    priced at infinity, or None when none is left.

    Dijkstra from the destination, then the greedy descent the incremental
    planner uses, so ties resolve to the lowest vertex id in both.
    """
    cost = view.cost

    def cost_of_edge(eid: int) -> float:
        return INF if eid in hidden else cost(eid)

    dist, _ = dijkstra(inst.ugv_adj, dest, cost_of_edge)
    return descend(inst.ugv_adj, dist, cost_of_edge, spur, dest)


def candidate_admission(
    pool: list[Path], accepted: list[Path], candidate: Path
) -> None:
    """Add a candidate unless its vertex sequence is already ranked or pooled.

    The pool stays sorted by (cost, vertex sequence) so selection is
    deterministic under cost ties.
    """
    seq = candidate.vertices
    for p in accepted:
        if p.vertices == seq:
            return
    for p in pool:
        if p.vertices == seq:
            return
    pool.append(candidate)
    pool.sort(key=lambda p: (p.cost, p.vertices))


def update_k_paths(
    inst: ProblemInstance,
    view: PlanningCostView,
    state: DStarState,
    v_curr: int,
    updates: list[CostUpdate],
    k: int,
) -> PathSet:
    """Refresh the k best loopless paths from v_curr after cost updates.

    Only the rank-1 repair touches the shared search state; ranks 2..k come
    from Yen spur searches (``spur_search``) that read the view and write
    nothing shared.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    try:
        best = dstar.replan(state, view, v_curr, updates)
    except NoPathError:
        return PathSet()
    accepted = [best]
    pool: list[Path] = []

    for _ in range(2, k + 1):
        prev = accepted[-1].vertices
        for i in range(1, len(prev)):
            root = prev[:i]
            hidden = yen_edge_suppression(inst, accepted, root)
            spur_path = spur_search(inst, view, hidden, root[-1], state.dest)
            if spur_path is None:
                continue
            vertices = root[:-1] + spur_path
            candidate = Path(vertices, view.path_cost(vertices))
            candidate_admission(pool, accepted, candidate)
        if not pool:
            break
        accepted.append(pool.pop(0))
    return PathSet(accepted, pool)
