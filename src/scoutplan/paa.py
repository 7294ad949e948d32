"""Priority scoring for the scout's next inspection.

Instead of solving a tour, score every critical edge by four normalized
signals (path coverage, urgency, cost uncertainty, scout proximity) and
inspect the single best one.  Linear in the number of critical edges once
shortest-path distances are available.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import INF, PlanningCostView, UavMetric
from .kspp import PathSet

#: Weights of the four signals in the score, in signal order (p1 to p4).
WEIGHTS = (0.25, 0.25, 0.2, 0.3)


@dataclass(frozen=True)
class EdgePriority:
    edge: int
    p1: float  # share of the k requested paths that use the edge
    p2: float  # urgency: 1 for the earliest divergence time, 0 for the latest
    p3: float  # cost variance relative to the most uncertain critical edge
    p4: float  # closeness of the nearer endpoint to the scout
    score: float
    start: int  # the endpoint nearer the scout (u on ties), where an inspection starts


def score_edges(
    critical: dict[int, float], view: PlanningCostView, path_set: PathSet,
    uav_pos: int, k: int, metric: UavMetric,
) -> list[EdgePriority]:
    """All four signals plus the weighted score, one entry per critical edge
    of ``metric.inst``, for the ranked paths in ``path_set`` (k of them
    requested) and the scout at ``uav_pos``.

    One pass over the ranked paths gives each edge's coverage (the number
    of paths using it) and its divergence time: the expected time before
    the ground vehicle is past caring about the edge.  On the best path
    that is the expected arrival at the edge itself; on a lower-ranked path
    it is the expected arrival at the last vertex the path shares with the
    best one.  Edges on several paths take the minimum.
    """
    if not critical:
        return []
    cost = view.costs
    edges = metric.inst.edges

    counts = dict.fromkeys(critical, 0)
    lam = dict.fromkeys(critical, INF)
    paths = path_set.paths
    for rank, path in enumerate(paths):
        arrival = [0.0]  # expected arrival at each vertex of the path
        for eid in path.edges:
            arrival.append(arrival[-1] + cost[eid])
        shared = 0  # edges this path shares with the best one
        if rank:
            for a, b in zip(path.edges, paths[0].edges):
                if a != b:
                    break
                shared += 1
        for i, eid in enumerate(path.edges):
            if eid in counts:
                counts[eid] += 1
                lam[eid] = min(lam[eid], arrival[shared] if rank else arrival[i])
    lam_min = min(lam.values())
    lam_max = max(lam.values())

    var = {e: edges[e].distribution.variance() for e in critical}
    var_max = max(var.values())

    dist, start = {}, {}
    for e in critical:
        rec = edges[e]
        cu = metric.cost(uav_pos, rec.u)
        cv = metric.cost(uav_pos, rec.v)
        dist[e], start[e] = (cu, rec.u) if cu <= cv else (cv, rec.v)
    d_max = max(dist.values())

    out = []
    w1, w2, w3, w4 = WEIGHTS
    for e in critical:
        p1 = counts[e] / k
        p2 = 1.0 if lam_min == lam_max else (lam_max - lam[e]) / (lam_max - lam_min)
        p3 = 1.0 if var_max == 0 else var[e] / var_max
        p4 = 1.0 if d_max == 0 else 1.0 - dist[e] / d_max
        score = w1 * p1 + w2 * p2 + w3 * p3 + w4 * p4
        out.append(EdgePriority(e, p1, p2, p3, p4, score, start[e]))
    return out


def select_edge(
    critical: dict[int, float], view: PlanningCostView, path_set: PathSet,
    uav_pos: int, k: int, metric: UavMetric,
) -> list[tuple[int, int]]:
    """The inspection list of the highest-score critical edge: [(edge id,
    start)], lowest edge id on ties; [] when there is no critical edge."""
    scored = score_edges(critical, view, path_set, uav_pos, k, metric)
    best = max(scored, key=lambda ep: (ep.score, -ep.edge), default=None)
    return [] if best is None else [(best.edge, best.start)]
