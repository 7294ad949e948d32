"""Priority scoring for the scout's next inspection.

Instead of solving a tour, score every critical edge by four normalized
signals (path coverage, urgency, cost uncertainty, scout proximity) and
inspect the single best one.  Linear in the number of critical edges once
shortest-path distances are available.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import INF, PlanningCostView, ProblemInstance, UavMetric
from .kspp import PathSet
from .rpp import CriticalEdge


@dataclass(frozen=True)
class PriorityWeights:
    w1: float = 0.25
    w2: float = 0.25
    w3: float = 0.2
    w4: float = 0.3

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.w1, self.w2, self.w3, self.w4)


@dataclass(frozen=True)
class EdgePriority:
    edge: int
    p1: float  # share of the k requested paths that use the edge
    p2: float  # urgency: 1 for the earliest divergence time, 0 for the latest
    p3: float  # cost variance relative to the most uncertain critical edge
    p4: float  # closeness of the nearer endpoint to the scout
    score: float


@dataclass
class PaaContext:
    """Everything the scorer needs besides the critical edges themselves."""

    inst: ProblemInstance
    view: PlanningCostView
    path_set: PathSet
    uav_pos: int
    weights: PriorityWeights
    k: int
    metric: UavMetric | None = None

    def __post_init__(self):
        if self.metric is None:
            self.metric = UavMetric(self.inst)


def divergence_time(edge: int, path_set: PathSet, view: PlanningCostView) -> float:
    """Expected time before the ground vehicle is past caring about the edge.

    On the best path this is the expected arrival at the edge itself; on a
    lower-ranked path it is the expected arrival at the vertex where that
    path leaves the best one.  Edges on several paths take the minimum.
    """
    inst = view.inst
    paths = list(path_set)
    if not paths:
        return INF
    best = paths[0].vertices
    lam = INF
    for rank, path in enumerate(paths):
        vs = path.vertices
        arrival = 0.0
        onpath_at = None
        for a, b in zip(vs, vs[1:]):
            if inst.ugv_edge_between(a, b) == edge:
                onpath_at = arrival
                break
            arrival += view.cost(inst.ugv_edge_between(a, b))
        if onpath_at is None:
            continue
        if rank == 0:
            lam = min(lam, onpath_at)
        else:
            # Arrival at the last vertex shared with the best path.
            shared = 0
            while (
                shared < len(vs) - 1
                and shared < len(best) - 1
                and vs[shared + 1] == best[shared + 1]
            ):
                shared += 1
            div_arrival = 0.0
            for a, b in zip(vs[: shared + 1], vs[1 : shared + 1]):
                div_arrival += view.cost(inst.ugv_edge_between(a, b))
            lam = min(lam, div_arrival)
    return lam


def score_edges(critical: list[CriticalEdge], ctx: PaaContext) -> list[EdgePriority]:
    """All four signals plus the weighted score, one entry per critical edge."""
    if not critical:
        return []
    inst = ctx.inst
    k = ctx.k

    counts: dict[int, int] = {ce.edge: 0 for ce in critical}
    for path in ctx.path_set:
        vs = path.vertices
        on_path = set()
        for a, b in zip(vs, vs[1:]):
            on_path.add(inst.ugv_edge_between(a, b))
        for eid in counts:
            if eid in on_path:
                counts[eid] += 1

    lam = {ce.edge: divergence_time(ce.edge, ctx.path_set, ctx.view) for ce in critical}
    lam_min = min(lam.values())
    lam_max = max(lam.values())

    var = {ce.edge: inst.edges[ce.edge].distribution.variance() for ce in critical}
    var_max = max(var.values())

    dist = {}
    for ce in critical:
        rec = inst.edges[ce.edge]
        dist[ce.edge] = min(
            ctx.metric.cost(ctx.uav_pos, rec.u), ctx.metric.cost(ctx.uav_pos, rec.v)
        )
    d_max = max(dist.values())

    out = []
    w1, w2, w3, w4 = ctx.weights.as_tuple()
    for ce in critical:
        e = ce.edge
        p1 = counts[e] / k
        p2 = 1.0 if lam_min == lam_max else (lam_max - lam[e]) / (lam_max - lam_min)
        p3 = 1.0 if var_max == 0 else var[e] / var_max
        p4 = 1.0 if d_max == 0 else 1.0 - dist[e] / d_max
        out.append(EdgePriority(e, p1, p2, p3, p4, w1 * p1 + w2 * p2 + w3 * p3 + w4 * p4))
    return out


def select_edge(critical: list[CriticalEdge], ctx: PaaContext) -> int | None:
    """Highest-score critical edge; lowest edge id on ties; None when empty."""
    scored = score_edges(critical, ctx)
    if not scored:
        return None
    best = scored[0]
    for ep in scored[1:]:
        if ep.score > best.score or (ep.score == best.score and ep.edge < best.edge):
            best = ep
    return best.edge
