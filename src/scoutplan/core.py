"""Graph model shared by all planners.

A problem instance is an undirected graph with two edge sets: the ground
vehicle travels on E, the aerial scout on S (a superset of E).  A subset K
of E is "impeded": the ground-vehicle cost of such an edge is a bounded
random variable whose true value becomes known only when a vehicle fully
traverses (or inspects) the edge.  Planning always prices impeded edges at
their expected cost until they are realized.
"""

from __future__ import annotations

import heapq
import math
import random
from array import array
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

INF = float("inf")

# Absolute slack on a realized cost's bounds; costs are plain doubles.
_EPS = 1e-9


def _positive_finite(x: float) -> bool:
    return 0 < x < INF  # false for NaN too


def check_at_least(name: str, value: int, least: int) -> None:
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_positive(name: str, value: float) -> None:
    if type(value) not in (int, float) or not _positive_finite(value):
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


class InstanceError(ValueError):
    """Raised when an instance file or instance invariant is invalid."""


class NoPathError(RuntimeError):
    """Raised when a required route does not exist."""


@dataclass(frozen=True)
class UniformCost:
    """Uniform travel-cost distribution on [t_min, t_max]."""

    t_min: float
    t_max: float

    def expected(self) -> float:
        return (self.t_min + self.t_max) / 2.0

    def variance(self) -> float:
        return (self.t_max - self.t_min) ** 2 / 12.0

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.t_min, self.t_max)


@dataclass
class EdgeRecord:
    """One undirected edge, canonically oriented u < v.

    ugv_cost is None for impeded edges (whose ground cost is the
    distribution) and for aerial-only edges, which the ground prices at INF.
    """

    id: int
    u: int
    v: int
    ugv_cost: float | None
    uav_cost: float
    distribution: UniformCost | None = None

    @property
    def impeded(self) -> bool:
        return self.distribution is not None

    def other(self, w: int) -> int:
        return self.v if w == self.u else self.u


class Path(NamedTuple):
    """A simple vertex path, the ids of its edges in walking order, and its
    cost under some cost view."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    cost: float


class ProblemInstance:
    """Validated instance: vertices with coordinates, edges, endpoints, and
    the cost tuples by edge id ``uav_costs`` and ``prior_costs``, the ground
    cost before any reveal (fixed, expected if impeded, INF if aerial-only).

    ``adj`` lists each vertex's (neighbor, edge id) pairs over all of S, in
    edge-id order.  The ground vehicle may drive an edge iff its prior cost
    is finite, and that INF alone keeps aerial-only edges out of the ground
    searches over ``adj``: ``dijkstra`` never relaxes d + INF; ``descend``
    never picks or ties an INF step; D*'s test cand < rhs fails for INF, and
    rhs == cost + g_old holds only for an INF rhs, whose lookahead stays INF
    (edges are never parallel); ``ReverseTree.hide`` skips INF edges, and
    INF + dist never equals the finite g its parent and child reads need.

    Immutable after construction; safe to share between searches.  The
    distances to d under the prior costs, which every mission's first
    backward search needs, are computed on first use and kept.
    """

    def __init__(
        self,
        vertices: list[tuple[float, float]],
        edges: list[EdgeRecord],
        p: int,
        q: int,
        d: int,
        uav_speed: float = 2.0,
        uav_free_flight: bool = False,
    ):
        self.vertices = vertices
        self.edges = edges
        self.p = p
        self.q = q
        self.d = d
        self.uav_speed = uav_speed
        self.uav_free_flight = uav_free_flight
        self.impeded_ids = frozenset(e.id for e in edges if e.impeded)
        self._prior_dist: array | None = None
        self.validate()
        self._build_adjacency()
        if not self._connected():
            raise InstanceError("UGV edge set does not connect all vertices")

    def _build_adjacency(self) -> None:
        self.adj: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        prior = []
        for e in self.edges:
            self.adj[e.u].append((e.v, e.id))
            self.adj[e.v].append((e.u, e.id))
            prior.append(e.distribution.expected() if e.impeded else INF if e.ugv_cost is None else e.ugv_cost)
        self.prior_costs: tuple[float, ...] = tuple(prior)
        self.uav_costs: tuple[float, ...] = tuple(e.uav_cost for e in self.edges)

    def validate(self) -> None:
        n = len(self.vertices)
        if n == 0:
            raise InstanceError("instance has no vertices")
        for x, y in self.vertices:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise InstanceError("vertex coordinate is not finite")
        for name, v in (("p", self.p), ("q", self.q), ("d", self.d)):
            if not 0 <= v < n:
                raise InstanceError(f"endpoint {name}={v} is not a vertex id")
        if not _positive_finite(self.uav_speed):
            raise InstanceError(f"uav_speed {self.uav_speed} is not finite and positive")
        seen_pairs: set[tuple[int, int]] = set()
        ground = aerial = 0.0  # every edge's largest ground cost and its aerial cost, summed
        for i, e in enumerate(self.edges):
            if e.id != i:
                raise InstanceError(f"edge ids must be dense, got {e.id} at index {i}")
            if not (0 <= e.u < n and 0 <= e.v < n):
                raise InstanceError(f"edge {e.id} references unknown vertex")
            if e.u >= e.v:
                raise InstanceError(f"edge {e.id} is not canonically oriented (u < v)")
            if (e.u, e.v) in seen_pairs:
                raise InstanceError(f"duplicate edge between {e.u} and {e.v}")
            seen_pairs.add((e.u, e.v))
            if not _positive_finite(e.uav_cost):
                raise InstanceError(f"edge {e.id}: aerial cost is not finite and positive")
            if e.impeded:
                if e.ugv_cost is not None:
                    raise InstanceError(
                        f"edge {e.id}: impeded edge carries a fixed UGV cost"
                    )
                dist = e.distribution
                if not (_positive_finite(dist.t_max) and 0 < dist.t_min <= dist.t_max):
                    raise InstanceError(
                        f"edge {e.id}: invalid cost bounds [{dist.t_min}, {dist.t_max}]"
                    )
            elif e.ugv_cost is not None and not _positive_finite(e.ugv_cost):
                raise InstanceError(
                    f"edge {e.id}: unimpeded UGV edge needs a finite positive cost"
                )
            aerial += e.uav_cost
            ground += e.distribution.t_max if e.impeded else e.ugv_cost or 0.0  # aerial-only: nothing
        # Then no path's cost, nor the sum of two, overflows to INF.
        if not 2 * max(ground, aerial) < INF:
            kind = "ground" if ground >= aerial else "aerial"
            raise InstanceError(f"{kind} edge costs sum past half the largest float")

    def _connected(self) -> bool:
        n = len(self.vertices)
        seen = [False] * n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            v = stack.pop()
            for w, eid in self.adj[v]:
                if not seen[w] and self.prior_costs[eid] < INF:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == n

    def prior_distances(self) -> array:
        """Each vertex's distance to d under ``prior_costs`` (INF when
        unreachable), from one ``dijkstra`` on the first call.  Callers copy it."""
        if self._prior_dist is None:
            self._prior_dist = array("d", dijkstra(self.adj, self.d, self.prior_costs)[0])
        return self._prior_dist

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


class Realization:
    """Hidden true cost of every impeded edge, and ``costs``: the instance's
    prior costs with each impeded edge at its true cost.  Immutable, but for
    ``lower_bound``: None until ``sim.lower_bound`` first searches, then the
    perfect-information arrival it found.  A realization is validated
    against one instance, so it alone keys that search."""

    def __init__(self, inst: ProblemInstance, true_cost: dict[int, float]):
        if set(true_cost) != set(inst.impeded_ids):
            raise InstanceError("realization domain must be exactly the impeded set")
        costs = list(inst.prior_costs)
        for eid, c in true_cost.items():
            dist = inst.edges[eid].distribution
            lo, hi = dist.t_min, dist.t_max
            if not _positive_finite(c):
                raise InstanceError(f"edge {eid}: true cost {c} is not finite and positive")
            if not lo - _EPS <= c <= hi + _EPS:
                raise InstanceError(
                    f"edge {eid}: true cost {c} outside [{lo}, {hi}]"
                )
            costs[eid] = c
        self.true_cost = dict(true_cost)
        self.costs: tuple[float, ...] = tuple(costs)
        self.lower_bound: float | None = None


def sample_realization(inst: ProblemInstance, rng: random.Random) -> Realization:
    return Realization(
        inst, {eid: inst.edges[eid].distribution.sample(rng) for eid in sorted(inst.impeded_ids)}
    )


class PlanningCostView:
    """What is known so far, and the planning cost it gives every edge.

    ``hidden`` holds the impeded edges whose true cost is still unrevealed;
    it only shrinks.  ``costs`` is indexed by edge id: a copy of the
    instance's ``prior_costs`` with each revealed edge at its realized cost.
    Searches index it directly; ``reveal`` keeps the two in step.
    """

    def __init__(self, inst: ProblemInstance):
        self.hidden: set[int] = set(inst.impeded_ids)
        self.costs: list[float] = list(inst.prior_costs)

    def reveal(self, eid: int, cost: float) -> None:
        self.hidden.discard(eid)
        self.costs[eid] = cost

    def unrevealed(self, eid: int) -> bool:
        """Whether ``eid`` is an impeded edge whose true cost is still hidden."""
        return eid in self.hidden

    def path_cost(self, edges: tuple[int, ...]) -> float:
        """Left-to-right sum of the planning costs along a path's edge ids."""
        costs = self.costs
        total = 0.0
        for eid in edges:
            total += costs[eid]
        return total


class UavMetric:
    """Aerial transit metric over S: straight lines in free flight,
    otherwise shortest paths under the aerial edge costs.  Single-source
    results are cached; instances never change, so the cache is permanent,
    and ``cost`` and ``path`` read the flight mode, coordinates and speed
    bound here.
    """

    def __init__(self, inst: ProblemInstance):
        self.inst = inst
        self._free, self._coords, self._speed = inst.uav_free_flight, inst.vertices, inst.uav_speed
        self._cache: dict[int, tuple[list[float], dict[int, int], int]] = {}

    def _sssp(self, src: int) -> tuple[list[float], dict[int, int], int]:
        hit = self._cache.get(src)
        if hit is None:
            hit = dijkstra(self.inst.adj, src, self.inst.uav_costs)
            self._cache[src] = hit
        return hit

    def cost(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        if self._free:
            return math.dist(self._coords[a], self._coords[b]) / self._speed
        return self._sssp(a)[0][b]

    def path(self, a: int, b: int) -> list[tuple[int, int, float]]:
        """Transit hops (from, to, duration) from a to b; none when a == b."""
        if a == b:
            return []
        if self._free:
            return [(a, b, math.dist(self._coords[a], self._coords[b]) / self._speed)]
        dist, parent, _ = self._sssp(a)
        if dist[b] == INF:
            raise NoPathError(f"vertex {b} unreachable by the UAV from {a}")
        hops = []
        v = b
        while v != a:
            e = self.inst.edges[parent[v]]
            u = e.other(v)
            hops.append((u, v, e.uav_cost))
            v = u
        hops.reverse()
        return hops


def dijkstra(
    adj: list[list[tuple[int, int]]],
    source: int | list[int],
    cost: Sequence[float],
    target: int | None = None,
    dist: list[float] | None = None,
) -> tuple[list[float], dict[int, int], int]:
    """Shortest paths from source over an adjacency list of
    (neighbor, edge id) pairs.

    cost is a sequence of edge costs indexed by edge id, such as
    ``PlanningCostView.costs``; infinite costs hide edges.  Returns
    (distance, parent, settled): parent maps each vertex whose distance the
    search lowered to the id of the edge by which it was last reached, and
    settled counts the vertices expanded.  Its keys are the reached
    vertices but the source; the source and unreached vertices are absent,
    so a search allocates only for what it reaches.

    Without a target every reachable vertex is settled.  With one, the
    search stops at the first popped distance above the target's.  Pops
    come in nondecreasing distance and the relaxations up to the stop are a
    full search's, so every vertex no farther than the target, each vertex
    on a shortest path to it included, is settled with the distance a full
    search gives, bit for bit.  Every other distance is an upper bound.

    A seeded search passes ``dist`` too, and ``source`` is then a list of
    frontier vertices: the search starts from each of them at its ``dist``
    entry instead of from one vertex at 0, and writes into ``dist``.  Every
    other finite entry must be final, at most what any path from the
    frontier gives, so the search never improves it, or no less than the
    target's, so it is popped only once a path improves it; the paths from
    the frontier then play the part of the source's in everything above.
    A frontier vertex is a key of parent only if the search lowers its
    entry.
    """
    if dist is None:
        dist = [INF] * len(adj)
        dist[source] = 0.0
        source = (source,)
    parent: dict[int, int] = {}
    pq = [(dist[v], v) for v in source]
    heapq.heapify(pq)
    settled = 0
    while pq:
        dv, v = heapq.heappop(pq)
        if dv > dist[v]:
            continue
        if target is not None and dv > dist[target]:
            break
        settled += 1
        for w, eid in adj[v]:
            alt = dv + cost[eid]
            if alt < dist[w]:
                dist[w] = alt
                parent[w] = eid
                heapq.heappush(pq, (alt, w))
    return dist, parent, settled


def lookahead(
    adj: list[list[tuple[int, int]]], cost: Sequence[float], dist: Sequence[float], v: int
) -> float:
    """D* Lite's one-step lookahead (rhs) of v: the least edge cost plus
    dist[w] over v's (neighbor w, edge id) pairs, INF if none is finite.
    With dist exact towards a destination, no path from v costs less."""
    best = INF
    for w, eid in adj[v]:
        cand = cost[eid] + dist[w]
        if cand < best:
            best = cand
    return best


def descend(
    adj: list[list[tuple[int, int]]], dist: list[float], cost: list[float], source: int, dest: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Greedy descent from source to dest: step to the neighbor minimizing
    edge cost + dist, lowest vertex id on ties.

    dist holds distances to dest and cost the edge costs by edge id.
    Returns the vertex sequence and the ids of the edges taken, or None when
    dest is unreachable or the walk exceeds the vertex count.
    """
    v = source
    vertices = [v]
    edges = []
    while v != dest:
        best = INF
        nxt = taken = -1
        for s, eid in adj[v]:
            cand = cost[eid] + dist[s]
            if cand < best or (cand == best and s < nxt):
                best = cand
                nxt = s
                taken = eid
        if nxt < 0 or best == INF or len(vertices) == len(adj):
            return None
        v = nxt
        vertices.append(v)
        edges.append(taken)
    return tuple(vertices), tuple(edges)


# ---------------------------------------------------------------------------
# Input files, read as UTF-8 text by `read_text` and record by record by
# `read_records`.  Instance files: header "sapp 1", one "v <id> <x> <y>" line
# per vertex, one "e <id> <u> <v> <ugv_cost|-> <uav_cost> <U t_min t_max|->"
# line per edge, then a "meta p=.. q=.. d=.. uav_speed=.. free_flight=0|1"
# footer.  Realization files: one "r <edge id> <true cost>" line per impeded
# edge.  Numbers use the shortest round-trip decimal form.
# ---------------------------------------------------------------------------

_HEADER = "sapp 1"


def _bit(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {text!r}")
    return text == "1"


def _int(text: str) -> int:
    """An id written in ASCII digits; other text fails with int()'s message."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


#: How each meta key's value is read; p, q and d are required.
_META = {"p": _int, "q": _int, "d": _int, "uav_speed": float, "free_flight": _bit}


def read_text(path: str) -> str:
    """The file's text.  Bytes that are not UTF-8 are an InstanceError; an OSError passes through."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InstanceError(f"{path}: not UTF-8 text: {exc}") from None


def read_records(path: str, record: Callable, rows: Iterable | None = None) -> None:
    """Call ``record(fields)`` for each (line number, fields) row that has fields;
    by default the rows are the file's lines, split on whitespace.  A ValueError or
    IndexError from ``record`` becomes an InstanceError "<path>:<line number>: <message>"."""
    if rows is None:
        rows = enumerate(map(str.split, read_text(path).splitlines()), 1)
    for lineno, fields in rows:
        if fields:
            try:
                record(fields)
            except (ValueError, IndexError) as exc:
                raise InstanceError(f"{path}:{lineno}: {exc}") from None


def _fmt(x: float) -> str:
    return repr(float(x))


def save_instance(inst: ProblemInstance, path: str) -> None:
    lines = [_HEADER]
    for i, (x, y) in enumerate(inst.vertices):
        lines.append(f"v {i} {_fmt(x)} {_fmt(y)}")
    for e in inst.edges:
        ugv = _fmt(e.ugv_cost) if e.ugv_cost is not None else "-"
        dist = f"U {_fmt(e.distribution.t_min)} {_fmt(e.distribution.t_max)}" if e.impeded else "-"
        lines.append(f"e {e.id} {e.u} {e.v} {ugv} {_fmt(e.uav_cost)} {dist}")
    ff = 1 if inst.uav_free_flight else 0
    lines.append(
        f"meta p={inst.p} q={inst.q} d={inst.d} uav_speed={_fmt(inst.uav_speed)} free_flight={ff}"
    )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_instance(path: str) -> ProblemInstance:
    vertices: list[tuple[float, float]] = []
    edges: list[EdgeRecord] = []
    meta: dict = {}

    def record(fields: list[str]) -> None:
        tag = fields[0]
        if tag == "v":
            _, vid, x, y = fields
            if _int(vid) != len(vertices):
                raise ValueError(f"vertex ids must be dense and ordered, got {vid}")
            vertices.append((float(x), float(y)))
        elif tag == "e":
            _, eid, u, v, ugv, uav, *kind = fields
            if _int(eid) != len(edges):
                raise ValueError(f"edge ids must be dense and ordered, got {eid}")
            dist = None
            if kind[:1] == ["U"]:
                _, t_min, t_max = kind
                dist = UniformCost(float(t_min), float(t_max))
            elif kind != ["-"]:
                raise ValueError(f"unknown distribution {' '.join(kind)!r}, expected - or U t_min t_max")
            ugv_cost = None if ugv == "-" else float(ugv)
            edges.append(EdgeRecord(len(edges), _int(u), _int(v), ugv_cost, float(uav), dist))
        elif tag == "meta" and not meta:
            for item in fields[1:]:
                key, sep, value = item.partition("=")
                if not sep or key not in _META or key in meta:
                    raise ValueError(f"unknown or repeated meta field {item!r}")
                meta[key] = _META[key](value)
            if not {"p", "q", "d"} <= meta.keys():
                raise ValueError("meta line needs p, q and d")
        else:
            raise ValueError("second meta line" if tag == "meta" else f"unknown record tag {tag!r}")

    rows = enumerate(map(str.split, read_text(path).splitlines()), 1)
    if next(rows, None) != (1, _HEADER.split()):
        raise InstanceError(f"{path}:1: expected header '{_HEADER}'")
    read_records(path, record, rows)
    if not meta:
        raise InstanceError(f"{path}: no meta line")
    meta["uav_free_flight"] = meta.pop("free_flight", False)
    try:
        return ProblemInstance(vertices, edges, **meta)
    except InstanceError as exc:
        raise InstanceError(f"{path}: {exc}") from None


def save_realization(real: Realization, path: str) -> None:
    with open(path, "w") as fh:
        for eid in sorted(real.true_cost):
            fh.write(f"r {eid} {_fmt(real.true_cost[eid])}\n")


def load_realization(path: str, inst: ProblemInstance) -> Realization:
    costs: dict[int, float] = {}

    def record(fields: list[str]) -> None:
        tag, eid, cost = fields
        if tag != "r":
            raise ValueError(f"unknown record tag {tag!r}")
        eid = _int(eid)
        if eid in costs:
            raise ValueError(f"repeated edge id {eid}")
        costs[eid] = float(cost)

    read_records(path, record)
    try:
        return Realization(inst, costs)
    except InstanceError as exc:
        raise InstanceError(f"{path}: {exc}") from None
