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
import warnings
from dataclasses import dataclass, field

INF = float("inf")

# Absolute slack for admissibility checks; costs are plain doubles.
_EPS = 1e-9


def _positive_finite(x: float) -> bool:
    return 0 < x < INF  # false for NaN too


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

    def bounds(self) -> tuple[float, float]:
        return (self.t_min, self.t_max)

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.t_min, self.t_max)


@dataclass
class EdgeRecord:
    """One undirected edge, canonically oriented u < v.

    ugv_cost is None for aerial-only edges and for impeded edges (whose
    ground cost is the distribution, not a fixed number).
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


@dataclass(frozen=True)
class Path:
    """A simple vertex path together with its cost under some cost view."""

    vertices: tuple[int, ...]
    cost: float

    def __len__(self) -> int:
        return len(self.vertices)


class ProblemInstance:
    """Validated instance: vertices with coordinates, edges, endpoints.

    Immutable after construction; safe to share between searches.
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
        self.ugv_edge_ids = frozenset(e.id for e in edges if e.ugv_cost is not None or e.impeded)
        self.impeded_ids = frozenset(e.id for e in edges if e.impeded)
        self.validate()
        self._build_adjacency()
        if not self._connected():
            raise InstanceError("UGV edge set does not connect all vertices")
        self.heuristic_admissible = self._check_heuristic()

    def _build_adjacency(self) -> None:
        n = len(self.vertices)
        self.ugv_adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self.uav_adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self._ugv_pair: dict[tuple[int, int], int] = {}
        self._uav_pair: dict[tuple[int, int], int] = {}
        for e in self.edges:
            self.uav_adj[e.u].append((e.v, e.id))
            self.uav_adj[e.v].append((e.u, e.id))
            self._uav_pair[(e.u, e.v)] = e.id
            if e.id in self.ugv_edge_ids:
                self.ugv_adj[e.u].append((e.v, e.id))
                self.ugv_adj[e.v].append((e.u, e.id))
                self._ugv_pair[(e.u, e.v)] = e.id

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

    def _connected(self) -> bool:
        n = len(self.vertices)
        seen = [False] * n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            v = stack.pop()
            for w, _ in self.ugv_adj[v]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == n

    def _check_heuristic(self) -> bool:
        # Straight-line admissibility: every UGV edge must be at least as
        # long (in time) as the straight line between its endpoints.
        for e in self.edges:
            if e.id not in self.ugv_edge_ids:
                continue
            lower = e.distribution.t_min if e.impeded else e.ugv_cost
            if lower + _EPS < self.euclid(e.u, e.v):
                warnings.warn(
                    f"edge {e.id} is shorter than the straight line between its "
                    "endpoints; falling back to a zero heuristic",
                    stacklevel=3,
                )
                return False
        return True

    def euclid(self, a: int, b: int) -> float:
        return math.dist(self.vertices[a], self.vertices[b])

    def heuristic(self, a: int, b: int) -> float:
        """Lower bound on ground travel time between two vertices."""
        if not self.heuristic_admissible:
            return 0.0
        return self.euclid(a, b)

    def ugv_edge_between(self, a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        try:
            return self._ugv_pair[key]
        except KeyError:
            raise NoPathError(f"no UGV edge between {a} and {b}") from None

    def uav_edge_between(self, a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        try:
            return self._uav_pair[key]
        except KeyError:
            raise NoPathError(f"no UAV edge between {a} and {b}") from None

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


class Realization:
    """Hidden true cost of every impeded edge; immutable once created."""

    def __init__(self, inst: ProblemInstance, true_cost: dict[int, float]):
        if set(true_cost) != set(inst.impeded_ids):
            raise InstanceError("realization domain must be exactly the impeded set")
        for eid, c in true_cost.items():
            lo, hi = inst.edges[eid].distribution.bounds()
            if not lo - _EPS <= c <= hi + _EPS:
                raise InstanceError(
                    f"edge {eid}: true cost {c} outside [{lo}, {hi}]"
                )
        self.true_cost = dict(true_cost)

    def __getitem__(self, eid: int) -> float:
        return self.true_cost[eid]

    def __len__(self) -> int:
        return len(self.true_cost)


def sample_realization(inst: ProblemInstance, rng: random.Random) -> Realization:
    return Realization(
        inst, {eid: inst.edges[eid].distribution.sample(rng) for eid in sorted(inst.impeded_ids)}
    )


@dataclass
class KnowledgeState:
    """True costs revealed so far; grows monotonically during a run."""

    realized: dict[int, float] = field(default_factory=dict)

    def reveal(self, eid: int, cost: float) -> None:
        self.realized[eid] = cost

    def knows(self, eid: int) -> bool:
        return eid in self.realized


class PlanningCostView:
    """Per-edge planning cost: fixed, realized, or expected."""

    def __init__(self, inst: ProblemInstance, knowledge: KnowledgeState):
        self.inst = inst
        self.knowledge = knowledge
        self._static: list[float | None] = []
        self._expected: list[float] = []
        for e in inst.edges:
            if e.id not in inst.ugv_edge_ids:
                self._static.append(None)
                self._expected.append(INF)
            elif e.impeded:
                self._static.append(None)
                self._expected.append(e.distribution.expected())
            else:
                self._static.append(e.ugv_cost)
                self._expected.append(e.ugv_cost)

    def cost(self, eid: int) -> float:
        s = self._static[eid]
        if s is not None:
            return s
        r = self.knowledge.realized.get(eid)
        if r is not None:
            return r
        return self._expected[eid]

    def path_cost(self, vertices: tuple[int, ...] | list[int]) -> float:
        """Left-to-right sum of view costs along a vertex sequence."""
        total = 0.0
        for a, b in zip(vertices, vertices[1:]):
            total += self.cost(self.inst.ugv_edge_between(a, b))
        return total


class UavMetric:
    """Aerial transit metric over S: straight lines in free flight,
    otherwise shortest paths under the aerial edge costs.  Single-source
    results are cached; instances never change, so the cache is permanent.
    """

    def __init__(self, inst: ProblemInstance):
        self.inst = inst
        self._cache: dict[int, tuple[list[float], list[int]]] = {}

    def _sssp(self, src: int) -> tuple[list[float], list[int]]:
        hit = self._cache.get(src)
        if hit is None:
            edges = self.inst.edges
            hit = dijkstra(self.inst.uav_adj, src, lambda eid: edges[eid].uav_cost)
            self._cache[src] = hit
        return hit

    def cost(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        if self.inst.uav_free_flight:
            return self.inst.euclid(a, b) / self.inst.uav_speed
        return self._sssp(a)[0][b]

    def path(self, a: int, b: int) -> list[int]:
        """Transit vertex sequence from a to b (inclusive)."""
        if a == b:
            return [a]
        if self.inst.uav_free_flight:
            return [a, b]
        dist, parent = self._sssp(a)
        if dist[b] == INF:
            raise NoPathError(f"vertex {b} unreachable by the UAV from {a}")
        out = [b]
        v = b
        while v != a:
            v = parent[v]
            out.append(v)
        out.reverse()
        return out


def dijkstra(
    adj: list[list[tuple[int, int]]],
    source: int,
    cost_of_edge,
) -> tuple[list[float], list[int]]:
    """Single-source shortest paths over an adjacency list of
    (neighbor, edge id) pairs.

    cost_of_edge maps an edge id to its cost; infinite costs hide edges.
    Returns (distance, parent) arrays.
    """
    n = len(adj)
    dist = [INF] * n
    parent = [-1] * n
    dist[source] = 0.0
    pq = [(0.0, source)]
    while pq:
        dv, v = heapq.heappop(pq)
        if dv > dist[v]:
            continue
        for w, eid in adj[v]:
            alt = dv + cost_of_edge(eid)
            if alt < dist[w]:
                dist[w] = alt
                parent[w] = v
                heapq.heappush(pq, (alt, w))
    return dist, parent


def descend(
    adj: list[list[tuple[int, int]]], dist: list[float], cost_of_edge, source: int, dest: int
) -> tuple[int, ...] | None:
    """Greedy descent from source to dest: step to the neighbor minimizing
    edge cost + dist, lowest vertex id on ties.

    dist holds distances to dest.  Returns the vertex sequence, or None when
    dest is unreachable or the walk exceeds the vertex count.
    """
    v = source
    out = [v]
    while v != dest:
        best = INF
        nxt = -1
        for s, eid in adj[v]:
            cand = cost_of_edge(eid) + dist[s]
            if cand < best or (cand == best and s < nxt):
                best = cand
                nxt = s
        if nxt < 0 or best == INF or len(out) == len(adj):
            return None
        v = nxt
        out.append(v)
    return tuple(out)


# ---------------------------------------------------------------------------
# Instance and realization files.
#
# Line-oriented text:  header "sapp 1", one "v <id> <x> <y>" line per vertex,
# one "e <id> <u> <v> <ugv_cost|-> <uav_cost> <U t_min t_max|->" line per
# edge, then a "meta p=.. q=.. d=.. uav_speed=.. free_flight=0|1" footer.
# Numbers use the shortest round-trip decimal form.
# ---------------------------------------------------------------------------

_HEADER = "sapp 1"


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


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise InstanceError(f"{path}: not UTF-8 text: {exc}") from None


def load_instance(path: str) -> ProblemInstance:
    raw = _read_lines(path)
    if not raw or raw[0].strip() != _HEADER:
        raise InstanceError(f"{path}:1: expected header '{_HEADER}'")

    vertices: list[tuple[float, float]] = []
    edges: list[EdgeRecord] = []
    meta: dict[str, str] = {}

    def fail(lineno: int, msg: str):
        raise InstanceError(f"{path}:{lineno}: {msg}")

    for lineno, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        try:
            if tag == "v":
                vid, x, y = int(parts[1]), float(parts[2]), float(parts[3])
                if vid != len(vertices):
                    fail(lineno, f"vertex ids must be dense and ordered, got {vid}")
                vertices.append((x, y))
            elif tag == "e":
                eid, u, v = int(parts[1]), int(parts[2]), int(parts[3])
                ugv = None if parts[4] == "-" else float(parts[4])
                uav = float(parts[5])
                if parts[6] == "-":
                    dist = None
                elif parts[6] == "U":
                    dist = UniformCost(float(parts[7]), float(parts[8]))
                else:
                    fail(lineno, f"unknown distribution kind {parts[6]!r}")
                if eid != len(edges):
                    fail(lineno, f"edge ids must be dense and ordered, got {eid}")
                edges.append(EdgeRecord(eid, u, v, ugv, uav, dist))
            elif tag == "meta":
                for item in parts[1:]:
                    key, _, val = item.partition("=")
                    meta[key] = val
            else:
                fail(lineno, f"unknown record tag {tag!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, InstanceError):
                raise
            fail(lineno, f"malformed {tag!r} record: {exc}")

    for key in ("p", "q", "d"):
        if key not in meta:
            raise InstanceError(f"{path}: meta line is missing {key}")
    try:
        p, q, d = (int(meta[key]) for key in ("p", "q", "d"))
        uav_speed = float(meta.get("uav_speed", "2.0"))
    except ValueError as exc:
        raise InstanceError(f"{path}: bad meta value: {exc}") from None
    free_flight = meta.get("free_flight", "0")
    if free_flight not in ("0", "1"):
        raise InstanceError(f"{path}: free_flight must be 0 or 1, got {free_flight!r}")
    try:
        return ProblemInstance(
            vertices, edges, p=p, q=q, d=d, uav_speed=uav_speed,
            uav_free_flight=free_flight == "1",
        )
    except InstanceError as exc:
        raise InstanceError(f"{path}: {exc}") from None


def save_realization(real: Realization, path: str) -> None:
    with open(path, "w") as fh:
        for eid in sorted(real.true_cost):
            fh.write(f"r {eid} {_fmt(real.true_cost[eid])}\n")


def load_realization(path: str, inst: ProblemInstance) -> Realization:
    costs: dict[int, float] = {}
    for lineno, line in enumerate(_read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "r" or len(parts) != 3:
            raise InstanceError(f"{path}:{lineno}: malformed realization record")
        try:
            costs[int(parts[1])] = float(parts[2])
        except ValueError as exc:
            raise InstanceError(f"{path}:{lineno}: {exc}") from None
    try:
        return Realization(inst, costs)
    except InstanceError as exc:
        raise InstanceError(f"{path}: {exc}") from None
