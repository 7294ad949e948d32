"""Incremental single-destination shortest paths (D* Lite).

The search runs backwards from the destination and keeps two distance
estimates per vertex: g (the committed estimate) and rhs (a one-step
lookahead over the neighbors).  A vertex is locally consistent when the
two agree; exactly the inconsistent vertices sit in the priority queue.
After edge costs change, only the affected region is re-expanded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import INF, NoPathError, Path, PlanningCostView, ProblemInstance, descend

Key = tuple[float, float]

INF_KEY: Key = (INF, INF)

# Keys that are equal in exact arithmetic can differ by a few ulps here,
# because k1 mixes sums of edge costs with directly computed straight-line
# distances.  On collinear geometry the lexicographic tie-break is load
# bearing (an underconsistent vertex must win an exact k1 tie through its
# smaller k2), so the expansion-loop comparisons treat k1 values within a
# relative 1e-9 as tied instead of trusting the last bits.
_REL_TOL = 1e-9


def _cmp_tol(a: float, b: float) -> int:
    if a == b:
        return 0
    if a == INF or b == INF:
        return -1 if a < b else 1
    tol = _REL_TOL * max(1.0, abs(a), abs(b))
    if a < b - tol:
        return -1
    if a > b + tol:
        return 1
    return 0


def key_less(a: Key, b: Key) -> bool:
    """Lexicographic key order with tolerant component comparison."""
    c = _cmp_tol(a[0], b[0])
    if c:
        return c < 0
    return _cmp_tol(a[1], b[1]) < 0


@dataclass(frozen=True)
class CostUpdate:
    """One edge whose planning cost changed (infinite = temporarily removed)."""

    edge: int
    old_cost: float
    new_cost: float


class AddressableHeap:
    """Binary min-heap over (key, vertex) with by-vertex addressing.

    Insert, update and remove are O(log n); top and top_key are O(1).
    Ordering is lexicographic on (k1, k2, vertex) so ties resolve to the
    lowest vertex id.
    """

    __slots__ = ("_items", "_pos")

    def __init__(self):
        self._items: list[tuple[float, float, int]] = []
        self._pos: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, v: int) -> bool:
        return v in self._pos

    def top(self) -> int:
        return self._items[0][2]

    def top_key(self) -> Key:
        if not self._items:
            return INF_KEY
        k1, k2, _ = self._items[0]
        return (k1, k2)

    def key_of(self, v: int) -> Key:
        k1, k2, _ = self._items[self._pos[v]]
        return (k1, k2)

    def insert(self, v: int, key: Key) -> None:
        items = self._items
        items.append((key[0], key[1], v))
        self._pos[v] = len(items) - 1
        self._sift_up(len(items) - 1)

    def update(self, v: int, key: Key) -> None:
        i = self._pos[v]
        self._items[i] = (key[0], key[1], v)
        if not self._sift_up(i):
            self._sift_down(i)

    def remove(self, v: int) -> None:
        items = self._items
        i = self._pos.pop(v)
        last = items.pop()
        if i < len(items):
            items[i] = last
            self._pos[last[2]] = i
            if not self._sift_up(i):
                self._sift_down(i)

    def pop(self) -> int:
        v = self._items[0][2]
        self.remove(v)
        return v

    def _sift_up(self, i: int) -> bool:
        items = self._items
        pos = self._pos
        item = items[i]
        moved = False
        while i > 0:
            parent = (i - 1) >> 1
            if items[parent] <= item:
                break
            items[i] = items[parent]
            pos[items[i][2]] = i
            i = parent
            moved = True
        items[i] = item
        pos[item[2]] = i
        return moved

    def _sift_down(self, i: int) -> None:
        items = self._items
        pos = self._pos
        n = len(items)
        item = items[i]
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            right = child + 1
            if right < n and items[right] < items[child]:
                child = right
            if item <= items[child]:
                break
            items[i] = items[child]
            pos[items[i][2]] = i
            i = child
        items[i] = item
        pos[item[2]] = i


class DStarState:
    """Mutable search state: g/rhs arrays, queue, key offset and anchor."""

    def __init__(self, inst: ProblemInstance, start: int, dest: int):
        n = inst.n_vertices
        self.inst = inst
        self.dest = dest
        self.g: list[float] = [INF] * n
        self.rhs: list[float] = [INF] * n
        self.queue = AddressableHeap()
        self.k_m = 0.0
        self.v_old = start
        self.v_curr = start
        self.expansions = 0

    def queue_consistent(self) -> bool:
        """Check the membership invariant: queued iff g != rhs."""
        queued = set(self.queue._pos)
        inconsistent = {v for v in range(len(self.g)) if self.g[v] != self.rhs[v]}
        return queued == inconsistent


def initialize(inst: ProblemInstance, start: int, dest: int) -> DStarState:
    """Fresh search state: rhs(dest)=0, queue holds only the destination."""
    state = DStarState(inst, start, dest)
    state.rhs[dest] = 0.0
    state.queue.insert(dest, (inst.heuristic(start, dest), 0.0))
    return state


def calculate_key(state: DStarState, v: int) -> Key:
    m = state.g[v]
    r = state.rhs[v]
    if r < m:
        m = r
    return (m + state.inst.heuristic(v, state.v_curr) + state.k_m, m)


def update_vertex(state: DStarState, v: int) -> None:
    queued = v in state.queue
    if state.g[v] != state.rhs[v]:
        if queued:
            state.queue.update(v, calculate_key(state, v))
        else:
            state.queue.insert(v, calculate_key(state, v))
    elif queued:
        state.queue.remove(v)


def rhs_update(state: DStarState, view: PlanningCostView, update: CostUpdate) -> None:
    """Repair both endpoints of an updated edge (view already holds the
    new cost).  Decreases relax both ends; increases recompute the lookahead
    minimum at an endpoint whose value came from the stale edge."""
    rec = state.inst.edges[update.edge]
    u, v = rec.u, rec.v
    g = state.g
    rhs = state.rhs
    dest = state.dest
    if update.old_cost > update.new_cost:
        cand = g[v] + update.new_cost
        if u != dest and cand < rhs[u]:
            rhs[u] = cand
        cand = g[u] + update.new_cost
        if v != dest and cand < rhs[v]:
            rhs[v] = cand
    else:
        cost = view.cost
        adj = state.inst.ugv_adj
        if u != dest and rhs[u] == g[v] + update.old_cost:
            best = INF
            for w, eid in adj[u]:
                cand = g[w] + cost(eid)
                if cand < best:
                    best = cand
            rhs[u] = best
        if v != dest and rhs[v] == g[u] + update.old_cost:
            best = INF
            for w, eid in adj[v]:
                cand = g[w] + cost(eid)
                if cand < best:
                    best = cand
            rhs[v] = best
    update_vertex(state, u)
    update_vertex(state, v)


def compute_shortest_path(
    state: DStarState, view: PlanningCostView, v_curr: int
) -> None:
    """Expand until v_curr is locally consistent and no queued key precedes
    its own.  g(v_curr) then equals its shortest distance to the destination,
    or infinity when unreachable."""
    state.v_curr = v_curr
    g = state.g
    rhs = state.rhs
    queue = state.queue
    inst = state.inst
    adj = inst.ugv_adj
    h = inst.heuristic
    dest = state.dest
    cost = view.cost
    k_m = state.k_m

    while True:
        # h(v_curr, v_curr) = 0, so the query key needs no heuristic term.
        m = g[v_curr] if g[v_curr] < rhs[v_curr] else rhs[v_curr]
        key_curr = (m + k_m, m)
        top = queue.top_key()
        if not key_less(top, key_curr) and rhs[v_curr] == g[v_curr]:
            break
        if not queue:
            break
        v = queue.top()
        k_old = top
        k_new = calculate_key(state, v)
        if key_less(k_old, k_new):
            queue.update(v, k_new)
        elif g[v] > rhs[v]:
            # Overconsistent: commit and relax the neighbors.
            gv = rhs[v]
            g[v] = gv
            queue.remove(v)
            state.expansions += 1
            for s, eid in adj[v]:
                if s != dest:
                    cand = cost(eid) + gv
                    if cand < rhs[s]:
                        rhs[s] = cand
                update_vertex(state, s)
        else:
            # Underconsistent: retract and recompute affected lookaheads.
            g_old = g[v]
            g[v] = INF
            state.expansions += 1
            for s, eid in adj[v]:
                if rhs[s] == cost(eid) + g_old and s != dest:
                    best = INF
                    for w, eid2 in adj[s]:
                        cand = cost(eid2) + g[w]
                        if cand < best:
                            best = cand
                    rhs[s] = best
                update_vertex(state, s)
            update_vertex(state, v)


def extract_path(state: DStarState, view: PlanningCostView) -> Path:
    """Greedy descent from v_curr over g (see core.descend)."""
    v = state.v_curr
    dest = state.dest
    if state.rhs[v] == INF:
        raise NoPathError(f"no path from {v} to {dest}")
    walk = descend(state.inst.ugv_adj, state.g, view.cost, v, dest)
    if walk is None:
        raise NoPathError(f"no path from {v} to {dest}")
    vertices, edges = walk
    return Path(vertices, edges, view.path_cost(edges))


def replan(
    state: DStarState,
    view: PlanningCostView,
    v_curr: int,
    updates: list[CostUpdate],
) -> Path:
    """Apply cost updates, repair the search and return the current path.

    Advances the key offset by h(v_old, v_curr) so queue ordering stays
    valid as the query vertex moves between calls.
    """
    state.k_m += state.inst.heuristic(state.v_old, v_curr)
    state.v_old = v_curr
    state.v_curr = v_curr
    for up in updates:
        rhs_update(state, view, up)
    compute_shortest_path(state, view, v_curr)
    return extract_path(state, view)
