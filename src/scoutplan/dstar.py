"""Incremental single-destination shortest paths (D* Lite).

The search runs backwards from the destination and keeps two distance
estimates per vertex: g (the committed estimate) and rhs (a one-step
lookahead over the neighbors).  A vertex is locally consistent when the
two agree; exactly the inconsistent vertices sit in the priority queue.
After edge costs change, only the affected region is re-expanded.
"""

from __future__ import annotations

import heapq

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


class AddressableHeap:
    """Min-queue over (k1, k2, vertex) with by-vertex addressing.

    A heapq list with lazy deletion: ``_live`` maps each queued vertex to
    the one heap entry that holds its live key, and any other entry is
    dropped when it reaches the top.  So the top is the minimum live
    (k1, k2, vertex), and ties resolve to the lowest vertex id.
    """

    __slots__ = ("_heap", "_live")

    def __init__(self):
        self._heap: list[tuple[float, float, int]] = []
        self._live: dict[int, tuple[float, float, int]] = {}

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, v: int) -> bool:
        return v in self._live

    def _live_top(self) -> tuple[float, float, int] | None:
        heap = self._heap
        live = self._live
        while heap:
            entry = heap[0]
            if live.get(entry[2]) is entry:
                return entry
            heapq.heappop(heap)
        return None

    def top(self) -> int:
        return self._live_top()[2]

    def top_key(self) -> Key:
        entry = self._live_top()
        return INF_KEY if entry is None else entry[:2]

    def insert(self, v: int, key: Key) -> None:
        entry = self._live[v] = (key[0], key[1], v)
        heapq.heappush(self._heap, entry)

    # A vertex's live entry is its latest push, so an update is a push.
    update = insert

    def remove(self, v: int) -> None:
        del self._live[v]


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
        return all((v in self.queue) == (self.g[v] != self.rhs[v]) for v in range(len(self.g)))


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


def lookahead(state: DStarState, cost: list[float], v: int) -> float:
    """rhs by definition: the minimum over v's neighbors w of the edge cost
    (``cost`` is indexed by edge id) plus g(w)."""
    g = state.g
    best = INF
    for w, eid in state.inst.ugv_adj[v]:
        cand = cost[eid] + g[w]
        if cand < best:
            best = cand
    return best


def rhs_update(state: DStarState, view: PlanningCostView, eid: int) -> None:
    """Repair both endpoints of a changed edge (the view already holds its
    new cost) by recomputing their lookaheads.

    D* Lite keeps every rhs equal to its lookahead, so this gives exactly
    what relaxing a decrease or re-deriving an increase would, for repeated
    edges and infinite costs too.
    """
    rec = state.inst.edges[eid]
    for v in (rec.u, rec.v):
        if v != state.dest:
            state.rhs[v] = lookahead(state, view.costs, v)
    update_vertex(state, rec.u)
    update_vertex(state, rec.v)


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
    cost = view.costs
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
                    cand = cost[eid] + gv
                    if cand < rhs[s]:
                        rhs[s] = cand
                update_vertex(state, s)
        else:
            # Underconsistent: retract and recompute affected lookaheads.
            g_old = g[v]
            g[v] = INF
            state.expansions += 1
            for s, eid in adj[v]:
                if rhs[s] == cost[eid] + g_old and s != dest:
                    rhs[s] = lookahead(state, cost, s)
                update_vertex(state, s)
            update_vertex(state, v)


def extract_path(state: DStarState, view: PlanningCostView) -> Path:
    """Greedy descent from v_curr over g (see core.descend)."""
    v = state.v_curr
    dest = state.dest
    if state.rhs[v] == INF:
        raise NoPathError(f"no path from {v} to {dest}")
    walk = descend(state.inst.ugv_adj, state.g, view.costs, v, dest)
    if walk is None:
        raise NoPathError(f"no path from {v} to {dest}")
    vertices, edges = walk
    return Path(vertices, edges, view.path_cost(edges))


def replan(
    state: DStarState,
    view: PlanningCostView,
    v_curr: int,
    changed: list[int],
) -> Path:
    """Apply the cost changes of the edges in ``changed``, repair the search
    and return the current path.

    Advances the key offset by h(v_old, v_curr) so queue ordering stays
    valid as the query vertex moves between calls.
    """
    state.k_m += state.inst.heuristic(state.v_old, v_curr)
    state.v_old = v_curr
    state.v_curr = v_curr
    for eid in changed:
        rhs_update(state, view, eid)
    compute_shortest_path(state, view, v_curr)
    return extract_path(state, view)
