"""Incremental single-destination shortest paths (D* Lite with h = 0).

The search runs backwards from the destination and keeps two distance
estimates per vertex: g (the committed estimate) and rhs (a one-step
lookahead over the neighbors).  A vertex is locally consistent when the
two agree; exactly the inconsistent vertices sit in the priority queue,
keyed by min(g, rhs).  Without a goal-directed term h this is Ramalingam
and Reps' incremental shortest paths.  A repair drains the queue, leaving
g exact everywhere (the reverse tree the k-path layer spurs from), or
stops at the vehicle as D* Lite does, once g is exact as far as the
descent from it reads.  Every state starts as a copy of the instance's
prior distance field (one ``core.dijkstra`` per instance, kept by
``ProblemInstance.prior_distances``), which is the drained state for the
prior costs bit for bit.  So D* only ever repairs, and only through
``replan``: only the vertices whose distance changes are re-expanded.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .core import INF, NoPathError, Path, PlanningCostView, ProblemInstance, descend, lookahead


class AddressableHeap:
    """Min-queue over (key, vertex) with by-vertex addressing.

    A heapq list with lazy deletion: ``_live`` maps each queued vertex to
    the one heap entry that holds its live key, and
    ``compute_shortest_path`` drops any other entry when it reaches the
    top.  So the top is the minimum live (key, vertex), and ties resolve to
    the lowest vertex id.
    """

    __slots__ = ("_heap", "_live")

    def __init__(self):
        self._heap: list[tuple[float, int]] = []
        self._live: dict[int, tuple[float, int]] = {}

    def __contains__(self, v: int) -> bool:
        return v in self._live

    def insert(self, v: int, key: float) -> None:
        entry = self._live[v] = (key, v)
        heappush(self._heap, entry)

    # A live entry is the latest push, so an update is a push; perfbench's tracer patches it.
    update = insert

    def remove(self, v: int) -> None:
        del self._live[v]
        if not self._live:
            self._heap.clear()  # only dead entries are left


class DStarState:
    """Mutable search state: the g/rhs arrays and the queue."""

    def __init__(self, inst: ProblemInstance, g: list[float]):
        self.inst = inst
        self.g = g
        self.rhs = g.copy()
        self.queue = AddressableHeap()
        self.expansions = 0


def initialize(inst: ProblemInstance) -> DStarState:
    """The drained search state for the prior costs, with no queue: a copy
    of the prior distance field, each entry the minimum over the neighbours
    of edge cost + g as a drain leaves it."""
    return DStarState(inst, inst.prior_distances().tolist())


def update_vertex(state: DStarState, v: int) -> None:
    """Queue v under the key min(g, rhs) when inconsistent, else dequeue it."""
    g = state.g[v]
    r = state.rhs[v]
    if g != r:
        state.queue.insert(v, r if r < g else g)
    elif v in state.queue:
        state.queue.remove(v)


def rhs_update(state: DStarState, view: PlanningCostView, eid: int) -> None:
    """Repair both endpoints of a changed edge (the view already holds its
    new cost) by recomputing their lookaheads.

    D* Lite keeps every rhs equal to its lookahead, so this gives exactly
    what relaxing a decrease or re-deriving an increase would, for repeated
    edges and infinite costs too.
    """
    rec = state.inst.edges[eid]
    for v in (rec.u, rec.v):
        if v != state.inst.d:
            state.rhs[v] = lookahead(state.inst.adj, view.costs, state.g, v)
    update_vertex(state, rec.u)
    update_vertex(state, rec.v)


def compute_shortest_path(state: DStarState, view: PlanningCostView, stop: int | None = None) -> None:
    """Expand in key order until no vertex is inconsistent, or, given a
    ``stop`` vertex, while the top key is at most g(stop).  A drained g is
    its lookahead, the minimum over the neighbors of edge cost + g with
    these float sums: its distance bit for bit (INF when unreachable).  A
    key is never stale: ``update_vertex`` runs whenever a g or rhs changes,
    so the top entry's key is min(g, rhs) of its vertex.  The loop drops
    the queue's dead heap entries itself.

    A stopped repair leaves the rest queued for the next one.  Stop is then
    consistent (its key would be at least the top key), and a vertex with g
    below the top key is exact (Koenig and Likhachev 2002).  A queued vertex
    has g >= its key >= the top key > g(stop), so no descent step from a
    vertex on the path from stop can pick one or tie with it.
    """
    g = state.g
    rhs = state.rhs
    queue = state.queue
    heap, live = queue._heap, queue._live
    adj = state.inst.adj
    dest = state.inst.d
    cost = view.costs
    expansions = 0

    while live:
        top = heap[0]
        v = top[1]
        if live.get(v) is not top:
            heappop(heap)  # a dead entry
            continue
        if stop is not None and top[0] > g[stop]:
            break
        expansions += 1
        if g[v] > rhs[v]:
            # Overconsistent: commit and relax the neighbors.
            gv = g[v] = rhs[v]
            queue.remove(v)
            for s, eid in adj[v]:
                cand = cost[eid] + gv
                if cand < rhs[s] and s != dest:
                    rhs[s] = cand
                    update_vertex(state, s)
        else:
            # Underconsistent: retract and recompute the lookaheads it supported.
            g_old = g[v]
            g[v] = INF
            for s, eid in adj[v]:
                if rhs[s] == cost[eid] + g_old and s != dest:
                    r = lookahead(adj, cost, g, s)
                    if r != rhs[s]:
                        rhs[s] = r
                        update_vertex(state, s)
            update_vertex(state, v)
    state.expansions += expansions


def replan(
    state: DStarState, view: PlanningCostView, v_curr: int, changed: list[int], drain: bool = True
) -> Path:
    """Apply the cost changes of the edges in ``changed``, repair the search
    (up to v_curr unless ``drain``) and return the current path from v_curr,
    the greedy descent over g (see core.descend)."""
    for eid in changed:
        rhs_update(state, view, eid)
    compute_shortest_path(state, view, None if drain else v_curr)
    walk = descend(state.inst.adj, state.g, view.costs, v_curr, state.inst.d)
    if walk is None:
        raise NoPathError(f"no path from {v_curr} to {state.inst.d}")
    vertices, edges = walk
    return Path(vertices, edges, view.path_cost(edges))
