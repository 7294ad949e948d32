"""Independent reference implementations used only to check the library.

Everything here is deliberately written the slow, obvious way: plain
Dijkstra, textbook Yen on graph copies, exhaustive path enumeration,
factorial tour enumeration, and a straight-line transcription of the
priority formulas.
"""

from __future__ import annotations

import heapq

from conftest import edge_between

INF = float("inf")


def ugv_edges(inst):
    """Ids of the edges the ground vehicle may drive, read off the edge
    records: those with a fixed ground cost or a cost window."""
    return frozenset(rec.id for rec in inst.edges if rec.ugv_cost is not None or rec.impeded)


def prior_costs(inst):
    """Edge-id -> cost for the UGV edges before any reveal, read off the edge
    records: the fixed cost, or the window's midpoint for an impeded edge."""
    costs = {}
    for eid in ugv_edges(inst):
        rec = inst.edges[eid]
        costs[eid] = (rec.distribution.t_min + rec.distribution.t_max) / 2.0 if rec.impeded else rec.ugv_cost
    return costs


def view_costs(inst, view):
    """Edge-id -> cost mapping for the UGV edges under a view."""
    return {eid: view.costs[eid] for eid in ugv_edges(inst)}


def dijkstra_to_dest(inst, costs, dest, blocked_vertices=frozenset()):
    """Distance of every vertex to dest, ignoring blocked vertices."""
    n = inst.n_vertices
    dist = [INF] * n
    if dest in blocked_vertices:
        return dist
    dist[dest] = 0.0
    pq = [(0.0, dest)]
    while pq:
        dv, v = heapq.heappop(pq)
        if dv > dist[v]:
            continue
        for w, eid in inst.adj[v]:
            if w in blocked_vertices:
                continue
            c = costs.get(eid, INF)
            if c == INF:
                continue
            alt = dv + c
            if alt < dist[w]:
                dist[w] = alt
                heapq.heappush(pq, (alt, w))
    return dist


def tree_parents(inst, costs, dist):
    """Each vertex's parent edge in the shortest-path tree towards inst.d
    given by ``dist``: its first edge in ``adj`` order whose cost plus
    the far end's distance equals its own, -1 at inst.d and unreachable
    vertices."""
    parent = [-1] * inst.n_vertices
    for v in range(inst.n_vertices):
        if v == inst.d or dist[v] == INF:
            continue
        for w, eid in inst.adj[v]:
            if costs.get(eid, INF) + dist[w] == dist[v]:
                parent[v] = eid
                break
    return parent


def queue_consistent(state):
    """A D* state's queue invariant: a vertex is queued iff g != rhs, and
    then under the live key min(g, rhs), read off the heap's ``_live`` map."""
    live = state.queue._live
    return all(live.get(v) == ((min(g, r), v) if g != r else None)
               for v, (g, r) in enumerate(zip(state.g, state.rhs)))


def queue_top(queue):
    """The vertex of a D* queue's minimum live (key, vertex) entry, the one
    a repair expands next: the heap list must keep the heap property and
    hold every entry of ``_live``, the rest being dead."""
    heap, live = queue._heap, queue._live
    assert all(heap[(i - 1) // 2] <= heap[i] for i in range(1, len(heap)))
    entries = [e for e in heap if live.get(e[1]) is e]
    assert len(entries) == len(live)
    return min(entries)[1]


def greedy_path(inst, costs, dist, source, dest, blocked_vertices=frozenset()):
    """Follow cost + dist greedily to dest, lowest vertex id on ties."""
    if dist[source] == INF:
        return None
    path = [source]
    v = source
    while v != dest:
        best = INF
        nxt = -1
        for w, eid in inst.adj[v]:
            if w in blocked_vertices:
                continue
            c = costs.get(eid, INF)
            cand = c + dist[w]
            if cand < best or (cand == best and w < nxt):
                best = cand
                nxt = w
        if nxt < 0 or best == INF:
            return None
        v = nxt
        path.append(v)
        if len(path) > inst.n_vertices:
            return None
    return tuple(path)


def path_cost(inst, costs, vertices):
    total = 0.0
    for a, b in zip(vertices, vertices[1:]):
        total += costs[edge_between(inst, a, b)]
    return total


def shortest_path(inst, costs, source, dest, blocked_edges=frozenset(), blocked_vertices=frozenset()):
    eff = dict(costs)
    for eid in blocked_edges:
        eff[eid] = INF
    dist = dijkstra_to_dest(inst, eff, dest, blocked_vertices)
    return greedy_path(inst, eff, dist, source, dest, blocked_vertices)


def yen_k_paths(inst, costs, source, dest, k):
    """Textbook loopless k shortest paths; ties by (cost, sequence)."""
    first = shortest_path(inst, costs, source, dest)
    if first is None:
        return []
    a_list = [first]
    pool: list[tuple[float, tuple[int, ...]]] = []
    pool_seqs: set[tuple[int, ...]] = set()
    for _ in range(2, k + 1):
        prev = a_list[-1]
        for i in range(1, len(prev)):
            root = prev[:i]
            spur = root[-1]
            blocked_edges = set()
            for p in a_list:
                if len(p) > i and p[:i] == root:
                    blocked_edges.add(edge_between(inst, p[i - 1], p[i]))
            blocked_vertices = frozenset(root[:-1])
            sp = shortest_path(inst, costs, spur, dest, blocked_edges, blocked_vertices)
            if sp is None:
                continue
            cand = root[:-1] + sp
            if cand in pool_seqs or cand in a_list:
                continue
            pool_seqs.add(cand)
            pool.append((path_cost(inst, costs, cand), cand))
        if not pool:
            break
        pool.sort()
        cost, seq = pool.pop(0)
        pool_seqs.discard(seq)
        a_list.append(seq)
    return a_list


def yen_hidden_edges(inst, accepted, root):
    """Edge ids a textbook Yen spur from the end of ``root`` hides, given the
    accepted vertex sequences: the continuation edge of every one that
    shares the root, and every edge at an interior root vertex (all of the
    root but the spur)."""
    i = len(root)
    hidden = {edge_between(inst, p[i - 1], p[i]) for p in accepted if len(p) > i and p[:i] == root}
    for w in root[:-1]:
        hidden.update(eid for _, eid in inst.adj[w])
    return hidden


def all_simple_paths(inst, costs, source, dest):
    """Every loopless source->dest path with its cost, sorted by (cost, seq)."""
    out = []
    seen = [False] * inst.n_vertices

    def dfs(v, acc):
        if v == dest:
            out.append((path_cost(inst, costs, tuple(acc)), tuple(acc)))
            return
        for w, eid in inst.adj[v]:
            if seen[w] or costs.get(eid, INF) == INF:
                continue
            seen[w] = True
            acc.append(w)
            dfs(w, acc)
            acc.pop()
            seen[w] = False

    seen[source] = True
    dfs(source, [source])
    out.sort()
    return out


def rpp_brute_force(graph):
    """Best (inspections, cost) over all orders and directions, by
    exhaustive enumeration with window checks."""
    n = graph.size
    arc = graph.arc
    deadlines = [0.0] + [graph.nodes[j].deadline for j in range(1, n)]
    best = (0, 0.0)

    def better(a, b):
        return a[0] > b[0] or (a[0] == b[0] and a[1] < b[1])

    def extend(v, cost, used, count):
        nonlocal best
        if better((count, cost), best):
            best = (count, cost)
        for j in range(1, n):
            edge = graph.nodes[j].edge
            if edge in used:
                continue
            a = arc[v][j]
            if a == INF:
                continue
            t = cost + a
            if t > deadlines[j]:
                continue
            used.add(edge)
            extend(j, t, used, count + 1)
            used.discard(edge)

    extend(0, 0.0, set(), 0)
    return best


def rpp_first_optimum(graph):
    """The first optimal tour in (arc, index) pre-order, as (visited, cost),
    by full enumeration with no memo and no bound: children go in (arc,
    index) order, and a tour replaces the best only on strictly more
    inspections, or on as many at lower cost."""
    n, arc = graph.size, graph.arc
    deadline = [0.0] + [graph.nodes[j].deadline for j in range(1, n)]
    edge = [None] + [graph.nodes[j].edge for j in range(1, n)]
    best = ([0], 0.0)

    def extend(v, cost, tour):
        nonlocal best
        if len(tour) > len(best[0]) or (len(tour) == len(best[0]) and cost < best[1]):
            best = (list(tour), cost)
        for j in sorted(range(1, n), key=lambda j: arc[v][j]):
            c = cost + arc[v][j]
            if arc[v][j] == INF or edge[j] in {edge[i] for i in tour} or c > deadline[j]:
                continue
            extend(j, c, tour + [j])

    extend(0, 0.0, [0])
    return best


def rpp_dfs_nodes(graph):
    """Nodes ``rpp.rpp_dfs`` enters, by its rules spelled out without its
    shortcuts: children in (arc, index) order, a child entered when it meets
    its deadline, its (node, edge set) state was not reached at no greater
    cost, and a scan of the edges left finds enough of them reachable (a
    direct arc, or the cheapest way out of the child then the cheapest way
    in) to beat the incumbent's (count, cost).  A tour that ties the
    incumbent's count beats it only when its least cost (the child's cost,
    the cheapest way out of the child, then the cheapest way into any
    direction node for each further arc) is below the incumbent's."""
    n, arc = graph.size, graph.arc
    deadline = [0.0] + [graph.nodes[j].deadline for j in range(1, n)]
    edge = [None] + [graph.nodes[j].edge for j in range(1, n)]
    min_out = [min(row[1:], default=INF) for row in arc]
    min_in = [min((arc[i][j] for i in range(1, n)), default=INF) for j in range(n)]
    least = min(min_in[1:], default=INF)
    memo = {}
    best = (0, 0.0)
    nodes = 0

    def dfs(v, cost, used):
        nonlocal best, nodes
        nodes += 1
        if len(used) > best[0] or (len(used) == best[0] and cost < best[1]):
            best = (len(used), cost)
        for j in sorted(range(1, n), key=lambda j: arc[v][j]):
            c = cost + arc[v][j]
            if arc[v][j] == INF or edge[j] in used or c > deadline[j]:
                continue
            state = (j, used | {edge[j]})
            if memo.get(state, INF) <= c:
                continue
            tie = best[0] - len(used) - 1  # arcs past the child to tie the count
            low = c
            if tie > 0:
                low += min_out[j]
                for _ in range(tie - 1):
                    low += least
            need = best[0] - len(used) - (low < best[1])
            reach = set(state[1])
            for i in range(1, n):
                if deadline[i] == INF and edge[i] not in reach:
                    reach.add(edge[i])
                    need -= 1
            for i in range(1, n):
                if need > 0 and edge[i] not in reach and (
                        c + arc[j][i] <= deadline[i] or c + min_out[j] + min_in[i] <= deadline[i]):
                    reach.add(edge[i])
                    need -= 1
            if need > 0:
                continue
            memo[state] = c
            dfs(j, c, state[1])

    dfs(0, 0.0, frozenset())
    return nodes


def replay_tour_times(graph, visited, uav_time_offset=0.0):
    """Completion time of each inspection along a tour, in absolute time."""
    t = uav_time_offset
    out = []
    prev = 0
    for idx in visited[1:]:
        t += graph.arc[prev][idx]  # arrive ready to start this edge
        out.append((graph.nodes[idx].edge, t + graph.nodes[idx].tau))
        prev = idx
    return out


def replay_ugv_arrivals(inst, realization, events):
    """Re-derive the ground vehicle's timeline from its arrival events.

    Checks continuity (consecutive vertices share a UGV edge), the
    no-waiting rule (each arrival time is exactly the previous one plus the
    edge's true traversal cost) and returns the final arrival time.
    """
    arrivals = [(e.time, e.data[0]) for e in events if e.kind == "ugv_arrives"]
    pos = inst.p
    t = 0.0
    for when, v in arrivals:
        if v == pos:  # start == destination edge case
            assert when == 0.0
            continue
        eid = edge_between(inst, pos, v)
        rec = inst.edges[eid]
        t += realization.true_cost[eid] if rec.impeded else rec.ugv_cost
        assert when == t, (when, t)
        pos = v
    assert pos == inst.d
    return t


def paa_scores(inst, view, metric, path_set, critical, uav_pos, k, weights):
    """Straight-line re-derivation of the four priority signals; ``weights``
    is the tuple (w1, w2, w3, w4)."""
    w1, w2, w3, w4 = weights
    paths = [p.vertices for p in path_set.paths]
    edge_of = {}
    for eid in critical:
        rec = inst.edges[eid]
        edge_of[eid] = (rec.u, rec.v)

    def on_path(eid, vs):
        u, v = edge_of[eid]
        return any((a, b) in ((u, v), (v, u)) for a, b in zip(vs, vs[1:]))

    def prefix_cost(vs, upto):
        total = 0.0
        for a, b in zip(vs[:upto], vs[1 : upto + 1]):
            total += view.costs[edge_between(inst, a, b)]
        return total

    lam = {}
    for eid in critical:
        vals = []
        for rank, vs in enumerate(paths):
            if not on_path(eid, vs):
                continue
            if rank == 0:
                u, v = edge_of[eid]
                for i, (a, b) in enumerate(zip(vs, vs[1:])):
                    if (a, b) in ((u, v), (v, u)):
                        vals.append(prefix_cost(vs, i))
                        break
            else:
                shared = 0
                best = paths[0]
                while (
                    shared + 1 < len(vs)
                    and shared + 1 < len(best)
                    and vs[shared + 1] == best[shared + 1]
                ):
                    shared += 1
                vals.append(prefix_cost(vs, shared))
        lam[eid] = min(vals)
    lam_lo, lam_hi = min(lam.values()), max(lam.values())

    var = {eid: inst.edges[eid].distribution.variance() for eid in critical}
    var_hi = max(var.values())
    dist = {
        eid: min(metric.cost(uav_pos, edge_of[eid][0]), metric.cost(uav_pos, edge_of[eid][1]))
        for eid in critical
    }
    d_hi = max(dist.values())

    scores = {}
    for eid in critical:
        p1 = sum(1 for vs in paths if on_path(eid, vs)) / k
        p2 = 1.0 if lam_lo == lam_hi else (lam_hi - lam[eid]) / (lam_hi - lam_lo)
        p3 = 1.0 if var_hi == 0 else var[eid] / var_hi
        p4 = 1.0 if d_hi == 0 else 1.0 - dist[eid] / d_hi
        scores[eid] = (
            w1 * p1 + w2 * p2 + w3 * p3 + w4 * p4,
            (p1, p2, p3, p4),
        )
    return scores
