import math
import random

import pytest

from scoutplan import dstar
from scoutplan.core import (
    EdgeRecord,
    ProblemInstance,
    Realization,
    UniformCost,
)


def build_instance(coords, edge_specs, p=0, q=0, d=None, uav_speed=2.0, free_flight=False):
    """Compact instance builder for tests.

    edge_specs: (u, v, ugv_cost) for fixed edges, (u, v, (t_min, t_max))
    for impeded ones or (u, v, None) for aerial-only ones; aerial cost
    defaults to the straight-line time.
    """
    if d is None:
        d = len(coords) - 1
    edges = []
    for raw in edge_specs:
        u, v, cost = raw[:3]
        tau = raw[3] if len(raw) > 3 else max(math.dist(coords[u], coords[v]), 1e-6) / uav_speed
        if u > v:
            u, v = v, u
        eid = len(edges)
        if isinstance(cost, tuple):
            edges.append(EdgeRecord(eid, u, v, None, tau, UniformCost(*cost)))
        else:
            edges.append(EdgeRecord(eid, u, v, None if cost is None else float(cost), tau))
    return ProblemInstance(coords, edges, p=p, q=q, d=d, uav_speed=uav_speed, uav_free_flight=free_flight)


def edge_between(inst, a, b):
    """Id of the UGV edge joining a and b, looked up in the adjacency."""
    for w, eid in inst.adj[a]:
        rec = inst.edges[eid]
        if w == b and (rec.ugv_cost is not None or rec.impeded):
            return eid
    raise KeyError(f"no UGV edge between {a} and {b}")


def edge_walk(inst, vertices):
    """Edge ids along a vertex sequence, looked up by their endpoints."""
    return tuple(edge_between(inst, a, b) for a, b in zip(vertices, vertices[1:]))


def with_aerial_only_edges(inst, rng):
    """The instance plus 1-4 aerial-only edges between pairs it leaves unjoined."""
    joined = {(e.u, e.v) for e in inst.edges}
    n = inst.n_vertices
    free = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in joined]
    edges = list(inst.edges)
    for u, v in rng.sample(free, min(len(free), rng.randint(1, 4))):
        edges.append(EdgeRecord(len(edges), u, v, None, math.dist(inst.vertices[u], inst.vertices[v]) / inst.uav_speed + 0.1))
    return ProblemInstance(inst.vertices, edges, inst.p, inst.q, inst.d, inst.uav_speed, inst.uav_free_flight)


def line_instance(costs=(2.0, 3.0)):
    """Vertices on a line, consecutive fixed-cost edges."""
    n = len(costs) + 1
    coords = [(float(i), 0.0) for i in range(n)]
    specs = [(i, i + 1, max(c, 1.0)) for i, c in enumerate(costs)]
    return build_instance(coords, specs)


def random_connected_instance(rng, n_min=5, n_max=12, impeded_frac=0.3, free_flight=True):
    """Random geometric-ish connected instance with some impeded edges."""
    n = rng.randint(n_min, n_max)
    coords = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    pairs = set()
    for a, b in zip(order, order[1:]):
        pairs.add((min(a, b), max(a, b)))
    extra = rng.randint(n // 2, n + 3)
    for _ in range(extra):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    specs = []
    for u, v in sorted(pairs):
        base = math.dist(coords[u], coords[v]) + rng.uniform(0.1, 5.0)
        if rng.random() < impeded_frac:
            specs.append((u, v, (base, base + rng.uniform(0.5, 40.0))))
        else:
            specs.append((u, v, base))
    p = 0
    d = n - 1
    q = rng.randrange(n)
    return build_instance(coords, specs, p=p, q=q, d=d, free_flight=free_flight)


def drained_state(inst, view):
    """The drained D* state for a view's costs, with no expansions counted:
    the prior state, repaired at every edge whose view cost differs from its
    prior cost."""
    state = dstar.initialize(inst)
    for eid, (cost, prior) in enumerate(zip(view.costs, inst.prior_costs)):
        if cost != prior:
            dstar.rhs_update(state, view, eid)
    dstar.compute_shortest_path(state, view)
    state.expansions = 0
    return state


def realize_all(inst, rng):
    from scoutplan.core import sample_realization

    return sample_realization(inst, rng)


@pytest.fixture
def rng():
    return random.Random(12345)
