import random
from typing import NamedTuple

import pytest

import oracles
from conftest import build_instance, edge_between, random_connected_instance
from scoutplan import dstar, kspp, paa, rpp
from scoutplan.core import PlanningCostView, UavMetric


class Context(NamedTuple):
    """The scorer's arguments after the critical edges, in order."""

    view: PlanningCostView
    path_set: kspp.PathSet
    uav_pos: int
    k: int
    metric: UavMetric


def make_context(inst, view, k, uav_pos=None):
    state = dstar.initialize(inst)
    pset = kspp.update_k_paths(inst, view, state, inst.p, [], k)
    crit = rpp.extract_critical_edges(pset, view, inst)
    ctx = Context(view, pset, inst.q if uav_pos is None else uav_pos, k, UavMetric(inst))
    return pset, crit, ctx


def priorities(crit, ctx):
    return {ep.edge: ep for ep in paa.score_edges(crit, *ctx)}


class TestParameters:
    def three_path_instance(self):
        # Three parallel two-hop routes with impeded middle edges.
        coords = [
            (0.0, 0.0),
            (4.0, 2.0), (8.0, 2.0),
            (4.0, 0.0), (8.0, 0.0),
            (4.0, -2.0), (8.0, -2.0),
            (12.0, 0.0),
        ]
        specs = [
            (0, 1, 5.0), (1, 2, (4.0, 8.0)), (2, 7, 5.0),
            (0, 3, 5.0), (3, 4, (4.0, 12.0)), (4, 7, 5.0),
            (0, 5, 5.0), (5, 6, (4.0, 24.0)), (6, 7, 5.0),
        ]
        return build_instance(coords, specs, p=0, q=0, d=7)

    def test_p1_counts_paths(self):
        inst = self.three_path_instance()
        view = PlanningCostView(inst)
        pset, crit, ctx = make_context(inst, view, 3)
        e = min(crit)
        # Same three paths, but five requested: the share is over k.
        ctx5 = ctx._replace(k=5)
        assert priorities(crit, ctx5)[e].p1 == pytest.approx(1 / 5)
        assert priorities(crit, ctx)[e].p1 == pytest.approx(1 / 3)

    def test_p2_single_edge_degenerate(self):
        coords = [(0.0, 0.0), (4.0, 0.0), (6.0, 0.0)]
        inst = build_instance(coords, [(0, 1, 4.0), (1, 2, (2.0, 6.0))], p=0, d=2)
        view = PlanningCostView(inst)
        pset, crit, ctx = make_context(inst, view, 1)
        assert priorities(crit, ctx)[min(crit)].p2 == 1.0

    def test_p2_linear_interpolation(self):
        inst = self.three_path_instance()
        view = PlanningCostView(inst)
        pset, crit, ctx = make_context(inst, view, 3)
        oracle = oracles.paa_scores(inst, view, ctx.metric, pset, crit, ctx.uav_pos, 3, paa.WEIGHTS)
        p2 = {e: ep.p2 for e, ep in priorities(crit, ctx).items()}
        for eid, (_, params) in oracle.items():
            assert p2[eid] == pytest.approx(params[1])
        assert max(p2.values()) == 1.0
        assert min(p2.values()) == 0.0

    def test_p3_is_variance_ratio(self):
        coords = [(0.0, 0.0), (4.0, 1.0), (4.0, -1.0), (8.0, 0.0)]
        inst = build_instance(
            coords,
            [(0, 1, 5.0), (1, 3, (5.0, 17.0)), (0, 2, 5.0), (2, 3, (5.0, 29.0))],
            p=0, d=3,
        )
        view = PlanningCostView(inst)
        pset, crit, ctx = make_context(inst, view, 2)
        scored = priorities(crit, ctx)
        assert scored[edge_between(inst, 1, 3)].p3 == pytest.approx(144.0 / 576.0)
        assert scored[edge_between(inst, 2, 3)].p3 == 1.0

    def test_p3_all_equal_distributions(self):
        # Same-width windows mean identical variance: every p3 is 1.
        same = build_instance(
            [(0.0, 0.0), (4.0, 1.0), (4.0, -1.0), (8.0, 0.0)],
            [(0, 1, 5.0), (1, 3, (5.0, 17.0)), (0, 2, 5.0), (2, 3, (6.0, 18.0))],
            p=0, d=3,
        )
        view = PlanningCostView(same)
        pset, crit, ctx = make_context(same, view, 2)
        assert len(crit) == 2
        for ep in priorities(crit, ctx).values():
            assert ep.p3 == 1.0

    def test_p4_endpoint_and_degenerate(self):
        coords = [(0.0, 0.0), (4.0, 0.0), (6.0, 0.0)]
        inst = build_instance(coords, [(0, 1, 4.0), (1, 2, (2.0, 6.0))], p=0, q=1, d=2)
        view = PlanningCostView(inst)
        pset, crit, ctx = make_context(inst, view, 1, uav_pos=1)
        # Scout is at an endpoint of the only critical edge: d = d_max = 0.
        assert priorities(crit, ctx)[min(crit)].p4 == 1.0

    def test_p4_endpoints_of_range(self):
        inst = self.three_path_instance()
        view = PlanningCostView(inst)
        pset, crit, ctx = make_context(inst, view, 3, uav_pos=1)
        metric = UavMetric(inst)
        vals = {}
        for e in crit:
            rec = inst.edges[e]
            vals[e] = min(metric.cost(1, rec.u), metric.cost(1, rec.v))
        far = max(vals, key=vals.get)
        near = min(vals, key=vals.get)
        scored = priorities(crit, ctx)
        assert scored[far].p4 == 0.0
        assert scored[near].p4 == pytest.approx(1.0 - vals[near] / vals[far])


class TestSelection:
    def test_empty_critical_list(self):
        from scoutplan import bench

        inst, _ = bench.demo_instance()
        view = PlanningCostView(inst)
        pset, crit, ctx = make_context(inst, view, 1)
        assert paa.select_edge({}, *ctx) == []

    def test_single_edge_selected_regardless_of_weights(self, monkeypatch):
        coords = [(0.0, 0.0), (4.0, 0.0), (6.0, 0.0)]
        inst = build_instance(coords, [(0, 1, 4.0), (1, 2, (2.0, 6.0))], p=0, d=2)
        view = PlanningCostView(inst)
        for w in (paa.WEIGHTS, (1, 0, 0, 0), (0, 0, 0, 9)):
            monkeypatch.setattr(paa, "WEIGHTS", w)
            pset, crit, ctx = make_context(inst, view, 1)
            assert paa.select_edge(crit, *ctx) == [(min(crit), 1)]

    def test_matches_independent_recomputation(self, rng):
        checked = 0
        while checked < 40:
            inst = random_connected_instance(rng, n_min=8, n_max=14, impeded_frac=0.5)
            view = PlanningCostView(inst)
            pset, crit, ctx = make_context(inst, view, 3, uav_pos=inst.q)
            if len(crit) < 2:
                continue
            checked += 1
            scored = paa.score_edges(crit, *ctx)
            oracle = oracles.paa_scores(
                inst, view, ctx.metric, pset, crit, inst.q, 3, paa.WEIGHTS
            )
            for ep in scored:
                o_score, o_params = oracle[ep.edge]
                assert (ep.p1, ep.p2, ep.p3, ep.p4) == pytest.approx(o_params)
                assert ep.score == pytest.approx(o_score)
                for val in (ep.p1, ep.p2, ep.p3, ep.p4):
                    assert 0.0 <= val <= 1.0
            want = max(oracle.items(), key=lambda kv: (kv[1][0], -kv[0]))[0]
            rec = inst.edges[want]
            nearer_v = ctx.metric.cost(inst.q, rec.v) < ctx.metric.cost(inst.q, rec.u)
            assert paa.select_edge(crit, *ctx) == [(want, rec.v if nearer_v else rec.u)]

    def test_argmax_invariant_under_weight_scaling(self, rng, monkeypatch):
        weights = paa.WEIGHTS
        checked = 0
        while checked < 10:
            inst = random_connected_instance(rng, n_min=8, n_max=12, impeded_frac=0.5)
            view = PlanningCostView(inst)
            pset, crit, ctx = make_context(inst, view, 3)
            if len(crit) < 2:
                continue
            checked += 1
            monkeypatch.setattr(paa, "WEIGHTS", weights)
            base = paa.select_edge(crit, *ctx)
            monkeypatch.setattr(paa, "WEIGHTS", tuple(7.5 * w for w in weights))
            assert paa.select_edge(crit, *ctx) == base

    def test_deterministic_tie_break_lowest_edge(self):
        # Both impeded edges leave the start vertex, so every signal ties:
        # the divergence point is the start for both, distances match, and
        # the distributions are identical.  Lowest edge id must win.
        coords = [(0.0, 0.0), (4.0, 1.0), (4.0, -1.0), (8.0, 0.0)]
        inst = build_instance(
            coords,
            [(0, 1, (5.0, 17.0)), (1, 3, 5.0), (0, 2, (5.0, 17.0)), (2, 3, 5.0)],
            p=0, q=0, d=3,
        )
        view = PlanningCostView(inst)
        pset, crit, ctx = make_context(inst, view, 2)
        scored = paa.score_edges(crit, *ctx)
        assert scored[0].score == pytest.approx(scored[1].score)
        assert paa.select_edge(crit, *ctx) == [(min(crit), 0)]

    @pytest.mark.parametrize("q,start", [(2, 2), (3, 1)])
    def test_inspection_starts_at_nearer_endpoint_u_on_ties(self, q, start):
        # Edge 1 joins u=1 and v=2.  From vertex 2 the scout is nearer v;
        # vertex 3 is 5.0 from both ends, so the tie goes to u.
        coords = [(0.0, 0.0), (4.0, 0.0), (10.0, 0.0), (7.0, 4.0)]
        inst = build_instance(
            coords, [(0, 1, 4.0), (1, 2, (6.0, 12.0)), (2, 3, 5.0)],
            p=0, q=q, d=2, free_flight=True,
        )
        pset, crit, ctx = make_context(inst, PlanningCostView(inst), 1)
        assert crit.keys() == {1}
        assert paa.select_edge(crit, *ctx) == [(1, start)]
        assert paa.score_edges(crit, *ctx)[0].start == start
