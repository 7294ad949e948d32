import random

import pytest

import oracles
from conftest import build_instance, fresh_view, random_connected_instance
from scoutplan import bench, dstar, kspp, rpp
from scoutplan.core import INF, UavMetric
from scoutplan.rpp import CriticalEdge


def plan_paths(inst, view, k):
    state = dstar.initialize(inst, inst.p, inst.d)
    return kspp.update_k_paths(inst, view, state, inst.p, [], k)


class TestExtractCriticalEdges:
    def test_no_impeded_edges_gives_empty_list(self):
        coords = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        inst = build_instance(coords, [(0, 1, 1.0), (1, 2, 1.0)])
        view = fresh_view(inst)
        pset = plan_paths(inst, view, 2)
        assert rpp.extract_critical_edges(pset, view.knowledge, inst, view) == []

    def test_window_is_prefix_sum(self):
        # p -a- b -d with the impeded edge in the middle; prefix cost 7.
        coords = [(0.0, 0.0), (7.0, 0.0), (9.0, 0.0), (12.0, 0.0)]
        inst = build_instance(coords, [(0, 1, 7.0), (1, 2, (2.0, 10.0)), (2, 3, 3.0)])
        view = fresh_view(inst)
        pset = plan_paths(inst, view, 1)
        crit = rpp.extract_critical_edges(pset, view.knowledge, inst, view)
        assert len(crit) == 1
        assert crit[0].edge == inst.ugv_edge_between(1, 2)
        assert crit[0].t_max == 7.0

    def test_start_time_shifts_windows(self):
        coords = [(0.0, 0.0), (7.0, 0.0), (9.0, 0.0), (12.0, 0.0)]
        inst = build_instance(coords, [(0, 1, 7.0), (1, 2, (2.0, 10.0)), (2, 3, 3.0)])
        view = fresh_view(inst)
        pset = plan_paths(inst, view, 1)
        crit = rpp.extract_critical_edges(pset, view.knowledge, inst, view, start_time=5.0)
        assert crit[0].t_max == 12.0

    def test_prefix_uses_minimum_cost_for_unrealized(self):
        coords = [(0.0, 0.0), (4.0, 0.0), (6.0, 0.0), (8.0, 0.0)]
        inst = build_instance(
            coords, [(0, 1, (4.0, 10.0)), (1, 2, (2.0, 8.0)), (2, 3, 2.0)]
        )
        view = fresh_view(inst)
        pset = plan_paths(inst, view, 1)
        crit = {c.edge: c for c in rpp.extract_critical_edges(pset, view.knowledge, inst, view)}
        assert crit[inst.ugv_edge_between(1, 2)].t_max == 4.0  # first edge at minimum

    def test_best_path_edges_finite_others_infinite(self):
        inst, _ = bench.demo_instance()
        view = fresh_view(inst)
        pset = plan_paths(inst, view, 3)
        crit = {c.edge: c for c in rpp.extract_critical_edges(pset, view.knowledge, inst, view)}
        assert crit[1].t_max == 4.0  # on the best path, behind the 4-cost edge
        assert crit[4].t_max == INF  # alternative-route edge

    def test_realized_and_excluded_edges_skipped(self):
        inst, _ = bench.demo_instance()
        view = fresh_view(inst)
        pset = plan_paths(inst, view, 3)
        view.knowledge.reveal(1, 18.0)
        crit = rpp.extract_critical_edges(pset, view.knowledge, inst, view)
        assert [c.edge for c in crit] == [4]
        crit = rpp.extract_critical_edges(pset, view.knowledge, inst, view, exclude=(4,))
        assert crit == []


class TestTransformedGraph:
    def one_edge_instance(self):
        # Single impeded edge (a=0, b=1), plus a safe parallel detour.
        coords = [(0.0, 0.0), (8.0, 0.0), (4.0, 3.0)]
        return build_instance(
            coords, [(0, 1, (10.0, 14.0), 5.0), (0, 2, 5.0, 2.5), (1, 2, 5.0, 2.5)], p=0, d=1
        )

    def test_single_edge_arcs(self):
        inst = self.one_edge_instance()
        crit = [CriticalEdge(0, 30.0)]
        g = rpp.build_transformed_graph(inst, crit, uav_pos=0)
        assert g.size == 3
        assert g.arc[0][1] == 0.0  # already at the forward start
        assert g.arc[1][0] == 5.0  # finishing the edge costs tau
        metric = UavMetric(inst)
        assert g.arc[0][2] == metric.cost(0, 1)  # flight to the reverse start
        assert g.twin[1] == 2 and g.twin[2] == 1
        assert g.arc[1][2] == INF and g.arc[2][1] == INF

    def test_two_edges_node_count_and_twin_arcs(self, rng):
        inst = random_connected_instance(rng, n_min=6, n_max=8)
        impeded = sorted(inst.impeded_ids)[:2]
        if len(impeded) < 2:
            return
        crit = [CriticalEdge(e, INF) for e in impeded]
        g = rpp.build_transformed_graph(inst, crit, uav_pos=inst.q)
        assert g.size == 5
        for i in (1, 2):
            for j in (1, 2):
                assert g.arc[i][j] == INF
        for i in (3, 4):
            for j in (3, 4):
                assert g.arc[i][j] == INF
        assert g.arc[1][3] < INF

    def test_line_graph_arc_costs_by_hand(self):
        # Four vertices on a line; two impeded edges at the ends.
        coords = [(0.0, 0.0), (2.0, 0.0), (4.0, 0.0), (6.0, 0.0)]
        inst = build_instance(
            coords,
            [(0, 1, (2.0, 6.0), 1.0), (1, 2, 2.0, 1.0), (2, 3, (2.0, 6.0), 1.0)],
            p=0, q=1, d=3,
        )
        crit = [CriticalEdge(0, 20.0), CriticalEdge(2, 25.0)]
        g = rpp.build_transformed_graph(inst, crit, uav_pos=1, uav_time_offset=2.0)
        # Nodes: 1 = 0->1, 2 = 1->0, 3 = 2->3, 4 = 3->2 (vertex ids via edges).
        assert g.arc[0][1] == 1.0  # fly 1 -> 0
        assert g.arc[0][2] == 0.0
        assert g.arc[0][3] == 1.0
        assert g.arc[0][4] == 2.0
        # tau(first edge) + shortest path from its end to the other start.
        assert g.arc[1][3] == 1.0 + 1.0
        assert g.arc[2][3] == 1.0 + 2.0
        assert g.arc[1][4] == 1.0 + 2.0
        # Deadlines shifted by tau and the scout's clock.
        assert g.nodes[1].deadline == 20.0 - 1.0 - 2.0
        assert g.nodes[3].deadline == 25.0 - 1.0 - 2.0


class TestDfs:
    def test_single_feasible_edge(self):
        coords = [(0.0, 0.0), (8.0, 0.0), (4.0, 3.0)]
        inst = build_instance(
            coords, [(0, 1, (10.0, 14.0), 5.0), (0, 2, 5.0, 2.5), (1, 2, 5.0, 2.5)], p=0, d=1
        )
        g = rpp.build_transformed_graph(inst, [CriticalEdge(0, 30.0)], uav_pos=0)
        sol = rpp.rpp_dfs(g)
        assert sol.best_visited == [0, 1]  # start at the near end
        assert sol.best_cost == 0.0

    def test_infeasible_window_returns_depot_only(self):
        coords = [(0.0, 0.0), (8.0, 0.0), (4.0, 3.0)]
        inst = build_instance(
            coords, [(0, 1, (10.0, 14.0), 5.0), (0, 2, 5.0, 2.5), (1, 2, 5.0, 2.5)], p=0, d=1
        )
        g = rpp.build_transformed_graph(inst, [CriticalEdge(0, 4.0)], uav_pos=0)
        sol = rpp.rpp_dfs(g)
        assert sol.best_visited == [0]
        assert sol.best_cost == 0.0
        assert sol.inspected == 0

    def random_case(self, rng, max_edges):
        inst = random_connected_instance(rng, n_min=6, n_max=10)
        impeded = sorted(inst.impeded_ids)
        if not impeded:
            return None
        rng.shuffle(impeded)
        chosen = impeded[: rng.randint(1, min(max_edges, len(impeded)))]
        crit = []
        for e in sorted(chosen):
            t_max = INF if rng.random() < 0.4 else rng.uniform(5.0, 120.0)
            crit.append(CriticalEdge(e, t_max))
        pos = rng.randrange(inst.n_vertices)
        offset = rng.choice((0.0, rng.uniform(0.0, 10.0)))
        return rpp.build_transformed_graph(inst, crit, pos, offset), crit, offset

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        case = self.random_case(rng, max_edges=5)
        if case is None:
            return
        g, _, _ = case
        sol = rpp.rpp_dfs(g)
        count, cost = oracles.rpp_brute_force(g)
        assert sol.inspected == count
        assert sol.best_cost == pytest.approx(cost, rel=1e-12, abs=1e-12)

    def test_deadline_soundness(self, rng):
        for _ in range(30):
            case = self.random_case(rng, max_edges=4)
            if case is None:
                continue
            g, crit, offset = case
            sol = rpp.rpp_dfs(g)
            windows = {c.edge: c.t_max for c in crit}
            for eid, done in oracles.replay_tour_times(g, sol.best_visited, offset):
                assert done <= windows[eid] + 1e-9

    def test_tour_cost_identity(self, rng):
        for _ in range(20):
            case = self.random_case(rng, max_edges=4)
            if case is None:
                continue
            g, _, _ = case
            sol = rpp.rpp_dfs(g)
            if sol.inspected == 0:
                continue
            total = 0.0
            prev = 0
            for idx in sol.best_visited[1:]:
                total += g.arc[prev][idx]
                prev = idx
            total += g.arc[prev][0]
            # Identity: sum of arcs including the return equals transit plus
            # every inspected edge's own cost.
            metric_side = 0.0
            prev = 0
            for pos, idx in enumerate(sol.best_visited[1:]):
                node = g.nodes[idx]
                if pos == 0:
                    metric_side += g.arc[0][idx]
                else:
                    pnode = g.nodes[sol.best_visited[pos]]
                    metric_side += g.arc[sol.best_visited[pos]][idx]
                metric_side += 0.0
            metric_side += g.nodes[sol.best_visited[-1]].tau
            assert total == pytest.approx(metric_side, rel=1e-12)

    def test_adding_unconstrained_edge_never_lowers_count(self, rng):
        checked = 0
        while checked < 15:
            inst = random_connected_instance(rng, n_min=6, n_max=10)
            impeded = sorted(inst.impeded_ids)
            if len(impeded) < 2:
                continue
            checked += 1
            crit = [
                CriticalEdge(e, INF if rng.random() < 0.4 else rng.uniform(5.0, 90.0))
                for e in impeded[:-1]
            ]
            pos = rng.randrange(inst.n_vertices)
            base = rpp.rpp_dfs(rpp.build_transformed_graph(inst, crit, pos)).inspected
            extended = crit + [CriticalEdge(impeded[-1], INF)]
            more = rpp.rpp_dfs(rpp.build_transformed_graph(inst, extended, pos)).inspected
            assert more >= base

    def test_node_budget_ends_search_deterministically(self, monkeypatch):
        rng = random.Random("rpp-budget")
        inst = random_connected_instance(rng, n_min=12, n_max=12, impeded_frac=0.9)
        crit = [
            CriticalEdge(e, INF if rng.random() < 0.5 else rng.uniform(60.0, 200.0))
            for e in sorted(inst.impeded_ids)
        ]
        assert len(crit) >= 10
        g = rpp.build_transformed_graph(inst, crit, uav_pos=3, uav_time_offset=2.0)
        monkeypatch.setattr(rpp, "DFS_NODE_BUDGET", 500)
        sol = rpp.rpp_dfs(g)
        assert sol.budget_exhausted
        assert sol.nodes == 500
        assert sol.inspected > 0
        windows = {c.edge: c.t_max for c in crit}
        for eid, done in oracles.replay_tour_times(g, sol.best_visited, 2.0):
            assert done <= windows[eid] + 1e-9
        assert rpp.rpp_dfs(g) == sol

    def test_search_within_budget_is_unchanged(self, monkeypatch, rng):
        case = None
        while case is None:
            case = self.random_case(rng, max_edges=5)
        g = case[0]
        full = rpp.rpp_dfs(g)
        assert not full.budget_exhausted
        monkeypatch.setattr(rpp, "DFS_NODE_BUDGET", full.nodes)
        assert rpp.rpp_dfs(g) == full
        monkeypatch.setattr(rpp, "DFS_NODE_BUDGET", full.nodes - 1)
        cut = rpp.rpp_dfs(g)
        assert cut.budget_exhausted and cut.nodes == full.nodes - 1


class TestPlanExpansion:
    def test_depot_only_plan_is_empty(self):
        coords = [(0.0, 0.0), (8.0, 0.0), (4.0, 3.0)]
        inst = build_instance(
            coords, [(0, 1, (10.0, 14.0), 5.0), (0, 2, 5.0, 2.5), (1, 2, 5.0, 2.5)], p=0, d=1
        )
        g = rpp.build_transformed_graph(inst, [CriticalEdge(0, 4.0)], uav_pos=0)
        sol = rpp.rpp_dfs(g)
        assert rpp.solution_to_uav_plan(g, sol, inst, 0) == []

    def test_single_edge_plan(self):
        coords = [(0.0, 0.0), (8.0, 0.0), (4.0, 3.0)]
        inst = build_instance(
            coords, [(0, 1, (10.0, 14.0), 5.0), (0, 2, 5.0, 2.5), (1, 2, 5.0, 2.5)], p=0, q=2, d=1
        )
        g = rpp.build_transformed_graph(inst, [CriticalEdge(0, 30.0)], uav_pos=2)
        sol = rpp.rpp_dfs(g)
        legs = rpp.solution_to_uav_plan(g, sol, inst, 2)
        assert legs[-1].inspect
        assert legs[-1].edge == 0
        assert legs[0].frm == 2

    def test_leg_durations_match_tour_cost(self, rng):
        for _ in range(20):
            inst = random_connected_instance(rng, n_min=6, n_max=10)
            impeded = sorted(inst.impeded_ids)[:3]
            if not impeded:
                continue
            crit = [CriticalEdge(e, rng.uniform(20.0, 200.0)) for e in impeded]
            pos = rng.randrange(inst.n_vertices)
            g = rpp.build_transformed_graph(inst, crit, pos)
            sol = rpp.rpp_dfs(g)
            legs = rpp.solution_to_uav_plan(g, sol, inst, pos)
            if sol.inspected == 0:
                assert legs == []
                continue
            last_tau = g.nodes[sol.best_visited[-1]].tau
            total = sum(leg.duration for leg in legs)
            assert total == pytest.approx(sol.best_cost + last_tau, rel=1e-9)
