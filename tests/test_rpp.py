import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import build_instance, edge_between, random_connected_instance
from scoutplan import bench, dstar, kspp, rpp
from scoutplan.core import INF, PlanningCostView, UavMetric


def plan_paths(inst, view, k):
    state = dstar.initialize(inst, view)
    return kspp.update_k_paths(inst, view, state, inst.p, [], k)


class TestExtractCriticalEdges:
    def test_no_impeded_edges_gives_empty_list(self):
        coords = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        inst = build_instance(coords, [(0, 1, 1.0), (1, 2, 1.0)])
        view = PlanningCostView(inst)
        pset = plan_paths(inst, view, 2)
        assert rpp.extract_critical_edges(pset, view, inst) == {}

    def test_window_is_prefix_sum(self):
        # p -a- b -d with the impeded edge in the middle; prefix cost 7.
        coords = [(0.0, 0.0), (7.0, 0.0), (9.0, 0.0), (12.0, 0.0)]
        inst = build_instance(coords, [(0, 1, 7.0), (1, 2, (2.0, 10.0)), (2, 3, 3.0)])
        view = PlanningCostView(inst)
        pset = plan_paths(inst, view, 1)
        crit = rpp.extract_critical_edges(pset, view, inst)
        assert crit == {edge_between(inst, 1, 2): 7.0}

    def test_start_time_shifts_windows(self):
        coords = [(0.0, 0.0), (7.0, 0.0), (9.0, 0.0), (12.0, 0.0)]
        inst = build_instance(coords, [(0, 1, 7.0), (1, 2, (2.0, 10.0)), (2, 3, 3.0)])
        view = PlanningCostView(inst)
        pset = plan_paths(inst, view, 1)
        crit = rpp.extract_critical_edges(pset, view, inst, start_time=5.0)
        assert crit[min(crit)] == 12.0

    def test_prefix_uses_minimum_cost_for_unrealized(self):
        coords = [(0.0, 0.0), (4.0, 0.0), (6.0, 0.0), (8.0, 0.0)]
        inst = build_instance(
            coords, [(0, 1, (4.0, 10.0)), (1, 2, (2.0, 8.0)), (2, 3, 2.0)]
        )
        view = PlanningCostView(inst)
        pset = plan_paths(inst, view, 1)
        crit = rpp.extract_critical_edges(pset, view, inst)
        assert crit[edge_between(inst, 1, 2)] == 4.0  # first edge at minimum

    def test_best_path_edges_finite_others_infinite(self):
        inst, _ = bench.demo_instance()
        view = PlanningCostView(inst)
        pset = plan_paths(inst, view, 3)
        crit = rpp.extract_critical_edges(pset, view, inst)
        assert crit[1] == 4.0  # on the best path, behind the 4-cost edge
        assert crit[4] == INF  # alternative-route edge

    def test_realized_and_excluded_edges_skipped(self):
        inst, _ = bench.demo_instance()
        view = PlanningCostView(inst)
        pset = plan_paths(inst, view, 3)
        view.reveal(1, 18.0)
        crit = rpp.extract_critical_edges(pset, view, inst)
        assert list(crit) == [4]
        crit = rpp.extract_critical_edges(pset, view, inst, exclude=(4,))
        assert crit == {}


class TestTransformedGraph:
    def one_edge_instance(self):
        # Single impeded edge (a=0, b=1), plus a safe parallel detour.
        coords = [(0.0, 0.0), (8.0, 0.0), (4.0, 3.0)]
        return build_instance(
            coords, [(0, 1, (10.0, 14.0), 5.0), (0, 2, 5.0, 2.5), (1, 2, 5.0, 2.5)], p=0, d=1
        )

    def test_single_edge_arcs(self):
        inst = self.one_edge_instance()
        crit = {0: 30.0}
        g = rpp.build_transformed_graph(inst, UavMetric(inst), crit, uav_pos=0)
        assert g.size == 3
        assert g.arc[0][1] == 0.0  # already at the forward start
        assert g.arc[1][0] == 5.0  # finishing the edge costs tau
        metric = UavMetric(inst)
        assert g.arc[0][2] == metric.cost(0, 1)  # flight to the reverse start
        n1, n2 = g.nodes[1], g.nodes[2]  # the two directions of edge 0
        assert n1.edge == n2.edge == 0 and (n1.start, n1.end) == (n2.end, n2.start) == (0, 1)
        assert g.arc[1][2] == INF and g.arc[2][1] == INF

    def test_two_edges_node_count_and_twin_arcs(self, rng):
        inst = random_connected_instance(rng, n_min=6, n_max=8)
        impeded = sorted(inst.impeded_ids)[:2]
        if len(impeded) < 2:
            return
        crit = dict.fromkeys(impeded, INF)
        g = rpp.build_transformed_graph(inst, UavMetric(inst), crit, uav_pos=inst.q)
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
        crit = {0: 20.0, 2: 25.0}
        g = rpp.build_transformed_graph(inst, UavMetric(inst), crit, uav_pos=1, uav_time_offset=2.0)
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
        g = rpp.build_transformed_graph(inst, UavMetric(inst), {0: 30.0}, uav_pos=0)
        sol = rpp.rpp_dfs(g)
        assert sol.best_visited == [0, 1]  # start at the near end
        assert sol.best_cost == 0.0

    def test_infeasible_window_returns_depot_only(self):
        coords = [(0.0, 0.0), (8.0, 0.0), (4.0, 3.0)]
        inst = build_instance(
            coords, [(0, 1, (10.0, 14.0), 5.0), (0, 2, 5.0, 2.5), (1, 2, 5.0, 2.5)], p=0, d=1
        )
        g = rpp.build_transformed_graph(inst, UavMetric(inst), {0: 4.0}, uav_pos=0)
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
        crit = {}
        for e in sorted(chosen):
            crit[e] = INF if rng.random() < 0.4 else rng.uniform(5.0, 120.0)
        pos = rng.randrange(inst.n_vertices)
        offset = rng.choice((0.0, rng.uniform(0.0, 10.0)))
        return rpp.build_transformed_graph(inst, UavMetric(inst), crit, pos, offset), crit, offset

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
            for eid, done in oracles.replay_tour_times(g, sol.best_visited, offset):
                assert done <= crit[eid] + 1e-9

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
            crit = {
                e: INF if rng.random() < 0.4 else rng.uniform(5.0, 90.0)
                for e in impeded[:-1]
            }
            pos = rng.randrange(inst.n_vertices)
            base = rpp.rpp_dfs(rpp.build_transformed_graph(inst, UavMetric(inst), crit, pos)).inspected
            extended = {**crit, impeded[-1]: INF}
            more = rpp.rpp_dfs(rpp.build_transformed_graph(inst, UavMetric(inst), extended, pos)).inspected
            assert more >= base

    def test_node_budget_ends_search_deterministically(self, monkeypatch):
        rng = random.Random("rpp-budget")
        inst = random_connected_instance(rng, n_min=12, n_max=12, impeded_frac=0.9)
        crit = {
            e: INF if rng.random() < 0.5 else rng.uniform(60.0, 200.0)
            for e in sorted(inst.impeded_ids)
        }
        assert len(crit) >= 10
        g = rpp.build_transformed_graph(inst, UavMetric(inst), crit, uav_pos=3, uav_time_offset=2.0)
        monkeypatch.setattr(rpp, "DFS_NODE_BUDGET", 500)
        sol = rpp.rpp_dfs(g)
        assert sol.budget_exhausted
        assert sol.nodes == 500
        assert sol.inspected > 0
        for eid, done in oracles.replay_tour_times(g, sol.best_visited, 2.0):
            assert done <= crit[eid] + 1e-9
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


def test_subset_prune_counterexample():
    # Tie-heavy integer arcs.  The search finds [0, 2, 5] (2 inspections,
    # cost 5) first; child 2 of node 5 (cost 5) then visits only nodes of
    # that incumbent, but it ends at node 2, from which tour [0, 5, 2, 3]
    # meets every deadline: 3 inspections at cost 9.  A prune of children
    # whose node set lies inside the incumbent's would lose that tour.
    nodes = [None] + [
        rpp.TourNode(edge, 0, 0, 1.0, deadline)
        for edge, deadline in zip((0, 0, 1, 1, 2, 2), (10.0, 10.0, 9.0, 9.0, 9.0, 9.0))
    ]
    arc = [
        [INF, 4, 2, 5, 4, 2, 4],
        [1, INF, INF, 4, 3, 3, 3],
        [1, INF, INF, 4, 5, 3, 5],
        [1, 5, 3, INF, INF, 5, 5],
        [1, 4, 4, INF, INF, 4, 6],
        [1, 5, 3, 6, 5, INF, INF],
        [1, 3, 3, 4, 5, INF, INF],
    ]
    g = rpp.TransformedGraph(nodes, [[float(a) for a in row] for row in arc])
    sol = rpp.rpp_dfs(g)
    assert (sol.inspected, sol.best_cost) == oracles.rpp_brute_force(g) == (3, 9.0)


@st.composite
def _tour_graphs(draw):
    """Direction-node graphs with at most 5 edges: small integer arcs that
    break the triangle inequality and tie often, some INF arcs, and integer
    or INF deadlines per direction."""
    m = draw(st.integers(1, 5), label="edges")
    n = 2 * m + 1
    weight = st.integers(0, 4).map(lambda a: INF if a == 4 else float(a))
    arc = [[INF] * n for _ in range(n)]
    for i in range(n):
        for j in range(1, n):
            if (i - 1) // 2 != (j - 1) // 2:
                arc[i][j] = draw(weight)
    deadline = st.integers(0, 8).map(lambda d: INF if d == 8 else float(d))
    nodes = [None]
    for j in range(1, n):
        nodes.append(rpp.TourNode((j - 1) // 2, 0, 0, 1.0, draw(deadline)))
        arc[j][0] = 1.0
    return rpp.TransformedGraph(nodes, arc)


@settings(max_examples=400, deadline=None)
@given(graph=_tour_graphs())
def test_dfs_matches_brute_force_on_tie_heavy_graphs(graph):
    sol = rpp.rpp_dfs(graph)
    assert not sol.budget_exhausted
    assert (sol.inspected, sol.best_cost) == oracles.rpp_brute_force(graph)
    assert len({graph.nodes[j].edge for j in sol.best_visited[1:]}) == sol.inspected
    cost, prev = 0.0, 0
    for j in sol.best_visited[1:]:
        cost += graph.arc[prev][j]
        assert cost <= graph.nodes[j].deadline
        prev = j
    assert cost == sol.best_cost


class TestPlanExpansion:
    def test_depot_only_plan_is_empty(self):
        coords = [(0.0, 0.0), (8.0, 0.0), (4.0, 3.0)]
        inst = build_instance(
            coords, [(0, 1, (10.0, 14.0), 5.0), (0, 2, 5.0, 2.5), (1, 2, 5.0, 2.5)], p=0, d=1
        )
        g = rpp.build_transformed_graph(inst, UavMetric(inst), {0: 4.0}, uav_pos=0)
        sol = rpp.rpp_dfs(g)
        assert rpp.solution_to_uav_plan(g.inspections(sol), UavMetric(inst), 0) == []

    def test_single_edge_plan(self):
        coords = [(0.0, 0.0), (8.0, 0.0), (4.0, 3.0)]
        inst = build_instance(
            coords, [(0, 1, (10.0, 14.0), 5.0), (0, 2, 5.0, 2.5), (1, 2, 5.0, 2.5)], p=0, q=2, d=1
        )
        g = rpp.build_transformed_graph(inst, UavMetric(inst), {0: 30.0}, uav_pos=2)
        sol = rpp.rpp_dfs(g)
        legs = rpp.solution_to_uav_plan(g.inspections(sol), UavMetric(inst), 2)
        assert legs[-1].inspect
        assert legs[-1].edge == 0
        assert legs[0].frm == 2

    @pytest.mark.parametrize("inspections", [[(4, 4), (1, 2)], [(1, 1), (4, 5)]])
    def test_legs_chain_through_graph_constrained_transit(self, inspections):
        # A path 0-1-2-3-4-5 with edges 1 (1-2) and 4 (4-5) impeded; the
        # scout flies only along edges, so every transit takes several hops.
        coords = [(float(i), 0.0) for i in range(6)]
        specs = [(i, i + 1, (2.0, 6.0) if i in (1, 4) else 2.0) for i in range(5)]
        inst = build_instance(coords, specs, p=0, q=0, d=5, free_flight=False)
        legs = rpp.solution_to_uav_plan(inspections, UavMetric(inst), 0)
        assert legs[0].frm == 0
        for prev, leg in zip(legs, legs[1:]):
            assert leg.frm == prev.to
        assert [(leg.edge, leg.frm) for leg in legs if leg.inspect] == inspections
        for leg in legs:
            assert leg.duration == inst.edges[edge_between(inst, leg.frm, leg.to)].uav_cost
        assert len(legs) > len(inspections) + 2

    def test_leg_durations_match_tour_cost(self, rng):
        for _ in range(20):
            inst = random_connected_instance(rng, n_min=6, n_max=10)
            impeded = sorted(inst.impeded_ids)[:3]
            if not impeded:
                continue
            crit = {e: rng.uniform(20.0, 200.0) for e in impeded}
            pos = rng.randrange(inst.n_vertices)
            g = rpp.build_transformed_graph(inst, UavMetric(inst), crit, pos)
            sol = rpp.rpp_dfs(g)
            legs = rpp.solution_to_uav_plan(g.inspections(sol), UavMetric(inst), pos)
            if sol.inspected == 0:
                assert legs == []
                continue
            last_tau = g.nodes[sol.best_visited[-1]].tau
            total = sum(leg.duration for leg in legs)
            assert total == pytest.approx(sol.best_cost + last_tau, rel=1e-9)


@settings(max_examples=400, deadline=None)
@given(graph=_tour_graphs())
def test_dfs_enters_the_nodes_its_rules_enter(graph):
    # The search's shortcuts, the precomputed masks and the pre-check before
    # the count bound's scan, change no decision: it enters exactly the
    # nodes its rules, spelled out in the oracle, enter.
    assert rpp.rpp_dfs(graph).nodes == oracles.rpp_dfs_nodes(graph)


# The search enters [0, 2] and then [0, 2, 4] (cost 2).  Back at the depot,
# child 3 (cost 0) ties that count with one more arc, which costs at least
# min_out[3] = 1, and [0, 3, 2] does so at cost 1.  A tie bound that also
# adds the least arc in (1) for that arc reaches 2 and loses the tour.
_TIE_BOUND_EXACT = rpp.TransformedGraph(
    [None] + [rpp.TourNode(edge, 0, 0, 1.0, deadline)
              for edge, deadline in ((0, 0.0), (0, 1.0), (1, 0.0), (1, 2.0))],
    [[INF, 1.0, 0.0, 0.0, 0.0],
     [1.0, INF, INF, 1.0, 1.0],
     [1.0, INF, INF, 1.0, 2.0],
     [1.0, 1.0, 1.0, INF, INF],
     [1.0, 1.0, 1.0, INF, INF]],
)


@settings(max_examples=400, deadline=None)
@given(graph=_tour_graphs())
@example(graph=_TIE_BOUND_EXACT)
def test_dfs_returns_the_first_optimum_in_pre_order(graph):
    # Memo and bounds prune only subtrees without a tour strictly better than
    # the incumbent, so the search returns the tour a full enumeration in the
    # same child order finds first, not merely an optimum.
    sol = rpp.rpp_dfs(graph)
    assert (sol.best_visited, sol.best_cost) == oracles.rpp_first_optimum(graph)
