"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS line with its headline
numbers (run pytest with -s to watch them live).  Statistical checks use
fixed seeds.
"""

import random
import statistics
import time

import pytest

import oracles
from conftest import ForcedCostView, fresh_view, random_connected_instance
from scoutplan import bench, dstar, kspp, paa, rpp, sim
from scoutplan.core import (
    INF,
    KnowledgeState,
    PlanningCostView,
    Realization,
    sample_realization,
)
from scoutplan.dstar import CostUpdate
from scoutplan.paa import PaaContext, PriorityWeights
from scoutplan.rpp import CriticalEdge
from scoutplan.sim import SimulationConfig


def report(n, name, detail):
    print(f"\nACCEPTANCE {n} ({name}): PASS  [{detail}]")


class TestCriterion1DStarOracle:
    def test_dstar_matches_dijkstra_on_random_grids(self):
        t0 = time.perf_counter()
        rng = random.Random("acceptance-1")
        checked = 0
        for trial in range(100):
            if trial < 10:
                rows, cols = 25, 40  # the 1000-vertex ceiling
            else:
                rows = rng.randint(4, 25)
                cols = rng.randint(5, min(40, max(5, 1000 // rows)))
            inst, real = bench.generate_grid(
                bench.GridSpec(rows=rows, cols=cols, n_impeded_cuts=10), seed=trial
            )
            view = ForcedCostView(inst)
            state = dstar.initialize(inst, inst.p, inst.d)
            v_curr = inst.p
            path = dstar.replan(state, view, v_curr, [])
            unrevealed = sorted(inst.impeded_ids)
            rng.shuffle(unrevealed)
            fixed = sorted(inst.ugv_edge_ids - inst.impeded_ids)
            for _ in range(20):
                updates = []
                for _ in range(rng.randint(1, 2)):
                    if unrevealed and rng.random() < 0.7:
                        eid = unrevealed.pop()
                        old = view.cost(eid)
                        view.knowledge.reveal(eid, real[eid])
                        updates.append(CostUpdate(eid, old, view.cost(eid)))
                    else:
                        eid = rng.choice(fixed)
                        old = view.cost(eid)
                        new = old * rng.uniform(1.0, 3.0) + rng.uniform(0.0, 5.0)
                        view.forced[eid] = new
                        updates.append(CostUpdate(eid, old, new))
                if len(path.vertices) > 2 and rng.random() < 0.8:
                    v_curr = path.vertices[rng.randint(1, len(path.vertices) - 2)]
                path = dstar.replan(state, view, v_curr, updates)
                costs = oracles.view_costs(inst, view)
                dist = oracles.dijkstra_to_dest(inst, costs, inst.d)
                assert state.g[v_curr] == pytest.approx(dist[v_curr], rel=1e-9)
                assert path.cost == pytest.approx(dist[v_curr], rel=1e-9)
                checked += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        report(1, "D* Lite oracle equivalence",
               f"{checked} update batches on 100 grids, {elapsed:.1f}s < 60s")


class TestCriterion2KsppOracle:
    def test_small_graphs_match_enumeration(self):
        t0 = time.perf_counter()
        rng = random.Random("acceptance-2a")
        for trial in range(200):
            inst = random_connected_instance(rng, n_min=5, n_max=12)
            view = fresh_view(inst)
            state = dstar.initialize(inst, inst.p, inst.d)
            pset = kspp.update_k_paths(inst, view, state, inst.p, [], 4)
            costs = oracles.view_costs(inst, view)
            want = [c for c, _ in oracles.all_simple_paths(inst, costs, inst.p, inst.d)[:4]]
            assert [p.cost for p in pset] == want
        elapsed = time.perf_counter() - t0
        report(2, "k-path enumeration equivalence",
               f"200 graphs at 12 vertices or fewer, exact, {elapsed:.1f}s")

    def test_mid_size_graphs_match_yen(self):
        t0 = time.perf_counter()
        rng = random.Random("acceptance-2b")
        for trial in range(50):
            inst = random_connected_instance(rng, n_min=60, n_max=200)
            view = fresh_view(inst)
            state = dstar.initialize(inst, inst.p, inst.d)
            pset = kspp.update_k_paths(inst, view, state, inst.p, [], 4)
            costs = oracles.view_costs(inst, view)
            yen = oracles.yen_k_paths(inst, costs, inst.p, inst.d, 4)
            assert [p.vertices for p in pset] == yen
            assert [p.cost for p in pset] == [oracles.path_cost(inst, costs, s) for s in yen]
        elapsed = time.perf_counter() - t0
        report(2, "textbook Yen equivalence",
               f"50 graphs up to 200 vertices, exact, {elapsed:.1f}s")


class TestCriterion3RppOptimality:
    def test_dfs_matches_brute_force(self):
        t0 = time.perf_counter()
        rng = random.Random("acceptance-3")
        cases = 0
        while cases < 50:
            inst = random_connected_instance(rng, n_min=8, n_max=14, impeded_frac=0.6)
            impeded = sorted(inst.impeded_ids)
            if not impeded:
                continue
            rng.shuffle(impeded)
            chosen = sorted(impeded[: rng.randint(1, min(6, len(impeded)))])
            crit = [
                CriticalEdge(e, INF if rng.random() < 0.35 else rng.uniform(5.0, 150.0))
                for e in chosen
            ]
            pos = rng.randrange(inst.n_vertices)
            offset = rng.uniform(0.0, 8.0)
            graph = rpp.build_transformed_graph(inst, crit, pos, offset)
            sol = rpp.rpp_dfs(graph)
            count, cost = oracles.rpp_brute_force(graph)
            assert sol.inspected == count
            assert sol.best_cost == pytest.approx(cost, rel=1e-12, abs=1e-12)
            cases += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0
        report(3, "inspection-tour optimality",
               f"50 cases at 6 edges or fewer, exact, {elapsed:.1f}s < 120s")


class TestCriterion4Walkthrough:
    def test_two_detour_scenario(self):
        inst, real = bench.demo_instance()
        solo = sim.run(inst, real, SimulationConfig(planner="rpp", k=2, uav_enabled=False))
        assert solo.arrival_time == 24.0
        assisted = sim.run(inst, real, SimulationConfig(planner="rpp", k=2))
        assert assisted.arrival_time == 18.0
        reveals = [e for e in assisted.events if e.kind == "reveal"]
        assert reveals[0].data[0] == 1 and reveals[0].data[2] == "uav"
        report(4, "walkthrough instance", "arrival 24.0 unassisted, 18.0 assisted, exact")


def _bridge_table(spec, n_instances, seed_tag, k_values, planners):
    """Per-planner mean costs and wall-time maxima over a bridge family."""
    lbs, naive_costs = [], []
    costs = {(p, k): [] for p in planners for k in k_values}
    ugv_ms = {(p, k): 0.0 for p in planners for k in k_values}
    solver_ms = {(p, k): 0.0 for p in planners for k in k_values}
    for i in range(n_instances):
        seed = random.Random(f"{seed_tag}:{i}").getrandbits(31)
        inst, real = bench.generate_bridge(spec, seed)
        out = sim.run(inst, real, SimulationConfig(planner="naive", k=1))
        lbs.append(out.lower_bound)
        naive_costs.append(out.arrival_time)
        for k in k_values:
            for planner in planners:
                o = sim.run(inst, real, SimulationConfig(planner=planner, k=k))
                costs[(planner, k)].append(o.arrival_time)
                ugv_ms[(planner, k)] = max(ugv_ms[(planner, k)], o.max_ugv_replan_s * 1e3)
                solver_ms[(planner, k)] = max(solver_ms[(planner, k)], o.max_uav_solver_s * 1e3)
    return lbs, naive_costs, costs, ugv_ms, solver_ms


class TestCriterion5Table1Trend:
    def test_delta_trend_over_k(self):
        t0 = time.perf_counter()
        ks = (1, 2, 3, 4, 5, 6, 7)
        lbs, naive_costs, costs, _, _ = _bridge_table(
            bench.BridgeSpec(adversarial=True), 100, "ladder-d", ks, ("rpp",)
        )
        lb = statistics.mean(lbs)
        ch = statistics.mean(naive_costs)
        delta = {
            k: bench.delta_percent(lb, ch, statistics.mean(costs[("rpp", k)])) for k in ks
        }
        assert round(delta[1], 1) == 0.0
        for k in (2, 3, 4, 5):
            assert delta[k] > 0.0
        assert 20.0 <= delta[5] <= 35.0
        assert delta[6] <= delta[5] + 3.0
        assert delta[7] <= delta[5] + 3.0
        elapsed = time.perf_counter() - t0
        report(
            5, "adversarial-family trend",
            "delta " + " ".join(f"k{k}={delta[k]:.1f}" for k in ks)
            + f"; LB {lb:.1f} naive {ch:.1f}; {elapsed:.0f}s",
        )


class TestCriterion6Table2Parity:
    def test_paa_matches_rpp_and_is_far_faster(self):
        t0 = time.perf_counter()
        ks = (1, 2, 3, 4, 5)
        spec = bench.BridgeSpec(impeded_per_path=0.2, bridge_fraction=0.2)
        lbs, naive_costs, costs, _, solver_ms = _bridge_table(
            spec, 100, "acceptance-6", ks, ("rpp", "paa")
        )
        rel_gaps = {}
        for k in ks:
            c_rpp = statistics.mean(costs[("rpp", k)])
            c_paa = statistics.mean(costs[("paa", k)])
            rel_gaps[k] = abs(c_paa - c_rpp) / c_rpp
            assert rel_gaps[k] <= 0.015
        for k in (4, 5):
            assert solver_ms[("paa", k)] * 100.0 <= solver_ms[("rpp", k)]
        elapsed = time.perf_counter() - t0
        report(
            6, "priority-planner parity and speed",
            "gap " + " ".join(f"k{k}={rel_gaps[k] * 100:.2f}%" for k in ks)
            + f"; solver max rpp {max(solver_ms[('rpp', k)] for k in (4, 5)):.0f}ms"
            + f" vs paa {max(solver_ms[('paa', k)] for k in (4, 5)):.2f}ms; {elapsed:.0f}s",
        )


class TestCriterion7ScalingBudget:
    def test_replanning_stays_under_one_second(self):
        t0 = time.perf_counter()
        sizes = ((20, 20), (25, 20), (30, 20), (30, 25))
        dist = {}
        worst = 0.0
        for size in sizes:
            per_event = []
            for i in range(4):
                seed = random.Random(f"acceptance-7:{size}:{i}").getrandbits(31)
                inst, real = bench.generate_bridge(bench.scaling_spec(size), seed)
                out = sim.run(inst, real, SimulationConfig(planner="rpp", k=4))
                per_event.extend(r.ugv_seconds for r in out.replans)
            worst = max(worst, max(per_event))
            dist[size] = (
                min(per_event), statistics.median(per_event), max(per_event), len(per_event)
            )
            assert max(per_event) <= 1.0
        elapsed = time.perf_counter() - t0
        detail = "; ".join(
            f"{a}x{b}: median {d[1] * 1e3:.0f}ms max {d[2] * 1e3:.0f}ms over {d[3]} events"
            for (a, b), d in dist.items()
        )
        report(7, "replanning time budget", detail + f"; {elapsed:.0f}s")


class TestCriterion8PropertySuite:
    def test_arrival_never_beats_lower_bound(self):
        t0 = time.perf_counter()
        rng = random.Random("acceptance-8a")
        planners = ("rpp", "paa", "naive")
        for trial in range(10_000):
            inst = random_connected_instance(rng, n_min=5, n_max=12)
            real = sample_realization(inst, rng)
            out = sim.run(
                inst, real,
                SimulationConfig(planner=planners[trial % 3], k=1 + trial % 3),
            )
            assert out.arrival_time >= out.lower_bound - 1e-9
            times = [e.time for e in out.events]
            assert times == sorted(times)
            revealed = [e.data[0] for e in out.events if e.kind == "reveal"]
            assert len(revealed) == len(set(revealed))
            assert oracles.replay_ugv_arrivals(inst, real, out.events) == out.arrival_time
        elapsed = time.perf_counter() - t0
        report(8, "arrival bounded below", f"10000 randomized runs, {elapsed:.0f}s")

    def test_no_impeded_edges_all_planners_tie(self):
        rng = random.Random("acceptance-8b")
        for _ in range(30):
            inst = random_connected_instance(rng, impeded_frac=0.0)
            real = Realization(inst, {})
            arrivals = {
                planner: sim.run(inst, real, SimulationConfig(planner=planner, k=3)).arrival_time
                for planner in ("rpp", "paa", "naive")
            }
            assert len(set(arrivals.values())) == 1
        report(8, "planner tie without impeded edges", "30 instances, 3 planners")

    def test_event_logs_are_seed_deterministic(self):
        rng = random.Random("acceptance-8c")
        for _ in range(20):
            inst = random_connected_instance(rng, n_min=6, n_max=14)
            real = sample_realization(inst, rng)
            cfg = SimulationConfig(planner="rpp", k=3)
            assert sim.run(inst, real, cfg).events == sim.run(inst, real, cfg).events
        report(8, "event-log determinism", "20 instances run twice")

    def test_queue_membership_invariant(self):
        rng = random.Random("acceptance-8d")
        for _ in range(20):
            inst = random_connected_instance(rng, n_min=6, n_max=14)
            view = fresh_view(inst)
            state = dstar.initialize(inst, inst.p, inst.d)
            assert state.queue_consistent()
            dstar.replan(state, view, inst.p, [])
            assert state.queue_consistent()
            for eid in sorted(inst.impeded_ids):
                old = view.cost(eid)
                view.knowledge.reveal(eid, inst.edges[eid].distribution.t_max)
                dstar.rhs_update(state, view, CostUpdate(eid, old, view.cost(eid)))
                assert state.queue_consistent()
                dstar.compute_shortest_path(state, view, inst.p)
                assert state.queue_consistent()
        report(8, "queue membership invariant", "checked after every operation")

    def test_priority_signals_stay_normalized(self):
        rng = random.Random("acceptance-8e")
        checked = 0
        while checked < 100:
            inst = random_connected_instance(rng, n_min=6, n_max=14, impeded_frac=0.5)
            view = fresh_view(inst)
            state = dstar.initialize(inst, inst.p, inst.d)
            pset = kspp.update_k_paths(inst, view, state, inst.p, [], 3)
            crit = rpp.extract_critical_edges(pset, view.knowledge, inst, view)
            if not crit:
                continue
            ctx = PaaContext(inst, view, pset, inst.q, PriorityWeights(), 3)
            for ep in paa.score_edges(crit, ctx):
                for val in (ep.p1, ep.p2, ep.p3, ep.p4):
                    assert 0.0 <= val <= 1.0
            checked += 1
        report(8, "priority signals normalized", "100 random contexts")

    def test_inspection_deadline_soundness(self):
        rng = random.Random("acceptance-8f")
        checked = 0
        while checked < 100:
            inst = random_connected_instance(rng, n_min=6, n_max=12, impeded_frac=0.6)
            impeded = sorted(inst.impeded_ids)
            if not impeded:
                continue
            crit = [
                CriticalEdge(e, INF if rng.random() < 0.3 else rng.uniform(4.0, 150.0))
                for e in impeded[:5]
            ]
            pos = rng.randrange(inst.n_vertices)
            offset = rng.uniform(0.0, 10.0)
            graph = rpp.build_transformed_graph(inst, crit, pos, offset)
            sol = rpp.rpp_dfs(graph)
            windows = {c.edge: c.t_max for c in crit}
            for eid, done in oracles.replay_tour_times(graph, sol.best_visited, offset):
                assert done <= windows[eid] + 1e-9
            checked += 1
        report(8, "inspection deadline soundness", "100 random tours")
