import random

import pytest

import oracles
from conftest import build_instance, random_connected_instance
from scoutplan import bench, rpp, sim
from scoutplan.core import Realization, sample_realization
from scoutplan.sim import SimulationConfig


def run_all_planners(inst, real, k=2):
    outs = {}
    for planner in ("rpp", "paa", "naive"):
        outs[planner] = sim.run(inst, real, SimulationConfig(planner=planner, k=k))
    return outs


class TestLowerBound:
    def test_zero_impeded_equals_static_shortest_path(self):
        coords = [(0.0, 0.0), (3.0, 0.0), (7.0, 0.0)]
        inst = build_instance(coords, [(0, 1, 3.0), (1, 2, 4.0)])
        real = Realization(inst, {})
        assert sim.lower_bound(inst, real) == 7.0

    def test_matches_dijkstra_oracle(self, rng):
        for _ in range(25):
            inst = random_connected_instance(rng)
            real = sample_realization(inst, rng)
            costs = {}
            for eid in inst.ugv_edge_ids:
                rec = inst.edges[eid]
                costs[eid] = real[eid] if rec.impeded else rec.ugv_cost
            dist = oracles.dijkstra_to_dest(inst, costs, inst.d)
            assert sim.lower_bound(inst, real) == pytest.approx(dist[inst.p], rel=1e-12)


class TestWalkthroughScenario:
    def test_without_scout_arrival_24(self):
        inst, real = bench.demo_instance()
        out = sim.run(inst, real, SimulationConfig(planner="rpp", k=2, uav_enabled=False))
        assert out.arrival_time == 24.0

    def test_with_scout_arrival_18(self):
        inst, real = bench.demo_instance()
        out = sim.run(inst, real, SimulationConfig(planner="rpp", k=2))
        assert out.arrival_time == 18.0
        # The scout inspected the far detour first and the ground vehicle
        # rerouted through the scout's start vertex.
        reveals = [e for e in out.events if e.kind == "reveal"]
        assert reveals[0].data[0] == 1 and reveals[0].data[2] == "uav"
        trace = [e.data[0] for e in out.events if e.kind == "ugv_arrives"]
        assert trace == [1, 4, 3]

    def test_lower_bound_is_18(self):
        inst, real = bench.demo_instance()
        out = sim.run(inst, real, SimulationConfig(planner="rpp", k=2))
        assert out.lower_bound == 18.0


class TestNaiveStep:
    def test_no_impeded_on_path_idles(self):
        coords = [(0.0, 0.0), (3.0, 0.0), (7.0, 0.0)]
        inst = build_instance(coords, [(0, 1, 3.0), (1, 2, 4.0)])
        real = Realization(inst, {})
        out = sim.run(inst, real, SimulationConfig(planner="naive"))
        assert out.arrival_time == 7.0
        assert [e for e in out.events if e.kind == "uav_arrives"] == []

    def test_single_feasible_edge_inspected(self):
        inst, real = bench.demo_instance()
        out = sim.run(inst, real, SimulationConfig(planner="naive"))
        reveals = [e for e in out.events if e.kind == "reveal" and e.data[2] == "uav"]
        assert reveals and reveals[0].data[0] == 1
        assert out.arrival_time == 18.0


class TestReplanSemantics:
    def test_irrelevant_revelation_keeps_route(self):
        # Fixed top route (cost 10); impeded bottom route that stays worse
        # even at its best.  The scout inspects it; the route must not move.
        coords = [(0.0, 0.0), (5.0, 2.0), (10.0, 0.0), (5.0, -2.0)]
        inst = build_instance(
            coords,
            [(0, 1, 5.5), (1, 2, 5.5), (0, 3, (6.0, 10.0)), (2, 3, 6.0)],
            p=0, q=0, d=2,
        )
        real = Realization(inst, {2: 10.0})
        out = sim.run(inst, real, SimulationConfig(planner="rpp", k=2))
        trace = [e.data[0] for e in out.events if e.kind == "ugv_arrives"]
        assert trace == [1, 2]
        assert out.arrival_time == 11.0
        assert any(e.kind == "reveal" and e.data[2] == "uav" for e in out.events)

    def test_good_news_switches_route_at_next_vertex(self):
        # Same shape, but the hidden route realizes cheap; the vehicle is
        # mid-edge when the news lands and switches at the next vertex.
        coords = [(0.0, 0.0), (5.0, 2.0), (10.0, 0.0), (5.0, -2.0)]
        inst = build_instance(
            coords,
            [(0, 1, 5.5), (1, 2, 5.5), (0, 3, (6.0, 30.0)), (2, 3, 6.0), (1, 3, 4.6)],
            p=0, q=3, d=2,
        )
        real = Realization(inst, {2: 6.0})
        out = sim.run(inst, real, SimulationConfig(planner="rpp", k=3))
        # Expected-cost route starts over the top; the scout reveals the
        # bottom edge at 3.0 (inspecting from its start vertex), before the
        # vehicle reaches the middle vertex.
        reveals = [e for e in out.events if e.kind == "reveal"]
        assert reveals[0].data[:2] == (2, 6.0)
        trace = [e.data[0] for e in out.events if e.kind == "ugv_arrives"]
        # Hand-checked policy: 0 -> 1 (committed), then the cross edge to 3
        # is not worth it (4.6 + 6 + 6 > 5.5 + ...), vehicle keeps the top.
        assert trace[0] == 1
        assert out.arrival_time <= 11.0
        oracles.replay_ugv_arrivals(inst, real, out.events)

    def test_late_inspection_counted_and_commitment_honored(self):
        coords = [(0.0, 0.0), (2.0, 0.0), (12.0, 0.0), (12.0, 1.0)]
        inst = build_instance(
            coords,
            [(0, 1, 2.0), (1, 2, (10.0, 30.0)), (2, 3, 1.0)],
            p=0, q=3, d=2,
        )
        real = Realization(inst, {1: 30.0})
        out = sim.run(inst, real, SimulationConfig(planner="paa", k=2))
        assert out.late_inspections == 1
        assert out.arrival_time == 32.0
        reveal = [e for e in out.events if e.kind == "reveal"][0]
        assert reveal.data == (1, 30.0, "uav")
        assert 2.0 < reveal.time < 32.0
        oracles.replay_ugv_arrivals(inst, real, out.events)

    def test_cancellation_when_ugv_enters_targeted_edge(self):
        # Scout is far away; the vehicle reaches the impeded edge before any
        # inspection can finish, so the pending inspection is dropped.
        coords = [(0.0, 0.0), (2.0, 0.0), (12.0, 0.0), (500.0, 5.0)]
        inst = build_instance(
            coords,
            [(0, 1, 2.0), (1, 2, (10.0, 30.0)), (2, 3, 490.0)],
            p=0, q=3, d=2,
        )
        real = Realization(inst, {1: 12.0})
        out = sim.run(inst, real, SimulationConfig(planner="paa", k=2))
        assert out.arrival_time == 14.0
        assert any(r.trigger.startswith("cancel:") for r in out.replans)
        # The scout never finished that inspection: the only reveal is the
        # vehicle's own arrival.
        reveals = [e for e in out.events if e.kind == "reveal"]
        assert [r.data[2] for r in reveals] == ["ugv"]


    def test_superseded_scout_plan_triggers_no_cancel(self):
        # Criterion-8a trial 1666 (paa, k=2).  At t=48.57 the ground vehicle
        # reaches vertex 10 while the scout flies to vertex 11; the replan
        # there gives the scout a plan from 11 that inspects edge 17 instead
        # of edge 20.  The vehicle then enters edge 20, which only the
        # replaced plan targeted, so the scout is not replanned.
        rng = random.Random("acceptance-8a")
        for _ in range(1667):
            inst = random_connected_instance(rng, n_min=5, n_max=12)
            real = sample_realization(inst, rng)
        out = sim.run(inst, real, SimulationConfig(planner="paa", k=2))
        assert [r.trigger for r in out.replans] == [
            "init", "reveal:0", "reveal:1", "reveal:17", "reveal:20"
        ]
        assert out.event_log_text().splitlines() == [
            "t=31.982718940367988 reveal edge=0 cost=76.68983353090195 by=uav",
            "t=31.982718940367988 uav_arrives v=0",
            "t=48.57225275860216 reveal edge=1 cost=48.57225275860216 by=ugv",
            "t=48.57225275860216 ugv_arrives v=10",
            "t=49.016049456549695 uav_arrives v=11",
            "t=65.10445184510036 reveal edge=17 cost=39.965673994915875 by=uav",
            "t=65.10445184510036 uav_arrives v=7",
            "t=69.17262148460927 reveal edge=20 cost=20.600368726007105 by=ugv",
            "t=69.17262148460927 ugv_arrives v=11",
        ]


class TestInvariants:
    def test_zero_impeded_all_planners_tie(self, rng):
        for _ in range(10):
            inst = random_connected_instance(rng, impeded_frac=0.0)
            real = Realization(inst, {})
            outs = run_all_planners(inst, real)
            costs = {o.arrival_time for o in outs.values()}
            assert len(costs) == 1
            static = sim.lower_bound(inst, real)
            assert costs == {static}
            assert all(not any(e.kind == "reveal" for e in o.events) for o in outs.values())

    def test_randomized_runs_respect_lower_bound_and_replay(self, rng):
        for trial in range(120):
            inst = random_connected_instance(rng, n_min=5, n_max=14)
            real = sample_realization(inst, rng)
            planner = ("rpp", "paa", "naive")[trial % 3]
            out = sim.run(inst, real, SimulationConfig(planner=planner, k=1 + trial % 3))
            assert out.arrival_time >= out.lower_bound - 1e-9
            final = oracles.replay_ugv_arrivals(inst, real, out.events)
            assert final == pytest.approx(out.arrival_time, abs=1e-9)
            times = [e.time for e in out.events]
            assert times == sorted(times)
            revealed = [e.data[0] for e in out.events if e.kind == "reveal"]
            assert len(revealed) == len(set(revealed))

    def test_fixed_seed_is_deterministic(self, rng):
        for _ in range(5):
            inst = random_connected_instance(rng, n_min=6, n_max=12)
            real = sample_realization(inst, rng)
            cfg = SimulationConfig(planner="rpp", k=3)
            a = sim.run(inst, real, cfg)
            b = sim.run(inst, real, cfg)
            assert a.events == b.events
            assert a.arrival_time == b.arrival_time

    def test_budget_hit_missions_are_deterministic(self, monkeypatch):
        monkeypatch.setattr(rpp, "DFS_NODE_BUDGET", 200)
        spec = bench.BridgeSpec(n_paths=4, chain_len=8, impeded_per_path=0.5)
        inst, real = bench.generate_bridge(spec, 7)
        cfg = SimulationConfig(planner="rpp", k=3)
        a = sim.run(inst, real, cfg)
        b = sim.run(inst, real, cfg)
        assert a.budget_hits > 0
        assert a.event_log_text() == b.event_log_text()
        assert [r.trigger for r in a.replans] == [r.trigger for r in b.replans]

    def test_knowledge_grows_monotonically(self, rng):
        inst = random_connected_instance(rng, n_min=8, n_max=12, impeded_frac=0.6)
        real = sample_realization(inst, rng)
        out = sim.run(inst, real, SimulationConfig(planner="rpp", k=3))
        seen = set()
        for e in out.events:
            if e.kind == "reveal":
                assert e.data[0] not in seen
                seen.add(e.data[0])

    def test_start_equals_destination(self):
        coords = [(0.0, 0.0), (1.0, 0.0)]
        inst = build_instance(coords, [(0, 1, 1.0)], p=0, q=0, d=0)
        real = Realization(inst, {})
        out = sim.run(inst, real, SimulationConfig(planner="rpp"))
        assert out.arrival_time == 0.0


class TestEventLogFormat:
    def test_log_lines(self):
        inst, real = bench.demo_instance()
        out = sim.run(inst, real, SimulationConfig(planner="rpp", k=2))
        text = out.event_log_text()
        lines = text.strip().splitlines()
        assert lines[0].startswith("t=")
        assert any(" reveal edge=" in ln and " by=uav" in ln for ln in lines)
        assert any(" ugv_arrives v=3" in ln for ln in lines)
