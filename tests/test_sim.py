import copy
import math
import random
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    build_instance,
    drained_state,
    line_instance,
    random_connected_instance,
    with_aerial_only_edges,
)
from scoutplan import bench, core, dstar, kspp, rpp, sim
from scoutplan.cli import main
from scoutplan.core import (
    INF,
    NoPathError,
    PlanningCostView,
    ProblemInstance,
    Realization,
    UavMetric,
    UniformCost,
    descend,
    dijkstra,
    sample_realization,
    save_instance,
    save_realization,
)
from scoutplan.sim import SimulationConfig


def run_all_planners(inst, real, k=2):
    outs = {}
    for planner in ("rpp", "paa", "naive"):
        outs[planner] = sim.run(inst, real, SimulationConfig(planner=planner, k=k))
    return outs


@st.composite
def _integer_missions(draw):
    """A connected instance on integer points and one realization.  Edges
    run exactly as long as the straight line, a hair shorter or longer, and
    true costs sit anywhere in their window, the realization check's
    tolerance included, so distances often tie or differ by an ulp where the early
    stop looks.  The scout starts anywhere, and either flies freely or over
    the edges, some of them aerial-only and some slower than the straight
    line, so its transits take several hops."""
    n = draw(st.integers(2, 12))
    points = st.tuples(st.integers(0, 6), st.integers(0, 6))
    coords = [(float(x), float(y)) for x, y in draw(st.lists(points, min_size=n, max_size=n, unique=True))]
    pairs = {(i, i + 1) for i in range(n - 1)}
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for a, b in draw(st.lists(ends, max_size=2 * n)):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    specs, windows = [], []
    for u, v in sorted(pairs):
        lo = math.dist(coords[u], coords[v]) + draw(st.sampled_from([-0.9e-9, 0.0, 0.0, 1.0, 2.5]))
        if draw(st.booleans()):
            hi = lo + draw(st.sampled_from([0.0, 1.0, 7.5]))
            specs.append((u, v, (lo, hi)))
            windows.append((lo, hi))
        else:
            specs.append((u, v, lo))
    for a, b in draw(st.lists(ends, max_size=n)):
        pair = (min(a, b), max(a, b))
        if a != b and pair not in pairs:
            pairs.add(pair)
            specs.append((*pair, None))  # aerial-only
    # Aerial cost: the straight-line time at build_instance's speed of 2, or three times it.
    specs = [(u, v, cost, math.dist(coords[u], coords[v]) / 2.0 * draw(st.sampled_from([1.0, 1.0, 3.0])))
             for u, v, cost in specs]
    inst = build_instance(coords, specs, p=0, q=draw(st.integers(0, n - 1)), d=draw(st.integers(0, n - 1)),
                          free_flight=draw(st.booleans()))
    true = {}
    for eid, (lo, hi) in zip(sorted(inst.impeded_ids), windows):
        true[eid] = draw(st.sampled_from([lo - 1e-9, lo, (lo + hi) / 2, hi, hi + 1e-9]))
    return inst, Realization(inst, true)


@st.composite
def _connected_missions(draw, free_flight=True):
    """A ``random_connected_instance`` (real coordinates, a scout start
    anywhere, free flight unless told otherwise, up to 60% of the edges
    impeded) and a realization sampled from its windows."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    inst = random_connected_instance(
        rng, n_min=5, n_max=14, impeded_frac=draw(st.sampled_from([0.3, 0.6])), free_flight=free_flight
    )
    return inst, sample_realization(inst, rng)


def _missions():
    """Missions from either family."""
    return st.one_of(_integer_missions(), _connected_missions())


def _recorded(module, call):
    """call()'s value and the results of the ``dijkstra`` runs it made
    through ``module``, each with a copy of its distance list as the run
    returned it: a caller may write the list back afterwards."""
    results = []

    def recording(*args, **kwargs):
        dist, parent, settled = dijkstra(*args, **kwargs)
        results.append((dist.copy(), parent, settled))
        return dist, parent, settled

    with mock.patch.object(module, "dijkstra", recording):
        return call(), results


def _check_early_stop(full, got, settled, candidates, target):
    """A search given a target stops at the first popped distance above
    the target's: of the candidates, it settles exactly those reachable
    and no farther than the target, each at the full search's distance,
    bit for bit."""
    near = [v for v in candidates if full[v] <= full[target] and full[v] < INF]
    assert settled == len(near)
    assert [got[v] for v in near] == [full[v] for v in near]


class TestLowerBound:
    def test_early_stop_covers_edges_below_the_straight_line(self):
        # True costs may undercut the straight line by 2 * _EPS per edge.
        # The shortest route runs along the chain 0-1-...-6, whose edges
        # after the first undercut it by that much.  The longer route 0-7-6
        # reaches the destination first, less than 1e-8 above the chain, so
        # the search must not stop there.
        coords = [(i / 6, 0.0) for i in range(7)] + [(0.5, 1e-6)]
        pairs = [(i, i + 1) for i in range(6)] + [(0, 7), (6, 7)]
        lows = [math.dist(coords[u], coords[v]) - 0.99e-9 for u, v in pairs]
        inst = build_instance(coords, [(u, v, (lo, lo + 1.0)) for (u, v), lo in zip(pairs, lows)],
                              p=0, d=6)
        true = {eid: lo - 0.99e-9 for eid, lo in enumerate(lows)}
        true[0] = lows[0]
        true[7] = (1.0 - 3.5e-9) - true[6]
        real = Realization(inst, true)
        chain = sum(true[eid] for eid in range(6))
        assert chain < true[6] + true[7] < chain + 1e-8
        cost = [real.true_cost[e.id] for e in inst.edges]
        assert sim.lower_bound(inst, real) == dijkstra(inst.adj, 0, cost)[0][6]

    @settings(max_examples=300, deadline=None)
    @given(mission=_missions())
    def test_early_stop_equals_full_search(self, mission):
        inst, real = mission
        cost = PlanningCostView(inst).costs
        for eid in inst.impeded_ids:
            cost[eid] = real.true_cost[eid]
        full, _, n = dijkstra(inst.adj, inst.p, cost)
        assert n == inst.n_vertices
        bound, [(got, _, settled)] = _recorded(sim, lambda: sim.lower_bound(inst, real))
        assert bound == full[inst.d]
        _check_early_stop(full, got, settled, range(inst.n_vertices), inst.d)
        walk = descend(inst.adj, full, cost, inst.d, inst.p)
        assert descend(inst.adj, got, cost, inst.d, inst.p) == walk
        assert [got[v] for v in walk[0]] == [full[v] for v in walk[0]]

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
            for eid in oracles.ugv_edges(inst):
                rec = inst.edges[eid]
                costs[eid] = real.true_cost[eid] if rec.impeded else rec.ugv_cost
            dist = oracles.dijkstra_to_dest(inst, costs, inst.d)
            assert sim.lower_bound(inst, real) == pytest.approx(dist[inst.p], rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(mission=_missions(), data=st.data())
def test_spur_search_early_stop_equals_full_search(mission, data):
    # The seeded search of a spur: only yellow vertices are candidates, and
    # the full search runs from the destination with the hidden edges cut.
    inst, real = mission
    view = PlanningCostView(inst)
    for eid in sorted(inst.impeded_ids):
        if data.draw(st.booleans(), label="reveal"):
            view.reveal(eid, real.costs[eid])
    tree = kspp.ReverseTree(view, drained_state(inst, view))
    edges = sorted(oracles.ugv_edges(inst))
    tree.hide(data.draw(st.lists(st.sampled_from(edges), max_size=len(edges)), label="hidden"))
    spur = data.draw(st.integers(0, inst.n_vertices - 1), label="spur")
    full = dijkstra(inst.adj, inst.d, tree.cost)[0]
    (path, settled), [(got, _, _)] = _recorded(kspp, lambda: kspp.spur_search(tree, spur, INF))
    _check_early_stop(full, got, settled, tree.marked, spur)
    assert path == descend(inst.adj, full, tree.cost, spur, inst.d)
    if path is not None:
        assert [got[v] for v in path[0]] == [full[v] for v in path[0]]


def test_edge_below_the_straight_line_builds_quietly_and_plans_exactly(rng):
    # No search assumes an edge is at least as long as the straight line
    # between its ends: halving the longest one warns of nothing, and the
    # lower bound and the k paths still match the oracles.
    for _ in range(20):
        base = random_connected_instance(rng, n_min=6, n_max=14)
        line = [math.dist(base.vertices[e.u], base.vertices[e.v]) for e in base.edges]
        longest = max(oracles.ugv_edges(base), key=line.__getitem__)
        edges = list(base.edges)
        e = edges[longest]
        if e.impeded:
            edges[longest] = replace(e, distribution=UniformCost(e.distribution.t_min / 2, e.distribution.t_max / 2))
        else:
            edges[longest] = replace(e, ugv_cost=e.ugv_cost / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inst = ProblemInstance(base.vertices, edges, base.p, base.q, base.d, uav_free_flight=True)
        view = PlanningCostView(inst)
        assert view.costs[longest] < line[longest]
        real = sample_realization(inst, rng)
        costs = {eid: real.true_cost[eid] if inst.edges[eid].impeded else inst.edges[eid].ugv_cost
                 for eid in oracles.ugv_edges(inst)}
        dist = oracles.dijkstra_to_dest(inst, costs, inst.d)
        assert sim.lower_bound(inst, real) == pytest.approx(dist[inst.p], rel=1e-12)
        pset = kspp.update_k_paths(inst, view, dstar.initialize(inst), inst.p, [], 4)
        yen = oracles.yen_k_paths(inst, oracles.view_costs(inst, view), inst.p, inst.d, 4)
        assert [p.vertices for p in pset.paths] == yen


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_aerial_only_edges_never_change_a_free_flight_mission(seed):
    # The scout flies straight lines, and aerial-only edges are INF to every
    # ground search, so adding them leaves each mission as it was.
    rng = random.Random(seed)
    # Six or more vertices leave at least one pair unjoined.
    inst = random_connected_instance(rng, n_min=6)
    real = sample_realization(inst, rng)
    ext = with_aerial_only_edges(inst, rng)
    ext_real = Realization(ext, real.true_cost)
    assert len(ext.edges) > len(inst.edges)
    g = dstar.initialize(ext).g
    assert g == oracles.dijkstra_to_dest(ext, oracles.prior_costs(ext), ext.d)
    for planner in sim.PLANNERS:
        for k in range(1, 5):
            cfg = SimulationConfig(planner=planner, k=k)
            want, got = sim.run(inst, real, cfg), sim.run(ext, ext_real, cfg)
            assert got.event_log_text() == want.event_log_text()
            assert got.lower_bound == want.lower_bound
            assert _work(got) == _work(want)


def _configs():
    return st.builds(SimulationConfig, planner=st.sampled_from(sorted(sim.PLANNERS)), k=st.integers(1, 4))


def _work(out):
    """A run's D* expansions and spur-search counts."""
    totals = bench.run_totals(out)
    return {name: n for name, n in totals.items() if name == "dstar_expansions" or name.startswith("spur_")}


def _outputs(out):
    return (out.event_log_text(), out.arrival_time, out.lower_bound, _work(out), bench.run_totals(out)["dfs_nodes"])


class TestOneSearchPerInput:
    """Missions on one instance share its prior distance field, and missions
    on one realization its lower bound."""

    @settings(max_examples=150, deadline=None)
    @given(mission=st.one_of(_missions(), _connected_missions(free_flight=False)),
           first=_configs(), then=_configs())
    def test_order_does_not_matter(self, mission, first, then):
        # A mission run after another on the same objects is the mission on
        # fresh ones, and the stored field is still a fresh search's.
        inst, real = mission
        fresh_inst, fresh_real = copy.deepcopy(mission)
        sim.run(inst, real, first)
        assert _outputs(sim.run(inst, real, then)) == _outputs(sim.run(fresh_inst, fresh_real, then))
        assert inst.prior_distances().tolist() == dijkstra(inst.adj, inst.d, inst.prior_costs)[0]

    def test_a_second_lower_bound_searches_nothing(self):
        inst, real = bench.demo_instance()
        first, runs = _recorded(sim, lambda: sim.lower_bound(inst, real))
        assert len(runs) == 1
        again, runs = _recorded(sim, lambda: sim.lower_bound(inst, real))
        assert runs == [] and again is first

    def test_an_unreachable_destination_raises_every_time(self):
        inst = line_instance()
        real = Realization(inst, {})
        real.costs = (INF,) * len(inst.edges)  # no loaded realization is unreachable
        for _ in range(2):
            with mock.patch.object(sim, "dijkstra", mock.Mock(wraps=dijkstra)) as search:
                with pytest.raises(NoPathError, match="destination unreachable"):
                    sim.lower_bound(inst, real)
            assert search.call_count == 1
        assert real.lower_bound is None

    def test_initialize_after_a_mission_searches_nothing(self):
        inst, real = bench.demo_instance()
        _, runs = _recorded(core, lambda: dstar.initialize(inst))
        assert len(runs) == 1
        sim.run(inst, real, SimulationConfig(planner="rpp", k=2))
        state, runs = _recorded(core, lambda: dstar.initialize(inst))
        assert runs == [] and state.expansions == 0 and not state.queue._live
        assert state.g == state.rhs == dijkstra(inst.adj, inst.d, inst.prior_costs)[0]

    @staticmethod
    def _check_one_repair_per_update(inst, real, cfg):
        # D* repairs only through replan: one compute_shortest_path call per
        # k-path update, i.e. per replan that a cancel did not trigger.
        wrapped = mock.Mock(wraps=dstar.compute_shortest_path)
        with mock.patch.object(dstar, "compute_shortest_path", wrapped):
            out = sim.run(inst, real, cfg)
        updates = sum(not r.trigger.startswith("cancel:") for r in out.replans)
        assert wrapped.call_count == updates > 0
        return out

    @settings(max_examples=60, deadline=None)
    @given(mission=_missions(), cfg=_configs())
    def test_a_mission_repairs_once_per_k_path_update(self, mission, cfg):
        self._check_one_repair_per_update(*mission, cfg)

    def test_a_cancel_repairs_nothing(self):
        # The scout is too far to inspect edge 1 before the vehicle enters it.
        coords = [(0.0, 0.0), (2.0, 0.0), (12.0, 0.0), (500.0, 5.0)]
        inst = build_instance(coords, [(0, 1, 2.0), (1, 2, (10.0, 30.0)), (2, 3, 490.0)], p=0, q=3, d=2)
        out = self._check_one_repair_per_update(
            inst, Realization(inst, {1: 12.0}), SimulationConfig(planner="paa", k=2))
        assert any(r.trigger.startswith("cancel:") for r in out.replans)


# What perfbench's tracer counts over the kpaths-adversarial seed-0 list.
TRACER_COUNTS = {
    "dstar.expansions.rank1": 3_577,
    "dstar.update_vertex.calls": 4_159,
    "dstar.heap_ops": 7_258,
    "core.UavMetric.cost.calls": 5_206,
    "core.UavMetric.path.calls": 407,
}

# The bench.run_totals work counters of each seed-0 list, summed over its
# runs.  An event log can hold while a counter moves: a tie bound one
# least arc short keeps every tour but enters more DFS nodes.
RUN_TOTALS = {
    "kpaths-adversarial": {
        "n_replans": 198, "budget_hits": 0, "critical_edges": 415, "dfs_nodes": 3_567,
        "dstar_expansions": 3_577, "late_inspections": 0, "spur_searches": 2_409,
        "spur_isolated": 10_369, "spur_nopath": 503, "spur_settled": 10_811, "spur_pruned": 1_024,
    },
    "kpaths-scaling": {
        "n_replans": 99, "budget_hits": 0, "critical_edges": 126, "dfs_nodes": 0,
        "dstar_expansions": 20_411, "late_inspections": 0, "spur_searches": 1_865,
        "spur_isolated": 3_040, "spur_nopath": 780, "spur_settled": 4_964, "spur_pruned": 3_161,
    },
}


class TestCriticalEdges:
    @pytest.mark.parametrize("name", ["kpaths-adversarial", "kpaths-scaling"])
    def test_equals_the_tracers_count(self, monkeypatch, name):
        # perfbench's tracer counts the critical edges each extraction returns
        # and, on the paa list, those handed to select_edge as its first
        # argument.  The rpp run also pins the calls it counts in the hot
        # loops: a repair or tour build that went round a counted call would
        # read lower.  Both runs pin their summed work counters.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        from tracer import Tracer
        from workloads import WORKLOADS

        workload = WORKLOADS[name]
        tracer = Tracer()
        tracer.install()
        try:
            outs = [sim.run(inst, real, workload.config()) for inst, real in workload.instances(0)]
        finally:
            tracer.uninstall()
        totals = tracer.totals()
        summed = {key: sum(bench.run_totals(o)[key] for o in outs) for key in RUN_TOTALS[name]}
        assert summed == RUN_TOTALS[name]
        critical = summed["critical_edges"]
        assert critical == totals["rpp.critical_edges"] > 0
        if workload.config().planner == "paa":
            assert totals["paa.scored_edges"] == critical
        else:
            assert {key: totals[key] for key in TRACER_COUNTS} == TRACER_COUNTS


class TestWalkthroughScenario:
    def test_without_scout_arrival_24(self):
        inst, real = bench.demo_instance()
        out = sim.run(inst, real, SimulationConfig(planner="none"))
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


class TestPlannerContract:
    def test_every_planner_returns_its_inspection_list(self):
        # Each sim.PLANNERS entry hands the engine a list of (edge id, start
        # vertex) pairs over the critical edges it was given: the tour's
        # visits, paa's or naive's single pick, or none.  The engine fields
        # below are all that the planners read.
        picked = dict.fromkeys(sim.PLANNERS, 0)
        for i in range(6):
            inst, _, _ = bench.make_instance(bench.BridgeSpec(n_paths=4, chain_len=8), f"0:{i}")
            view = PlanningCostView(inst)
            pset = kspp.update_k_paths(inst, view, dstar.initialize(inst), inst.p, [], 3)
            eng = SimpleNamespace(metric=UavMetric(inst), view=view, pset=pset, cfg=SimulationConfig(k=3))
            critical = rpp.extract_critical_edges(pset, view, inst)
            for name, plan in sim.PLANNERS.items():
                got = plan(eng, critical, inst.q, 0.0, sim.ReplanRecord("init"))
                assert type(got) is list
                assert len({eid for eid, _ in got}) == len(got) <= (len(critical) if name == "rpp" else 1)
                for eid, start in got:
                    assert eid in critical and start in (inst.edges[eid].u, inst.edges[eid].v)
                picked[name] += len(got)
            naive = sim.naive_step(eng.metric, critical, pset, inst.q, 0.0)
            assert naive == sim.PLANNERS["naive"](eng, critical, inst.q, 0.0, sim.ReplanRecord("init"))
            assert sim.naive_step(eng.metric, {}, pset, inst.q, 0.0) == []
        assert picked["none"] == 0
        assert all(picked[name] for name in ("rpp", "paa", "naive")), picked


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

    def test_late_inspection_counted_and_commitment_honored(self, tmp_path, capsys):
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
        # simulate prints the count among the run's totals, on the line after
        # dstar_expansions.
        save_instance(inst, str(tmp_path / "i.txt"))
        save_realization(real, str(tmp_path / "r.txt"))
        capsys.readouterr()
        assert main(["simulate", "--instance", str(tmp_path / "i.txt"), "--realization",
                     str(tmp_path / "r.txt"), "--planner", "paa", "--k", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        totals = bench.run_totals(out)
        assert f"n_replans {len(out.replans)}" in lines
        i = lines.index("late_inspections 1")
        assert lines[i - 1] == f"dstar_expansions {totals['dstar_expansions']}"

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

    @settings(max_examples=300, deadline=None)
    @given(mission=_missions(), planner=st.sampled_from(sorted(sim.PLANNERS)), k=st.integers(1, 4))
    def test_mission_properties(self, mission, planner, k):
        inst, real = mission
        out = sim.run(inst, real, SimulationConfig(planner=planner, k=k))
        assert out.arrival_time >= out.lower_bound * (1.0 - 1e-9)
        assert oracles.replay_ugv_arrivals(inst, real, out.events) == out.arrival_time
        times = [e.time for e in out.events]
        assert times == sorted(times)
        reveals = [e.data for e in out.events if e.kind == "reveal"]
        assert len({eid for eid, _, _ in reveals}) == len(reveals)
        for eid, cost, _ in reveals:
            assert eid in inst.impeded_ids and cost == real.true_cost[eid]

    def test_fixed_seed_is_deterministic(self, rng):
        for _ in range(5):
            inst = random_connected_instance(rng, n_min=6, n_max=12)
            real = sample_realization(inst, rng)
            cfg = SimulationConfig(planner="rpp", k=3)
            a = sim.run(inst, real, cfg)
            b = sim.run(inst, real, cfg)
            assert a.events == b.events
            assert a.arrival_time == b.arrival_time
            assert [r.spur for r in a.replans] == [r.spur for r in b.replans]

    def test_planner_none_never_flies_the_scout(self, rng):
        for _ in range(10):
            inst = random_connected_instance(rng, n_min=6, n_max=12)
            real = sample_realization(inst, rng)
            out = sim.run(inst, real, SimulationConfig(planner="none", k=4))
            assert {e.kind for e in out.events} <= {"reveal", "ugv_arrives"}
            assert all(e.data[2] == "ugv" for e in out.events if e.kind == "reveal")
            assert out.late_inspections == 0

    def test_spur_counts_sum_over_replans(self):
        inst, real = bench.generate_bridge(bench.BridgeSpec(adversarial=True), seed=3)
        out = sim.run(inst, real, SimulationConfig(planner="rpp", k=4))
        totals = bench.run_totals(out)
        assert totals["spur_searches"] == sum(r.spur.searches for r in out.replans) > 0
        assert totals["spur_isolated"] == sum(r.spur.isolated for r in out.replans) > 0
        assert totals["spur_nopath"] == sum(r.spur.nopath for r in out.replans)
        assert totals["spur_settled"] == sum(r.spur.settled for r in out.replans)
        assert totals["spur_pruned"] == sum(r.spur.pruned for r in out.replans)
        one = bench.run_totals(sim.run(inst, real, SimulationConfig(planner="rpp", k=1)))
        assert [one[f"spur_{name}"] for name in kspp.SpurCounts._fields] == list(kspp.SpurCounts())

    def test_stopped_repairs_keep_the_event_logs(self, monkeypatch):
        # The tour-dense shape: at k = 1 the rank-1 repair stops at the
        # vehicle, and each log is what a draining repair gives, for less work.
        spec = bench.BridgeSpec(impeded_per_path=0.5, bridge_fraction=0.2)
        missions = [bench.generate_bridge(spec, seed) for seed in range(20)]
        cfg = SimulationConfig(planner="rpp", k=1)
        stopped = [sim.run(inst, real, cfg) for inst, real in missions]
        drain = dstar.compute_shortest_path
        monkeypatch.setattr(dstar, "compute_shortest_path", lambda state, view, stop=None: drain(state, view))
        drained = [sim.run(inst, real, cfg) for inst, real in missions]
        assert [o.event_log_text() for o in stopped] == [o.event_log_text() for o in drained]
        expansions = [sum(bench.run_totals(o)["dstar_expansions"] for o in outs) for outs in (stopped, drained)]
        assert 0 < expansions[0] < expansions[1]

    def test_budget_hit_missions_are_deterministic(self, monkeypatch):
        # The first search of this mission enters 145 nodes, so 100 binds.
        monkeypatch.setattr(rpp, "DFS_NODE_BUDGET", 100)
        spec = bench.BridgeSpec(n_paths=4, chain_len=8, impeded_per_path=0.5)
        inst, real = bench.generate_bridge(spec, 7)
        cfg = SimulationConfig(planner="rpp", k=3)
        a = sim.run(inst, real, cfg)
        b = sim.run(inst, real, cfg)
        assert a.budget_hits > 0
        assert a.event_log_text() == b.event_log_text()
        assert [r.trigger for r in a.replans] == [r.trigger for r in b.replans]

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
