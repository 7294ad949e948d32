import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    drained_state,
    edge_between,
    line_instance,
    random_connected_instance,
)
from scoutplan import bench, core, dstar
from scoutplan.core import INF, NoPathError, PlanningCostView, descend, dijkstra
from scoutplan.dstar import AddressableHeap


class TestAddressableHeap:
    def test_orders_keys_then_vertex(self):
        h = AddressableHeap()
        h.insert(5, 1.0)
        h.insert(3, 1.0)
        h.insert(9, 0.5)
        assert oracles.queue_top(h) == 9
        h.remove(9)
        assert oracles.queue_top(h) == 3  # same key, lower id first

    def test_update_and_remove(self):
        h = AddressableHeap()
        for v in range(20):
            h.insert(v, float(v))
        h.update(19, -1.0)
        assert oracles.queue_top(h) == 19
        h.update(19, 50.0)
        assert oracles.queue_top(h) == 0
        h.remove(0)
        assert oracles.queue_top(h) == 1
        assert 0 not in h and 19 in h

    def test_random_against_sorting(self):
        rng = random.Random(5)
        h = AddressableHeap()
        live = {}
        for step in range(3000):
            op = rng.random()
            if op < 0.4 or not live:
                v = rng.randrange(500)
                key = float(rng.randint(0, 50))  # many ties
                if v in live:
                    h.update(v, key)
                else:
                    h.insert(v, key)
                live[v] = key
            elif op < 0.5:
                v = rng.choice(list(live))
                h.update(v, live[v])  # same key: a second entry for v
            elif op < 0.6:
                v = rng.choice(list(live))
                h.remove(v)
                h.insert(v, live[v])  # the removed entry's key comes back
            elif op < 0.8:
                v = rng.choice(list(live))
                h.remove(v)
                del live[v]
            else:
                want = min(live.items(), key=lambda kv: (kv[1], kv[0]))
                assert oracles.queue_top(h) == want[0]
            assert len(h._live) == len(live)


class TestInitialize:
    def test_postconditions(self):
        # The state is the prior distance field, a plain Dijkstra: drained.
        inst, _ = bench.generate_grid(bench.GridSpec(rows=4, cols=5), seed=2)
        state = dstar.initialize(inst)
        assert state.inst is inst
        assert state.g[inst.d] == state.rhs[inst.d] == 0.0
        assert not state.queue._live
        assert state.expansions == 0
        assert state.g == dijkstra(inst.adj, inst.d, inst.prior_costs)[0]
        assert state.rhs == state.g and state.rhs is not state.g

    @settings(max_examples=80, deadline=None)
    @given(rng=st.randoms(use_true_random=False), data=st.data())
    def test_drained_state_is_dijkstra(self, rng, data):
        # Views with revealed, raised and INF-priced edges, repaired from the
        # prior state and drained: g and rhs are a full search's distances
        # list for list, nothing is queued, and the next repair expands
        # nothing.
        inst = random_connected_instance(rng, n_min=4, n_max=14)
        view = PlanningCostView(inst)
        edges = sorted(oracles.ugv_edges(inst))
        for eid in data.draw(st.lists(st.sampled_from(edges), max_size=len(edges)), label="changed"):
            view.costs[eid] = data.draw(st.sampled_from((INF, 0.5, 2.0, 7.0)), label="cost")
        state = drained_state(inst, view)
        dist = dijkstra(inst.adj, inst.d, view.costs)[0]
        assert state.g == dist and state.rhs == dist
        assert not state.queue._live and oracles.queue_consistent(state)
        assert all(state.rhs[v] == core.lookahead(inst.adj, view.costs, state.g, v)
                   for v in range(inst.n_vertices) if v != inst.d)
        if dist[inst.p] < INF:
            path = dstar.replan(state, view, inst.p, [])
            assert state.expansions == 0 and path.cost == view.path_cost(path.edges)

    def test_state_holds_no_start_vertex(self):
        # The state holds no start: a repair is told where to stop, if
        # anywhere, and by default drains the queue.
        assert list(inspect.signature(dstar.initialize).parameters) == ["inst"]
        params = inspect.signature(dstar.compute_shortest_path).parameters
        assert list(params) == ["state", "view", "stop"] and params["stop"].default is None
        params = inspect.signature(dstar.replan).parameters
        assert "v_curr" in params and params["drain"].default is True
        inst = line_instance((1.0, 1.0))
        view = PlanningCostView(inst)
        state = dstar.initialize(inst)
        assert not hasattr(state, "v_curr")
        # Raise the far edge: stopped at vertex 1 the repair leaves vertex 0
        # queued, the default drains it.
        eid = edge_between(inst, 0, 1)
        view.costs[eid] = 5.0
        dstar.rhs_update(state, view, eid)
        dstar.compute_shortest_path(state, view, 1)
        assert 0 in state.queue and oracles.queue_consistent(state)
        dstar.compute_shortest_path(state, view)
        assert not state.queue._live and state.g == dijkstra(inst.adj, inst.d, view.costs)[0]

    def test_start_equals_dest(self):
        inst = line_instance()
        view = PlanningCostView(inst)
        state = dstar.initialize(inst)
        path = dstar.replan(state, view, 2, [])
        assert state.g[2] == 0.0
        assert path.vertices == (2,)
        assert path.cost == 0.0

    def test_grid_matches_dijkstra(self):
        inst, _ = bench.generate_grid(bench.GridSpec(), seed=4)
        view = PlanningCostView(inst)
        state = dstar.initialize(inst)
        path = dstar.replan(state, view, inst.p, [])
        costs = oracles.view_costs(inst, view)
        dist = oracles.dijkstra_to_dest(inst, costs, inst.d)
        assert state.g[inst.p] == pytest.approx(dist[inst.p], rel=1e-9)
        assert path.cost == pytest.approx(dist[inst.p], rel=1e-9)


class TestUpdateVertex:
    def setup_state(self):
        inst = line_instance((2.0, 3.0))
        view = PlanningCostView(inst)
        state = dstar.initialize(inst)
        return inst, view, state

    def test_consistent_unqueued_noop(self):
        _, _, state = self.setup_state()
        dstar.update_vertex(state, 0)
        assert 0 not in state.queue

    def test_inconsistent_inserted(self):
        _, _, state = self.setup_state()
        assert state.g[1] == 3.0
        state.rhs[1] = 4.0
        dstar.update_vertex(state, 1)
        assert 1 in state.queue
        assert oracles.queue_top(state.queue) == 1

    def test_consistent_queued_removed(self):
        _, _, state = self.setup_state()
        state.rhs[1] = 4.0
        dstar.update_vertex(state, 1)
        state.g[1] = 4.0  # now g == rhs == 4
        dstar.update_vertex(state, 1)
        assert 1 not in state.queue


class TestRhsUpdate:
    def test_decrease_off_every_shortest_path_is_noop(self):
        # The state starts drained: a decrease that leaves both endpoints'
        # lookaheads where they were changes no rhs and queues nothing.
        inst, _ = bench.generate_grid(bench.GridSpec(rows=3, cols=4), seed=1)
        view = PlanningCostView(inst)
        state = dstar.initialize(inst)
        eid = next(e for e in sorted(oracles.ugv_edges(inst))
                   if abs(state.g[inst.edges[e].u] - state.g[inst.edges[e].v]) < view.costs[e] - 1.0)
        view.costs[eid] -= 1.0
        before_rhs = state.rhs.copy()
        dstar.rhs_update(state, view, eid)
        assert state.rhs == before_rhs
        assert not state.queue._live

    def test_increase_on_line_matches_oracle(self):
        inst = line_instance((1.0, 1.0))
        view = PlanningCostView(inst)
        state = dstar.initialize(inst)
        dstar.replan(state, view, 0, [])
        assert state.g[0] == 2.0
        eid = edge_between(inst, 0, 1)
        view.costs[eid] = 5.0
        path = dstar.replan(state, view, 0, [eid])
        assert state.rhs[0] == 6.0
        assert path.cost == 6.0
        costs = oracles.view_costs(inst, view)
        dist = oracles.dijkstra_to_dest(inst, costs, 2)
        assert state.g[0] == dist[0]

    def test_same_cost_update_keeps_state(self):
        inst = line_instance((1.0, 1.0))
        view = PlanningCostView(inst)
        state = dstar.initialize(inst)
        dstar.replan(state, view, 0, [])
        g0, rhs0 = state.g.copy(), state.rhs.copy()
        eid = edge_between(inst, 0, 1)
        dstar.rhs_update(state, view, eid)
        assert state.g == g0 and state.rhs == rhs0


class TestComputeShortestPath:
    def test_second_run_expands_nothing(self):
        inst, _ = bench.generate_grid(bench.GridSpec(rows=5, cols=6), seed=9)
        view = PlanningCostView(inst)
        state = dstar.initialize(inst)
        dstar.replan(state, view, inst.p, [])
        before = state.expansions
        dstar.replan(state, view, inst.p, [])
        assert state.expansions == before

    def test_repairs_expand_less_than_the_initial_search(self):
        # The grid and reveal order of demos/incremental_replanning.py: each
        # repair re-expands only the vertices whose distance changed.
        inst, real = bench.generate_grid(bench.GridSpec(rows=10, cols=20, n_impeded_cuts=8), seed=7)
        view = PlanningCostView(inst)
        state = dstar.initialize(inst)
        path = dstar.replan(state, view, inst.p, [])
        assert state.expansions == 0  # the first search is core.dijkstra's
        initial = inst.n_vertices  # what it settles: every vertex
        rng = random.Random(0)
        hidden = sorted(inst.impeded_ids)
        rng.shuffle(hidden)
        steps = 0
        while hidden and path.vertices[0] != inst.d:
            eid = hidden.pop()
            view.reveal(eid, real.costs[eid])
            before = state.expansions
            path = dstar.replan(state, view, path.vertices[min(3, len(path.vertices) - 1)], [eid])
            assert state.expansions - before < initial
            steps += 1
        assert steps == 10

    def test_disconnected_reports_no_path(self):
        # Hide the only edges around the start to cut it off.
        inst = line_instance((1.0, 1.0))
        view = PlanningCostView(inst)
        state = dstar.initialize(inst)
        dstar.replan(state, view, 0, [])
        eid = edge_between(inst, 0, 1)
        view.costs[eid] = INF
        with pytest.raises(NoPathError):
            dstar.replan(state, view, 0, [eid])

    def test_queue_invariant_after_operations(self, rng):
        # Repairs alternate between stopping at the start, which carries
        # queue entries over to the next repair, and draining.
        inst = random_connected_instance(rng, n_min=8, n_max=14)
        view = PlanningCostView(inst)
        state = dstar.initialize(inst)
        assert oracles.queue_consistent(state)
        dstar.replan(state, view, inst.p, [], drain=False)
        assert oracles.queue_consistent(state)
        for i, eid in enumerate(sorted(inst.impeded_ids)):
            view.reveal(eid, inst.edges[eid].distribution.t_max)
            dstar.rhs_update(state, view, eid)
            assert oracles.queue_consistent(state)
            dstar.compute_shortest_path(state, view, inst.p if i % 2 == 0 else None)
            assert oracles.queue_consistent(state)

    def test_queue_consistent_reads_the_live_key(self):
        inst = line_instance((2.0, 3.0))
        state = dstar.initialize(inst)
        state.rhs[1] = 4.0
        dstar.update_vertex(state, 1)
        assert oracles.queue_consistent(state)
        state.queue.insert(1, 2.0)  # queued, but not under min(g, rhs) = 3
        assert not oracles.queue_consistent(state)


class TestReplanOracle:
    def run_batches(self, seed, rows, cols, batches=8):
        rng = random.Random(seed)
        inst, real = bench.generate_grid(
            bench.GridSpec(rows=rows, cols=cols, n_impeded_cuts=6), seed=seed
        )
        view = PlanningCostView(inst)
        state = dstar.initialize(inst)
        v_curr = inst.p
        path = dstar.replan(state, view, v_curr, [])
        unrevealed = sorted(inst.impeded_ids)
        rng.shuffle(unrevealed)
        for _ in range(batches):
            updates = []
            for _ in range(rng.randint(1, 2)):
                if unrevealed:
                    eid = unrevealed.pop()
                    view.reveal(eid, real.costs[eid])
                    updates.append(eid)
            if len(path.vertices) > 2:
                v_curr = path.vertices[rng.randint(1, len(path.vertices) - 2)]
            path = dstar.replan(state, view, v_curr, updates)
            costs = oracles.view_costs(inst, view)
            dist = oracles.dijkstra_to_dest(inst, costs, inst.d)
            assert state.g[v_curr] == pytest.approx(dist[v_curr], rel=1e-9)
            assert path.cost == pytest.approx(dist[v_curr], rel=1e-9)
            assert view.path_cost(path.edges) == pytest.approx(state.g[v_curr], rel=1e-9)
            assert len(set(path.vertices)) == len(path.vertices)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_grids_match_dijkstra(self, seed):
        rng = random.Random(seed + 1000)
        self.run_batches(seed, rows=rng.randint(3, 8), cols=rng.randint(4, 10))


class TestReplanStateful:
    """Random cost-change batches and a moving start against Dijkstra: the
    repaired g is a full search's distance everywhere, bit for bit, and the
    reverse tree read off it has a tight parent edge at every reachable
    vertex but the destination."""

    def new_cost(self, inst, view, eid, kind, factor):
        c = view.costs[eid]
        if kind == "inf":
            return INF
        if kind == "same":
            return c
        if c == INF:
            c = PlanningCostView(inst).costs[eid]
        if kind == "up":
            return c * (1.0 + 2.0 * factor)
        # Down, to as little as a hundredth: often below the straight line.
        return c * max(factor, 0.01)

    @settings(max_examples=80, deadline=None)
    @given(rng=st.randoms(use_true_random=False), data=st.data())
    def test_batches_and_moving_start_match_dijkstra(self, rng, data):
        inst = random_connected_instance(rng, n_min=5, n_max=12)
        edges = sorted(oracles.ugv_edges(inst))
        view = PlanningCostView(inst)
        state = dstar.initialize(inst)
        v_curr = inst.p
        path = dstar.replan(state, view, v_curr, [])
        for _ in range(data.draw(st.integers(1, 10), label="steps")):
            # About half of the changes hit the current path, where they matter.
            near = edges if path is None or not path.edges else path.edges
            change = st.tuples(
                st.sampled_from(edges) | st.sampled_from(near),
                st.sampled_from(("up", "down", "inf", "same")),
                st.floats(0.0, 1.0),
            )
            batch = data.draw(st.lists(change, max_size=4), label="batch")
            if batch and data.draw(st.booleans(), label="twice"):
                batch.append(data.draw(change.map(lambda c: (batch[0][0],) + c[1:])))
            for eid, kind, factor in batch:
                view.costs[eid] = self.new_cost(inst, view, eid, kind, factor)
            if path is not None:  # stay, or step to the next vertex
                v_curr = path.vertices[min(data.draw(st.integers(0, 1)), len(path.vertices) - 1)]
            changed = [eid for eid, _, _ in batch]
            dist = oracles.dijkstra_to_dest(inst, oracles.view_costs(inst, view), inst.d)
            if dist[v_curr] == INF:
                with pytest.raises(NoPathError):
                    dstar.replan(state, view, v_curr, changed)
                path = None
            else:
                path = dstar.replan(state, view, v_curr, changed)
                assert state.g[v_curr] == pytest.approx(dist[v_curr], rel=1e-9)
                assert path.cost == pytest.approx(dist[v_curr], rel=1e-9)
                assert path.vertices[0] == v_curr and path.vertices[-1] == inst.d
                assert len(set(path.vertices)) == len(path.vertices)
            assert oracles.queue_consistent(state)
            assert state.g == dijkstra(inst.adj, inst.d, view.costs)[0]
            parents = oracles.tree_parents(inst, oracles.view_costs(inst, view), state.g)
            for v, eid in enumerate(parents):
                assert (eid < 0) == (v == inst.d or state.g[v] == INF)


class TestStoppedRepair:
    """Repairs that stop at a moving vehicle, on costs from a few values so
    that distances and keys tie often, against a fresh Dijkstra bit for
    bit: the descent from the vehicle is a full search's, and so is every g
    no farther from the destination than the vehicle."""

    COSTS = (INF, 0.5, 1.0, 2.0, 7.0)

    @settings(max_examples=200, deadline=None)
    @given(rng=st.randoms(use_true_random=False), data=st.data())
    def test_stopped_repairs_match_dijkstra_up_to_the_vehicle(self, rng, data):
        inst = random_connected_instance(rng, n_min=4, n_max=14)
        adj, d = inst.adj, inst.d
        edges = sorted(oracles.ugv_edges(inst))
        cost = st.sampled_from(self.COSTS)
        view = PlanningCostView(inst)
        for eid in edges:
            view.costs[eid] = data.draw(cost, label="initial cost")
        state = drained_state(inst, view)
        for _ in range(data.draw(st.integers(1, 12), label="steps")):
            batch = data.draw(st.lists(st.tuples(st.sampled_from(edges), cost), max_size=4), label="batch")
            for eid, c in batch:
                view.costs[eid] = c
                dstar.rhs_update(state, view, eid)
            v_curr = data.draw(st.integers(0, inst.n_vertices - 1), label="v_curr")
            dstar.compute_shortest_path(state, view, v_curr)
            assert oracles.queue_consistent(state)
            dist = dijkstra(adj, d, view.costs)[0]
            assert descend(adj, state.g, view.costs, v_curr, d) == descend(adj, dist, view.costs, v_curr, d)
            assert [g for g, x in zip(state.g, dist) if x <= dist[v_curr]] == [
                x for x in dist if x <= dist[v_curr]]
        dstar.compute_shortest_path(state, view)
        assert not state.queue._live
        assert state.g == state.rhs == dijkstra(adj, d, view.costs)[0]
