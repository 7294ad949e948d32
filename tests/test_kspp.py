import heapq
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    build_instance,
    drained_state,
    edge_between,
    edge_walk,
    random_connected_instance,
    with_aerial_only_edges,
)
from scoutplan import bench, dstar, kspp
from scoutplan.core import INF, NoPathError, PlanningCostView


def diamond():
    coords = [(0.0, 0.0), (0.5, 0.3), (0.5, -0.3), (1.0, 0.0)]
    # p -> {a, b} -> d with side costs (1, 1) and (2, 2)
    return build_instance(
        coords, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 2.0), (2, 3, 2.0)], p=0, d=3
    )


def integer_grid(rng, rows, cols):
    """Unit-spaced grid with integer costs of 1 to 3 (1 is exactly the
    straight line), a fifth of them impeded with integer bounds, so many
    paths tie on cost."""
    coords = [(float(c), float(r)) for r in range(rows) for c in range(cols)]
    specs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            right = [v + 1] if c + 1 < cols else []
            down = [v + cols] if r + 1 < rows else []
            for w in right + down:
                lo = rng.randint(1, 3)
                cost = (lo, lo + rng.randint(1, 2)) if rng.random() < 0.2 else lo
                specs.append((v, w, cost))
    return build_instance(coords, specs, p=0, q=0, d=rows * cols - 1)


def straight_line_instance(rng, n, shrink_one=False):
    """Random integer points whose edges are exactly as long as the straight
    line; with ``shrink_one`` one edge is half as long."""
    coords = [(float(rng.randint(0, 8)), float(rng.randint(0, 8))) for _ in range(n)]
    while len(set(coords)) < n:
        coords = [(float(rng.randint(0, 8)), float(rng.randint(0, 8))) for _ in range(n)]
    pairs = {(i, i + 1) for i in range(n - 1)}
    for _ in range(2 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    specs = [(u, v, math.dist(coords[u], coords[v])) for u, v in sorted(pairs)]
    if shrink_one:
        u, v, cost = specs[0]
        specs[0] = (u, v, cost / 2)
    return build_instance(coords, specs, p=0, q=0, d=n - 1)


def subdivided(inst, rng, share=0.5):
    """The instance with about ``share`` of its ground edges each replaced by
    a chain of two or three edges through new vertices, so that many
    vertices have exactly two edges.  The chain's first edge keeps the
    edge's cost or window; the others get a fixed integer cost of 1 to 3."""
    coords, specs = list(inst.vertices), []
    for e in inst.edges:
        cost = (e.distribution.t_min, e.distribution.t_max) if e.impeded else e.ugv_cost
        if cost is None or rng.random() >= share:
            specs.append((e.u, e.v, cost, e.uav_cost))
            continue
        (x0, y0), (x1, y1) = coords[e.u], coords[e.v]
        pieces = rng.randint(2, 3)
        chain = [e.u] + [len(coords) + i for i in range(pieces - 1)] + [e.v]
        coords += [(x0 + (x1 - x0) * i / pieces, y0 + (y1 - y0) * i / pieces) for i in range(1, pieces)]
        specs += [(a, b, cost if a == e.u else rng.randint(1, 3)) for a, b in zip(chain, chain[1:])]
    return build_instance(coords, specs, p=inst.p, q=inst.q, d=inst.d,
                          uav_speed=inst.uav_speed, free_flight=inst.uav_free_flight)


def reverse_tree(inst, view):
    """The spur tree a k-path update builds: read off a drained D* state."""
    return kspp.ReverseTree(view, drained_state(inst, view))


def eager_parents(inst, view):
    """The spur tree's parent edges under the view, by the eager rule."""
    costs = oracles.view_costs(inst, view)
    return oracles.tree_parents(inst, costs, oracles.dijkstra_to_dest(inst, costs, inst.d))


def hidden_edges(tree):
    """The edges a tree has hidden: those it prices apart from the view."""
    return {e for e, c in enumerate(tree.cost) if c != tree.view_costs[e]}


def check_marks(tree, limit):
    """What a search with this limit reads of the marks: the marked vertices
    are exactly the yellow ones (``yellow_set`` under the eager parents) no
    farther than the limit."""
    inst = tree.inst
    costs = {eid: tree.view_costs[eid] for eid in oracles.ugv_edges(inst)}
    parents = oracles.tree_parents(inst, costs, oracles.dijkstra_to_dest(inst, costs, inst.d))
    yellow = yellow_set(inst, parents, hidden_edges(tree))[0]
    marked = set(tree.marked)
    assert len(marked) == len(tree.marked)
    assert marked == {v for v in yellow if tree.dist[v] <= limit}


def plan(inst, view, k, updates=None, state=None, v_curr=None):
    if state is None:
        state = dstar.initialize(inst)
    return (
        kspp.update_k_paths(inst, view, state, inst.p if v_curr is None else v_curr, updates or [], k),
        state,
    )


class TestBasics:
    def test_diamond_two_paths(self):
        inst = diamond()
        view = PlanningCostView(inst)
        pset, _ = plan(inst, view, 2)
        assert [p.vertices for p in pset.paths] == [(0, 1, 3), (0, 2, 3)]
        assert [p.cost for p in pset.paths] == [2.0, 4.0]

    def test_k_exceeding_simple_paths(self):
        inst = diamond()
        view = PlanningCostView(inst)
        pset, _ = plan(inst, view, 10)
        assert len(pset.paths) == 2

    def test_no_path_raises(self):
        inst = diamond()
        view = PlanningCostView(inst)
        state = dstar.initialize(inst)
        ups = []
        for a, b in ((0, 1), (0, 2)):
            eid = edge_between(inst, a, b)
            ups.append(eid)
            view.costs[eid] = INF
        with pytest.raises(NoPathError):
            kspp.update_k_paths(inst, view, state, inst.p, ups, 3)

    def test_costs_sorted_and_paths_simple(self, rng):
        for _ in range(30):
            inst = random_connected_instance(rng)
            view = PlanningCostView(inst)
            pset, _ = plan(inst, view, 4)
            costs = [p.cost for p in pset.paths]
            assert costs == sorted(costs)
            for p in pset.paths:
                assert p.vertices[0] == inst.p
                assert p.vertices[-1] == inst.d
                assert len(set(p.vertices)) == len(p.vertices)


class TestSuppression:
    """The tree hides what textbook Yen hides (``oracles.yen_hidden_edges``)
    and, once asked to mark, marks the subtrees below the hidden tree edges.
    On the diamond the tree runs 3-1-0 and 3-2, so only the edges 0-1 and
    1-3 are tree edges."""

    @staticmethod
    def hide(inst, tree, accepted, root):
        hidden = oracles.yen_hidden_edges(inst, accepted, root)
        tree.hide(hidden)
        assert hidden_edges(tree) == hidden
        tree.mark(INF)
        return {v for v in range(inst.n_vertices) if tree.yellow[v]}

    def test_single_vertex_root_removes_no_nodes(self):
        inst = diamond()
        tree = reverse_tree(inst, PlanningCostView(inst))
        # Only the continuation edge 0-1, no node-removal suppressions.
        assert oracles.yen_hidden_edges(inst, [(0, 1, 3)], (0,)) == {edge_between(inst, 0, 1)}
        assert self.hide(inst, tree, [(0, 1, 3)], (0,)) == {0}

    def test_shared_start_suppresses_one_edge_per_path(self):
        inst = diamond()
        tree = reverse_tree(inst, PlanningCostView(inst))
        accepted = [(0, 1, 3), (0, 2, 3)]
        assert oracles.yen_hidden_edges(inst, accepted, (0,)) == {
            edge_between(inst, 0, 1),
            edge_between(inst, 0, 2),
        }
        assert self.hide(inst, tree, accepted, (0,)) == {0}

    def test_interior_nodes_fully_suppressed(self):
        # Root interior {0}: both edges at vertex 0, plus continuation (1,3).
        # The set grows from the root (0,), as along the path 0-1-3.
        inst = diamond()
        tree = reverse_tree(inst, PlanningCostView(inst))
        assert oracles.yen_hidden_edges(inst, [(0, 1, 3)], (0, 1)) == {
            edge_between(inst, 0, 1),
            edge_between(inst, 0, 2),
            edge_between(inst, 1, 3),
        }
        self.hide(inst, tree, [(0, 1, 3)], (0,))
        assert self.hide(inst, tree, [(0, 1, 3)], (0, 1)) == {0, 1}
        assert sorted(tree.marked) == [0, 1]

    def test_restoration_is_exact(self, rng):
        # reset() restores the tree's costs to the view's and clears every
        # yellow mark, and a whole update leaves the view's costs unchanged.
        for _ in range(10):
            inst = random_connected_instance(rng)
            view = PlanningCostView(inst)
            before = view.costs.copy()
            tree = reverse_tree(inst, view)
            ugv_edges = sorted(oracles.ugv_edges(inst))
            for _ in range(3):
                for _ in range(3):
                    tree.hide(rng.sample(ugv_edges, rng.randint(1, len(ugv_edges))))
                tree.mark(INF)
                assert tree.marked
                tree.reset()
                assert tree.cost == view.costs
                assert not any(tree.yellow)
                assert tree.marked == []
            plan(inst, view, 4)
            assert view.costs == before

    def test_rising_mark_bound_is_refused(self):
        # Within a walk the limits only fall: marks past one are dropped for
        # good, so a larger bound before the next reset is an error.
        inst = diamond()
        tree = reverse_tree(inst, PlanningCostView(inst))
        tree.hide([edge_between(inst, 1, 3)])
        assert sorted(tree.mark(INF)) == [0, 1]
        assert tree.mark(0.5) == []
        with pytest.raises(ValueError):
            tree.mark(2.0)
        tree.reset()
        tree.hide([edge_between(inst, 1, 3)])
        assert sorted(tree.mark(2.0)) == [0, 1]

    def test_hidden_edges_match_textbook_yen(self, monkeypatch, rng):
        # At every spur a k-path update bounds, searched or pruned, the tree
        # hides exactly what textbook Yen hides for that root, given the
        # paths accepted so far, and prices exactly those edges at INF.  At
        # every search, the only reader of the marks, it has marked their
        # subtrees as far as the search's limit.  The path being spurred is
        # the last accepted one when the tree was last reset, and a search
        # follows the bound of its own spur.  The limits the searches mark
        # to never rise between resets.
        seen, limits, trees = [], [], []
        search = kspp.spur_search
        reset = kspp.ReverseTree.reset
        lookahead = kspp.lookahead
        mark = kspp.ReverseTree.mark

        def counting_reset(tree):
            tree.resets = getattr(tree, "resets", 0) + 1
            tree.limits = []
            limits.append(tree.limits)
            trees.append(tree)
            reset(tree)

        def recording_mark(tree, bound):
            tree.limits.append(bound)
            return mark(tree, bound)

        def recording_bound(adj, cost, dist, spur):
            # The bound reads the tree that was last reset: its costs with
            # the hidden edges at INF, and its distances.
            tree = trees[-1]
            assert cost is tree.cost and dist is tree.dist
            seen.append([tree.resets, spur, hidden_edges(tree), False])
            return lookahead(adj, cost, dist, spur)

        def recording_search(tree, spur, limit):
            assert seen[-1][:2] == [tree.resets, spur]
            found = search(tree, spur, limit)
            check_marks(tree, limit)
            seen[-1][3] = True
            return found

        monkeypatch.setattr(kspp.ReverseTree, "reset", counting_reset)
        monkeypatch.setattr(kspp, "lookahead", recording_bound)
        monkeypatch.setattr(kspp.ReverseTree, "mark", recording_mark)
        monkeypatch.setattr(kspp, "spur_search", recording_search)
        checked = searched = deep = shared = chains = after_chain = 0

        def check(inst, view, pset, k):
            # A chain vertex past a walk's start (two edges) is skipped with
            # no bound read: textbook Yen hides both of its edges there, and
            # the bounded spurs after it still hide exactly what Yen hides.
            nonlocal checked, searched, deep, shared, chains, after_chain
            walked = pset.paths[:-1] if len(pset.paths) == k else pset.paths
            for m, path in enumerate(walked, 1):
                accepted = [p.vertices for p in pset.paths[:m]]
                for j, v in enumerate(path.vertices[1:-1], 1):
                    if len(inst.adj[v]) == 2:
                        root = path.vertices[: j + 1]
                        assert {eid for _, eid in inst.adj[v]} <= oracles.yen_hidden_edges(inst, accepted, root)
                        chains += 1
            for m, spur, hidden, was_searched in seen:
                accepted = [p.vertices for p in pset.paths[:m]]
                walked = accepted[-1]
                root = walked[: walked.index(spur) + 1]
                assert hidden == oracles.yen_hidden_edges(inst, accepted, root)
                checked += 1
                searched += was_searched
                deep += m > 1 and len(root) > 1
                shared += sum(p[: len(root)] == root for p in accepted) > 1
                after_chain += len(root) > 2 and len(inst.adj[root[-2]]) == 2
            seen.clear()

        inst = diamond()
        view = PlanningCostView(inst)
        pset, _ = plan(inst, view, 4)
        check(inst, view, pset, 4)
        for trial in range(24):
            # The last twelve grids have chains of two-edge vertices.
            inst = integer_grid(rng, rng.randint(3, 6), rng.randint(3, 7))
            if trial >= 12:
                inst = subdivided(inst, rng)
            view = PlanningCostView(inst)
            state = dstar.initialize(inst)
            v_curr = inst.p
            pset = kspp.update_k_paths(inst, view, state, v_curr, [], 7)
            check(inst, view, pset, 7)
            for eid in sorted(inst.impeded_ids)[:3]:
                window = inst.edges[eid].distribution
                view.reveal(eid, float(rng.choice((window.t_min, window.t_max))))
                if len(pset.paths[0].vertices) > 2:
                    v_curr = pset.paths[0].vertices[1]
                k = rng.choice([4, 7])
                pset = kspp.update_k_paths(inst, view, state, v_curr, [eid], k)
                check(inst, view, pset, k)
        assert checked > 500 and searched > 300 and deep > 300 and shared > 70
        assert chains > 500 and after_chain > 250
        assert all(walk == sorted(walk, reverse=True) for walk in limits)
        assert sum(len(walk) > 1 for walk in limits) > 100


def spur_distance(cost, edges):
    """A spur path's cost summed from the destination end, as the tree and
    the spur searches sum it."""
    d = 0.0
    for eid in reversed(edges):
        d = d + cost[eid]
    return d


def yellow_set(inst, parent, hidden):
    """Vertices whose path in the shortest-path tree given by ``parent``
    (edge ids, as ``oracles.tree_parents``) crosses a hidden edge, and the
    tree's edge ids."""
    crosses = {}
    for v in range(inst.n_vertices):
        chain = []
        while v not in crosses and parent[v] >= 0:
            chain.append(v)
            v = inst.edges[parent[v]].other(v)
        flag = crosses.get(v, False)
        for u in reversed(chain):
            flag = flag or parent[u] in hidden
            crosses[u] = flag
    return {v for v, flag in crosses.items() if flag}, set(parent) - {-1}


class TestSpurSearch:
    @staticmethod
    def check_roots(inst, view, rng, trials):
        """Spur paths equal the oracle's shortest path with the same edges and
        root vertices blocked, from a tree shared by every trial and from a
        fresh one; every search, capped ones included, hands back the tree's
        scratch array equal to its distances; and the hidden edges never
        reach the view's shared cost list.  Half the trials take successive
        roots of one of the first Yen paths, hiding what a k-path update
        would, so the shared tree's hidden set grows root by root; the rest
        hide a random edge set and spur from a random vertex.  Returns how
        many spurs lay outside the yellow set and how many hidden sets held
        both tree and non-tree edges."""
        shared = view.costs.copy()
        costs = oracles.view_costs(inst, view)
        paths = oracles.yen_k_paths(inst, costs, inst.p, inst.d, 3)
        tree = reverse_tree(inst, view)
        parents = eager_parents(inst, view)
        ugv_edges = sorted(oracles.ugv_edges(inst))
        outside = mixed = 0
        for _ in range(trials):
            if rng.random() < 0.5:
                accepted = paths[: rng.randint(1, len(paths))]
                best = accepted[-1]
                first = rng.randint(1, len(best) - 1)
                spurs = [(best[:i], oracles.yen_hidden_edges(inst, accepted, best[:i]))
                         for i in range(first, min(first + 3, len(best)))]
            else:
                hidden = set(rng.sample(ugv_edges, rng.randint(0, len(ugv_edges) // 3)))
                spurs = [((rng.randrange(inst.n_vertices),), hidden)]
            tree.reset()
            for root, hidden in spurs:
                yellow, tree_edges = yellow_set(inst, parents, hidden)
                outside += root[-1] not in yellow
                mixed += bool(hidden & tree_edges) and bool(hidden - tree_edges)
                want = oracles.shortest_path(
                    inst, costs, root[-1], inst.d,
                    blocked_edges=hidden, blocked_vertices=frozenset(root[:-1]),
                )
                fresh = reverse_tree(inst, view)
                for t in (tree, fresh):
                    t.hide(hidden)
                    got, settled = kspp.spur_search(t, root[-1], INF)
                    assert got == (None if want is None else (want, edge_walk(inst, want)))
                    assert settled <= len(yellow)
                    assert t.scratch == t.dist
                if got is not None and got[1]:
                    # The limit admits a path of exactly its cost, and
                    # nothing at one float below it or at half of it; the
                    # capped searches settle no more than the uncapped one.
                    # They run on the fresh tree, as the shared one searches
                    # at INF again at its next root.
                    d = spur_distance(fresh.cost, got[1])
                    for limit, found in ((d, got), (math.nextafter(d, 0.0), None), (d / 2, None)):
                        path, n = kspp.spur_search(fresh, root[-1], limit)
                        assert path == found and n <= settled
                        assert fresh.scratch == fresh.dist
                assert view.costs == shared
        return outside, mixed

    def test_random_instances_match_oracle(self, rng):
        for _ in range(40):
            inst = random_connected_instance(rng, n_min=6, n_max=30)
            self.check_roots(inst, PlanningCostView(inst), rng, 5)

    def test_integer_grids_match_oracle(self, rng):
        # Integer costs make many spur paths tie, inside the yellow set and
        # across its boundary.
        outside = mixed = 0
        for _ in range(30):
            inst = integer_grid(rng, rng.randint(3, 6), rng.randint(3, 7))
            view = PlanningCostView(inst)
            for eid in sorted(inst.impeded_ids)[::2]:
                window = inst.edges[eid].distribution
                view.reveal(eid, float(rng.choice((window.t_min, window.t_max))))
            o, m = self.check_roots(inst, view, rng, 6)
            outside += o
            mixed += m
        assert outside > 20 and mixed > 20

    def test_largest_scaling_instance_matches_oracle(self, rng):
        inst, _ = bench.generate_scaling((40, 25), seed=0)
        assert inst.n_vertices == 1002
        self.check_roots(inst, PlanningCostView(inst), rng, 4)

    def test_edges_as_long_as_the_straight_line_match_oracle(self, rng):
        # Costs are straight-line lengths between integer points, so many
        # distances tie.
        for _ in range(40):
            inst = straight_line_instance(rng, rng.randint(6, 20))
            self.check_roots(inst, PlanningCostView(inst), rng, 5)

    def test_zero_heuristic_matches_oracle(self, rng):
        # One edge is half its straight-line length: the search uses the zero
        # heuristic, so an edge below the straight line changes nothing.
        for _ in range(20):
            inst = straight_line_instance(rng, rng.randint(6, 20), shrink_one=True)
            self.check_roots(inst, PlanningCostView(inst), rng, 5)

    def test_tie_that_runs_straight_into_the_spur(self):
        # Two shortest routes from 4 to the spur 0, both of cost 9 on tight
        # edges: 4-2-0 and 4-3-1-0, whose last two edges run straight into
        # the spur.  With the tree edge 4-5 hidden, 0..4 are yellow and
        # seeded through 6 at 4; vertices 3 and 1 then pop at or below the
        # spur's distance, and they must be settled for the descent to take
        # the lower-id neighbour 1.
        coords = [(0.0, 0.0), (0.0, 1.0), (3.0, 4.0), (0.0, 4.0), (3.0, 8.0), (3.0, 10.0), (5.0, 9.0)]
        inst = build_instance(
            coords,
            [(4, 2, 4.0), (2, 0, 5.0), (4, 3, 5.0), (3, 1, 3.0), (1, 0, 1.0),
             (4, 5, 2.0), (4, 6, 3.0), (6, 5, 3.0)],
            p=0, d=5,
        )
        view = PlanningCostView(inst)
        tree = reverse_tree(inst, view)
        parents = eager_parents(inst, view)
        path, settled = kspp.spur_search(tree, 0, INF)
        assert path == ((0, 1, 3, 4, 5), edge_walk(inst, (0, 1, 3, 4, 5)))
        assert settled == 0  # nothing hidden: the tree path is the answer
        hidden = {edge_between(inst, 4, 5)}
        assert yellow_set(inst, parents, hidden)[0] == {0, 1, 2, 3, 4}
        tree.hide(hidden)
        path, _ = kspp.spur_search(tree, 0, INF)
        assert path == ((0, 1, 3, 4, 6, 5), edge_walk(inst, (0, 1, 3, 4, 6, 5)))

    def test_early_stop_settles_part_of_the_graph(self):
        # Every spur of the best path on the largest instance, from one tree.
        inst, _ = bench.generate_scaling((40, 25), seed=0)
        view = PlanningCostView(inst)
        costs = oracles.view_costs(inst, view)
        best = oracles.shortest_path(inst, costs, inst.p, inst.d)
        tree = reverse_tree(inst, view)
        parents = eager_parents(inst, view)
        settled = yellow = 0
        for i in range(1, len(best)):
            root = best[:i]
            hidden = oracles.yen_hidden_edges(inst, [best], root)
            want = oracles.shortest_path(
                inst, costs, root[-1], inst.d,
                blocked_edges=hidden, blocked_vertices=frozenset(root[:-1]),
            )
            tree.hide(hidden)
            got, n = kspp.spur_search(tree, root[-1], INF)
            assert got == (None if want is None else (want, edge_walk(inst, want)))
            settled += n
            yellow += len(yellow_set(inst, parents, hidden)[0])
        assert 0 < settled < yellow // 3

    def test_isolated_spur_is_not_searched(self):
        # k=3 on the diamond: one spur is searched; the spur at 1 under rank
        # 1 and both spurs under rank 2 have every edge hidden.  The one
        # search settles the spur 0 only.
        inst = diamond()
        pset, _ = plan(inst, PlanningCostView(inst), 3)
        assert pset.spur == kspp.SpurCounts(searches=1, isolated=3, nopath=0, settled=1)

    def test_unreachable_returns_none(self):
        # Both edges into the destination are hidden, so 0, 1 and 2 are all
        # yellow and none of them has a seed: nothing is settled.
        inst = diamond()
        view = PlanningCostView(inst)
        tree = reverse_tree(inst, view)
        tree.hide([edge_between(inst, 1, 3), edge_between(inst, 2, 3)])
        path, settled = kspp.spur_search(tree, 0, INF)
        assert path is None and settled == 0

    def test_no_path_settles_at_most_the_yellow_set(self):
        # Cut a 3x3 block of the 1002-vertex grid off from the rest: a full
        # search would settle the destination's whole component, this one
        # at most the yellow vertices, whose tree paths cross the cut.
        inst, _ = bench.generate_scaling((40, 25), seed=0)
        view = PlanningCostView(inst)
        centre = min(range(inst.n_vertices), key=lambda v: math.dist(inst.vertices[v], inst.vertices[inst.p]))
        block = {centre}
        for _ in range(1):
            block |= {w for v in block for w, _ in inst.adj[v]}
        hidden = {eid for v in block for w, eid in inst.adj[v] if w not in block}
        assert inst.d not in block
        tree = reverse_tree(inst, view)
        yellow, _ = yellow_set(inst, eager_parents(inst, view), hidden)
        tree.hide(hidden)
        path, settled = kspp.spur_search(tree, centre, INF)
        assert path is None
        assert block <= yellow
        assert 0 < settled <= len(yellow) < inst.n_vertices // 10


class TestSharedStateIsolation:
    def test_rank2_leaves_shared_state_bit_identical(self, rng):
        for _ in range(10):
            inst = random_connected_instance(rng)
            view = PlanningCostView(inst)
            state = dstar.initialize(inst)
            kspp.update_k_paths(inst, view, state, inst.p, [], 1)
            g0, rhs0 = state.g.copy(), state.rhs.copy()
            heap0, live0 = list(state.queue._heap), dict(state.queue._live)
            state2 = state  # same object, ranks 2+ must not mutate it
            kspp.update_k_paths(inst, view, state2, inst.p, [], 4)
            assert state2.g == g0
            assert state2.rhs == rhs0
            assert state2.queue._heap == heap0
            assert state2.queue._live == live0


class TestOracleEquivalence:
    def test_small_graphs_match_enumeration_and_yen(self, rng):
        for trial in range(60):
            inst = random_connected_instance(rng, n_min=5, n_max=8)
            view = PlanningCostView(inst)
            pset, _ = plan(inst, view, 4)
            costs = oracles.view_costs(inst, view)
            enumerated = oracles.all_simple_paths(inst, costs, inst.p, inst.d)
            want = [c for c, _ in enumerated[:4]]
            assert [p.cost for p in pset.paths] == want
            yen = oracles.yen_k_paths(inst, costs, inst.p, inst.d, 4)
            assert [p.vertices for p in pset.paths] == yen

    def test_integer_grids_match_yen_at_k7(self, rng):
        for _ in range(12):
            inst = integer_grid(rng, rng.randint(3, 6), rng.randint(3, 7))
            view = PlanningCostView(inst)
            state = dstar.initialize(inst)
            pset = kspp.update_k_paths(inst, view, state, inst.p, [], 7)
            v_curr = inst.p
            for eid in sorted(inst.impeded_ids)[:4]:
                yen = oracles.yen_k_paths(inst, oracles.view_costs(inst, view), v_curr, inst.d, 7)
                assert [p.vertices for p in pset.paths] == yen
                for p in pset.paths:
                    assert p.edges == edge_walk(inst, p.vertices)
                    assert len(p.edges) == len(p.vertices) - 1
                window = inst.edges[eid].distribution
                view.reveal(eid, float(rng.choice((window.t_min, window.t_max))))
                if len(pset.paths[0].vertices) > 2:
                    v_curr = pset.paths[0].vertices[1]
                pset = kspp.update_k_paths(inst, view, state, v_curr, [eid], 7)
            yen = oracles.yen_k_paths(inst, oracles.view_costs(inst, view), v_curr, inst.d, 7)
            assert [p.vertices for p in pset.paths] == yen
            for p in pset.paths:
                assert p.edges == edge_walk(inst, p.vertices)
                assert len(p.edges) == len(p.vertices) - 1

    def test_spur_counts_add_up(self, monkeypatch, rng):
        searched = []
        search = kspp.spur_search

        def recording_search(tree, spur, limit):
            path, settled = search(tree, spur, limit)
            searched.append((path is None, settled))
            return path, settled

        monkeypatch.setattr(kspp, "spur_search", recording_search)
        lawler = yen = pruned = 0
        for _ in range(20):
            inst = integer_grid(rng, 4, 5)
            searched.clear()
            pset, _ = plan(inst, PlanningCostView(inst), 7)
            c = pset.spur
            assert c.searches == len(searched) > 0
            assert c.nopath == sum(none for none, _ in searched)
            assert c.settled == sum(n for _, n in searched) > 0
            # Plain Yen spurs every processed path from every vertex but the
            # last; the last ranked path is processed only if the pool ran dry.
            processed = pset.paths[:-1] if len(pset.paths) == 7 else pset.paths
            lawler += c.searches + c.isolated + c.pruned
            yen += sum(len(p.edges) for p in processed)
            assert c.searches + c.isolated + c.pruned <= sum(len(p.edges) for p in processed)
            pruned += c.pruned
        assert lawler < yen and pruned > 0
        pset, _ = plan(inst, PlanningCostView(inst), 1)
        assert pset.spur == kspp.SpurCounts()

    def test_incremental_equals_from_scratch(self, rng):
        for trial in range(20):
            inst = random_connected_instance(rng, n_min=6, n_max=10)
            view = PlanningCostView(inst)
            state = dstar.initialize(inst)
            pset = kspp.update_k_paths(inst, view, state, inst.p, [], 3)
            v_curr = inst.p
            for eid in sorted(inst.impeded_ids):
                true = inst.edges[eid].distribution.sample(rng)
                view.reveal(eid, true)
                best = pset.paths[0]
                if len(best.vertices) > 1:
                    v_curr = best.vertices[1]
                pset = kspp.update_k_paths(inst, view, state, v_curr, [eid], 3)
                costs = oracles.view_costs(inst, view)
                yen = oracles.yen_k_paths(inst, costs, v_curr, inst.d, 3)
                assert [p.vertices for p in pset.paths] == yen


@st.composite
def _tie_heavy_missions(draw):
    """A connected instance with integer costs of 1 to 3, about a third of
    them impeded with integer bounds, so many paths tie on cost, and up to
    four reveals at those bounds."""
    n = draw(st.integers(4, 12), label="vertices")
    order = draw(st.permutations(range(n)), label="spanning path")
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    pairs = {(min(a, b), max(a, b)) for a, b in list(zip(order, order[1:])) + extra if a != b}
    specs = []
    for u, v in sorted(pairs):
        lo = draw(st.integers(1, 3))
        impeded = draw(st.integers(0, 2)) == 0
        specs.append((u, v, (lo, lo + draw(st.integers(1, 2))) if impeded else lo))
    coords = [(float(i % 4), float(i // 4)) for i in range(n)]
    inst = build_instance(coords, specs, p=0, q=0, d=n - 1)
    impeded = sorted(inst.impeded_ids)
    reveals = draw(st.lists(st.tuples(st.sampled_from(impeded), st.integers(0, 1)),
                            max_size=4, unique_by=lambda r: r[0])) if impeded else []
    return inst, reveals


def _ranked_updates(inst, reveals, k):
    """Each k-path update's ranked paths, as (vertices, edges, cost bits),
    and its spur counts, over a mission that reveals ``reveals`` in turn and
    steps along the best path.  Checks that no spur search seeds a yellow
    vertex whose tree distance exceeds its limit."""
    search, dijkstra = kspp.spur_search, kspp.dijkstra
    limits = []

    def recording_search(tree, spur, limit):
        limits.append((tree, limit))
        return search(tree, spur, limit)

    def checked_dijkstra(adj, frontier, cost, target, dist):
        tree, limit = limits[-1]
        assert all(tree.dist[y] <= limit for y in frontier)
        return dijkstra(adj, frontier, cost, target, dist=dist)

    view = PlanningCostView(inst)
    state = dstar.initialize(inst)
    v_curr, changed, out = inst.p, [], []
    with mock.patch.object(kspp, "spur_search", recording_search), \
            mock.patch.object(kspp, "dijkstra", checked_dijkstra):
        for eid, high in [(None, 0)] + reveals:
            if eid is not None:
                window = inst.edges[eid].distribution
                view.reveal(eid, float((window.t_min, window.t_max)[high]))
                changed = [eid]
            pset = kspp.update_k_paths(inst, view, state, v_curr, changed, k)
            out.append(([(p.vertices, p.edges, p.cost.hex()) for p in pset.paths], pset.spur))
            if len(pset.paths[0].vertices) > 2:
                v_curr = pset.paths[0].vertices[1]
    return out


@settings(max_examples=300, deadline=None)
@given(mission=_tie_heavy_missions(), k=st.integers(2, 6))
def test_bound_ranks_what_the_unbounded_update_ranks(mission, k):
    # The same mission with the limit helper at INF, so that nothing is
    # pruned, capped or cut: the bound leaves every ranked path the same,
    # vertices, edges and cost bits, and runs no more searches and settles
    # no more vertices.  Every root it prunes, the unbounded run searches.
    inst, reveals = mission
    bounded = _ranked_updates(inst, reveals, k)
    with mock.patch.object(kspp, "rank_limit", lambda pool, need: INF):
        unbounded = _ranked_updates(inst, reveals, k)
    assert len(bounded) == len(unbounded) == len(reveals) + 1
    for (paths, got), (want, full) in zip(bounded, unbounded):
        assert paths == want
        assert full.pruned == 0 and got.isolated == full.isolated
        assert got.searches + got.pruned == full.searches
        assert got.settled <= full.settled



@settings(max_examples=200, deadline=None)
@given(mission=_tie_heavy_missions(), k=st.integers(2, 6))
def test_parents_the_tree_reads_match_the_eager_rule(mission, k):
    # Integer costs tie often, so many vertices have more than one tight
    # edge: every parent a k-path update's tree reads is the first tight
    # edge in adjacency order, as the eager rule gives it, and every search
    # sees the yellow set that rule's tree gives, as far as its limit.
    inst, reveals = mission
    search = kspp.spur_search
    view = PlanningCostView(inst)
    trees = []

    def recording_search(tree, spur, limit):
        found = search(tree, spur, limit)
        check_marks(tree, limit)
        trees.append(tree)
        return found

    state = dstar.initialize(inst)
    v_curr, changed = inst.p, []
    with mock.patch.object(kspp, "spur_search", recording_search):
        for eid, high in [(None, 0)] + reveals:
            if eid is not None:
                window = inst.edges[eid].distribution
                view.reveal(eid, float((window.t_min, window.t_max)[high]))
                changed = [eid]
            pset = kspp.update_k_paths(inst, view, state, v_curr, changed, k)
            parents = eager_parents(inst, view)
            for tree in trees:
                assert all(p in (-2, want) for p, want in zip(tree.parent, parents))
            trees.clear()
            if len(pset.paths[0].vertices) > 2:
                v_curr = pset.paths[0].vertices[1]


@settings(max_examples=200, deadline=None)
@given(mission=_tie_heavy_missions(), k=st.integers(2, 6))
def test_searches_see_yens_hidden_set_and_hand_back_the_tree_distances(mission, k):
    # A walk starts at its deviation index, with the edges of the vertices
    # before it hidden in one call and the paths sharing its root found by
    # one prefix comparison.  At every search the tree hides exactly Yen's
    # set for the root: every edge of its interior vertices and the next
    # edge of every accepted path sharing it.  Every search hands back its
    # scratch array equal to the tree distances, entry for entry.
    inst, reveals = mission
    search, reset = kspp.spur_search, kspp.ReverseTree.reset
    walk, seen = 0, []

    def counting_reset(tree):
        nonlocal walk
        walk += 1
        reset(tree)

    def checked_search(tree, spur, limit):
        seen.append((walk, spur, hidden_edges(tree)))
        found = search(tree, spur, limit)
        assert tree.scratch == tree.dist
        return found

    view = PlanningCostView(inst)
    state = dstar.initialize(inst)
    v_curr, changed = inst.p, []
    with mock.patch.object(kspp, "spur_search", checked_search), \
            mock.patch.object(kspp.ReverseTree, "reset", counting_reset):
        for eid, high in [(None, 0)] + reveals:
            if eid is not None:
                window = inst.edges[eid].distribution
                view.reveal(eid, float((window.t_min, window.t_max)[high]))
                changed = [eid]
            walk = 0  # the tree's constructor resets it: the first walk is 1
            pset = kspp.update_k_paths(inst, view, state, v_curr, changed, k)
            paths = [p.vertices for p in pset.paths]
            for m, spur, hidden in seen:
                walked = paths[m - 1]
                root = walked[: walked.index(spur) + 1]
                assert hidden == oracles.yen_hidden_edges(inst, paths[:m], root)
            seen.clear()
            if len(pset.paths[0].vertices) > 2:
                v_curr = pset.paths[0].vertices[1]


def test_marking_to_the_limit_searches_as_full_marking_does(rng):
    # Each search of a k-path update against the same search from a tree
    # with the same hidden edges and every yellow vertex marked: the marks
    # left past the limit change neither the path nor the vertices settled,
    # not even at a spur whose every seed runs through such a vertex.
    search = kspp.spur_search
    compared = 0

    def compared_search(tree, spur, limit):
        nonlocal compared
        full = kspp.ReverseTree(view, state)
        full.hide(hidden_edges(tree))
        full.mark(INF)
        got = search(tree, spur, limit)
        assert got == search(full, spur, limit)
        compared += limit < INF
        return got

    with mock.patch.object(kspp, "spur_search", compared_search):
        for _ in range(40):
            inst = random_connected_instance(rng, n_min=8, n_max=40)
            view = PlanningCostView(inst)
            state = dstar.initialize(inst)
            k, v_curr = rng.randint(2, 7), inst.p
            pset = kspp.update_k_paths(inst, view, state, v_curr, [], k)
            for eid in sorted(inst.impeded_ids)[:4]:
                view.reveal(eid, inst.edges[eid].distribution.sample(rng))
                if len(pset.paths[0].vertices) > 2:
                    v_curr = pset.paths[0].vertices[1]
                pset = kspp.update_k_paths(inst, view, state, v_curr, [eid], k)
    assert compared > 300


@st.composite
def _chain_heavy_missions(draw):
    """An instance with many two-edge vertices: a random connected one with
    about half its ground edges subdivided, with or without aerial-only
    edges, or a small bridge instance; and up to three reveals, each at a
    cost drawn from the edge's window."""
    seed = draw(st.integers(0, 2**31 - 1), label="seed")
    kind = draw(st.sampled_from(["subdivided", "subdivided, aerial-only edges", "bridge"]))
    rng = random.Random(seed)
    if kind == "bridge":
        spec = bench.BridgeSpec(n_paths=draw(st.integers(2, 4)), chain_len=draw(st.integers(4, 7)),
                                adversarial=draw(st.booleans()))
        inst, _ = bench.generate_bridge(spec, seed)
    else:
        inst = subdivided(random_connected_instance(rng, n_min=4, n_max=9), rng)
        if kind != "subdivided":
            inst = with_aerial_only_edges(inst, rng)
    impeded = sorted(inst.impeded_ids)
    n_reveals = draw(st.integers(0, min(3, len(impeded))), label="reveals")
    reveals = [(eid, inst.edges[eid].distribution.sample(rng)) for eid in rng.sample(impeded, n_reveals)]
    return inst, reveals


def _walk_deviations(inst, view, state, v_curr, changed, k):
    """One k-path update, and each walked path with the index it was spurred
    from (Lawler's ``deviation``): a candidate is built while its parent is
    walked, from the index where it leaves the parent."""
    walk, built = 0, []
    reset, make_path = kspp.ReverseTree.reset, kspp.Path

    def counting_reset(tree):
        nonlocal walk
        walk += 1
        reset(tree)

    def recording_path(vertices, edges, cost):
        built.append((walk, vertices))
        return make_path(vertices, edges, cost)

    with mock.patch.object(kspp.ReverseTree, "reset", counting_reset), \
            mock.patch.object(kspp, "Path", recording_path):
        pset = kspp.update_k_paths(inst, view, state, v_curr, changed, k)
    deviation = {pset.paths[0].vertices: 0}
    for m, vertices in built:
        parent = pset.paths[m - 1].vertices
        deviation[vertices] = next(j for j, (a, b) in enumerate(zip(vertices, parent)) if a != b) - 1
    walked = pset.paths[:-1] if len(pset.paths) == k else pset.paths
    return pset, [(p.vertices, deviation[p.vertices]) for p in walked]


@settings(max_examples=200, deadline=None)
@given(mission=_chain_heavy_missions(), k=st.integers(2, 7))
def test_chain_heavy_updates_match_textbook_yen(mission, k):
    # Where most vertices have two edges, the walk reads no bound at a chain
    # vertex: the ranked paths are still textbook Yen's (criterion 2), and
    # the isolated count is still the number of spurs at or past the
    # deviation where Yen's hidden set holds every ground edge.
    # The pool stays sorted, so X is read off it as a heap's need-th pop.
    inst, reveals = mission
    view = PlanningCostView(inst)
    state = dstar.initialize(inst)
    ground = oracles.ugv_edges(inst)
    rank_limit = kspp.rank_limit

    def checked_rank_limit(pool, need):
        x = rank_limit(pool, need)
        assert x == (heapq.nsmallest(need, pool)[-1][0] if len(pool) >= need else INF)
        return x

    v_curr, changed = inst.p, []
    for eid, cost in [(None, None)] + reveals:
        if eid is not None:
            view.reveal(eid, cost)
            changed = [eid]
        with mock.patch.object(kspp, "rank_limit", checked_rank_limit):
            pset, walks = _walk_deviations(inst, view, state, v_curr, changed, k)
        yen = oracles.yen_k_paths(inst, oracles.view_costs(inst, view), v_curr, inst.d, k)
        assert [p.vertices for p in pset.paths] == yen
        assert [entry[:2] for entry in pset.pool] == sorted(entry[:2] for entry in pset.pool)
        isolated = 0
        for m, (vs, first) in enumerate(walks, 1):
            accepted = [p.vertices for p in pset.paths[:m]]
            for j in range(first, len(vs) - 1):
                hidden = oracles.yen_hidden_edges(inst, accepted, vs[: j + 1])
                isolated += all(eid in hidden for _, eid in inst.adj[vs[j]] if eid in ground)
        assert pset.spur.isolated == isolated
        if len(pset.paths[0].vertices) > 2:
            v_curr = pset.paths[0].vertices[1]
