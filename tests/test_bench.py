import csv
import hashlib
import os
import pickle
import random

import pytest

from scoutplan import bench, sim
from scoutplan.core import dijkstra, load_instance, save_instance, save_realization
from scoutplan.sim import SimulationConfig


class TestGridGenerator:
    def test_paper_scale_grid_shape(self):
        inst, real = bench.generate_grid(bench.GridSpec(rows=10, cols=20), seed=0)
        assert inst.n_vertices == 200
        assert inst.vertices[inst.p] == (0.0, 0.0)
        assert inst.vertices[inst.d] == (190.0, 90.0)
        assert len(inst.edges) == 10 * 19 + 9 * 20
        assert inst.impeded_ids
        assert set(real.true_cost) == set(inst.impeded_ids)
        for eid in inst.impeded_ids:
            lo, hi = inst.edges[eid].distribution.bounds()
            assert lo == 10.0
            assert 80.0 <= hi <= 100.0

    def test_two_by_two_no_cuts(self):
        inst, real = bench.generate_grid(
            bench.GridSpec(rows=2, cols=2, n_impeded_cuts=0), seed=0
        )
        assert inst.n_vertices == 4
        assert len(inst.edges) == 4
        assert not inst.impeded_ids
        assert len(real) == 0

    def test_fixed_seed_reproduces(self, tmp_path):
        a, ra = bench.generate_grid(bench.GridSpec(), seed=42)
        b, rb = bench.generate_grid(bench.GridSpec(), seed=42)
        fa, fb = tmp_path / "a", tmp_path / "b"
        save_instance(a, str(fa))
        save_instance(b, str(fb))
        assert fa.read_bytes() == fb.read_bytes()
        assert ra.true_cost == rb.true_cost


class TestBridgeGenerator:
    def test_default_shape(self):
        inst, _ = bench.generate_bridge(bench.BridgeSpec(), seed=0)
        assert inst.n_vertices == 10 * 19 + 2
        assert inst.vertices[inst.p] == (0.0, 0.0)
        assert inst.vertices[inst.d] == (200.0, 0.0)
        # Two impeded chain edges per path.
        assert len(inst.impeded_ids) == 20

    def test_adversarial_realization_rule(self):
        from scoutplan.core import dijkstra

        hit = 0
        for seed in range(8):
            inst, real = bench.generate_bridge(bench.BridgeSpec(adversarial=True), seed=seed)
            exp = [e.distribution.expected() if e.impeded else e.ugv_cost for e in inst.edges]
            _, parent, _ = dijkstra(inst.ugv_adj, inst.p, exp)
            on_path = set()
            v = inst.d
            while v != inst.p:
                on_path.add(parent[v])
                v = inst.edges[parent[v]].other(v)
            for eid in inst.impeded_ids:
                lo, hi = inst.edges[eid].distribution.bounds()
                if eid in on_path:
                    assert real[eid] == hi
                    hit += 1
                else:
                    assert real[eid] == lo
        # The expected-cost path can legitimately dodge every impeded edge on
        # some instances, but not across a batch of seeds.
        assert hit > 0

    def test_single_chain_degenerate(self):
        inst, real = bench.generate_bridge(
            bench.BridgeSpec(n_paths=1, adversarial=True), seed=3
        )
        # One chain: no crossings, and the adversary maxes every on-path edge.
        assert inst.n_vertices == 21
        for eid in inst.impeded_ids:
            assert real[eid] == inst.edges[eid].distribution.t_max

    def test_lower_bound_mean_near_reference(self):
        lbs = []
        for i in range(100):
            seed = random.Random(f"lb:{i}").getrandbits(31)
            inst, real = bench.generate_bridge(bench.BridgeSpec(adversarial=True), seed)
            lbs.append(sim.lower_bound(inst, real))
        mean = sum(lbs) / len(lbs)
        assert abs(mean - 208.0) / 208.0 < 0.05


class TestScaling:
    def test_vertex_counts(self):
        sizes = {(20, 20): 402, (25, 20): 502, (30, 20): 602, (30, 25): 752, (40, 25): 1002}
        for size, want in sizes.items():
            inst, _ = bench.generate_scaling(size, seed=1)
            assert inst.n_vertices == want

    def test_seeds_give_distinct_instances(self):
        a, _ = bench.generate_scaling((20, 20), seed=1)
        b, _ = bench.generate_scaling((20, 20), seed=2)
        assert {e.id for e in a.edges if e.impeded} != {e.id for e in b.edges if e.impeded}


class TestRoadImport:
    def make_base(self, tmp_path, n=30):
        path = tmp_path / "road.txt"
        save_instance(bench.generate_road_like(n, seed=5), str(path))
        return load_instance(str(path))

    def test_fraction_zero(self, tmp_path):
        base = self.make_base(tmp_path)
        out = bench.import_road_network(base, impeded_fraction=0.0, seed=1)
        assert not out.impeded_ids

    def test_fraction_one(self, tmp_path):
        base = self.make_base(tmp_path)
        out = bench.import_road_network(base, impeded_fraction=1.0, seed=1)
        assert out.impeded_ids == out.ugv_edge_ids

    def test_fraction_half_counts_and_windows(self, tmp_path):
        base = self.make_base(tmp_path)
        out = bench.import_road_network(base, impeded_fraction=0.5, seed=2)
        assert len(out.impeded_ids) == len(out.ugv_edge_ids) // 2
        for eid in out.impeded_ids:
            lo, hi = out.edges[eid].distribution.bounds()
            assert hi == pytest.approx(10.0 * lo)
        assert out.uav_free_flight

    def test_endpoints_are_farthest_pair(self, tmp_path):
        base = self.make_base(tmp_path, n=20)
        out = bench.import_road_network(base, impeded_fraction=0.3, seed=3)
        length = [e.distribution.t_min if e.impeded else e.ugv_cost for e in out.edges]
        best = 0.0
        for src in range(out.n_vertices):
            dist, _, _ = dijkstra(out.ugv_adj, src, length)
            best = max(best, max(d for d in dist if d < float("inf")))
        got, _, _ = dijkstra(out.ugv_adj, out.p, length)
        assert got[out.d] == pytest.approx(best)

    def test_endpoints_searched_once_per_base(self, tmp_path, monkeypatch):
        path = tmp_path / "road.txt"
        save_instance(bench.generate_road_like(15, seed=5), str(path))
        calls = []
        monkeypatch.setattr(bench, "dijkstra", lambda *a: calls.append(a[1]) or dijkstra(*a))
        spec = bench.RoadSpec(base_file=str(path))
        for i in range(3):
            bench.make_instance(spec, f"0:{i}")
        assert sorted(calls) == list(range(15))

    def test_unpickled_spec_keeps_its_layout(self, tmp_path, monkeypatch):
        # A --jobs worker gets the spec pickled; it must not search again.
        path = tmp_path / "road.txt"
        save_instance(bench.generate_road_like(15, seed=5), str(path))
        spec = bench.RoadSpec(base_file=str(path))
        want = [bench.make_instance(spec, f"0:{i}") for i in range(3)]
        calls = []
        monkeypatch.setattr(bench, "dijkstra", lambda *a: calls.append(a[1]) or dijkstra(*a))
        got = [bench.make_instance(pickle.loads(pickle.dumps(spec)), f"0:{i}") for i in range(3)]
        assert calls == []
        for (inst, real, _), (want_inst, want_real, _) in zip(got, want):
            assert (inst.p, inst.q, inst.d) == (want_inst.p, want_inst.q, want_inst.d)
            assert inst.edges == want_inst.edges
            assert real.true_cost == want_real.true_cost

    def test_simulates_cleanly(self, tmp_path):
        base = self.make_base(tmp_path)
        out = bench.import_road_network(base, impeded_fraction=0.5, seed=4)
        real = bench.sample_realization(out, random.Random(9))
        res = sim.run(out, real, SimulationConfig(planner="paa", k=3))
        assert res.arrival_time >= res.lower_bound - 1e-9


class TestGoldenInstances:
    # SHA-256 of the instance file then the realization file that
    # save_instance and save_realization write for make_instance(spec, "7:0"),
    # with each family's default spec.
    GOLDEN = {
        "grid": "b809938de031090fb103f898f7f995069992f3225d7eee8e98bf0bf733f8f6c8",
        "bridge": "3bcfa2272efaafe936e5ce16849634eaeca8aa021d9ee0f4c7593b0815a86c08",
        "scaling": "13a049c969d6332ef9934d3a86c47b6864cad555f0e956eabae3d2f028aed5eb",
        "road": "cdc59c577c900298470180803b6aa4f16fc8db020e5496e06ccd2ebda62864d5",
    }

    @pytest.mark.parametrize("family", bench.FAMILIES)
    def test_default_spec_output_is_pinned(self, tmp_path, family):
        inst, real, _ = bench.make_instance(bench.FAMILY_SPECS[family](), "7:0")
        save_instance(inst, str(tmp_path / "instance.txt"))
        save_realization(real, str(tmp_path / "realization.txt"))
        text = (tmp_path / "instance.txt").read_bytes() + (tmp_path / "realization.txt").read_bytes()
        assert hashlib.sha256(text).hexdigest() == self.GOLDEN[family]


class TestDeltaFormula:
    @pytest.mark.parametrize(
        "lb,naive,cost,want",
        [
            (208.0, 237.3, 237.3, 0.0),
            (208.0, 237.3, 229.1, (237.3 - 229.1) / (237.3 - 208.0) * 100.0),
            (100.0, 100.0, 100.0, 0.0),  # degenerate gap
        ],
    )
    def test_hand_values(self, lb, naive, cost, want):
        assert bench.delta_percent(lb, naive, cost) == pytest.approx(want)


class TestExperimentHarness:
    def spec(self):
        return bench.ExperimentSpec(
            family="bridge",
            n_instances=3,
            k_values=(1, 2),
            planners=("rpp", "paa"),
            seed=99,
            specs=(bench.BridgeSpec(adversarial=True),),
        )

    @pytest.mark.parametrize("bad", [
        {"family": "hexagon"},
        {"planners": ("rpp", "astar")},
        {"k_values": (1, 0)},
        {"specs": [{"impeded_per_path": float("inf")}]},
        {"family": "scaling", "specs": [{"size": (1, 3)}]},
        {"n_instances": 0},
        {"family": "scaling", "specs": []},
        {"k_values": (2.5,)},
        {"k_values": ()},
        {"planners": ()},
        {"specs": [{"impeded_per_path": True}]},
        {"family": "grid", "specs": [{"n_impeded_cuts": True}]},
        {"planners": ("paa", "paa")},
        {"k_values": (2, 3, 2)},
        {"planners": ("naive", "rpp")},  # the naive baseline always runs
    ])
    def test_spec_rejects_what_cannot_run(self, bad):
        # A "specs" entry holds the keyword arguments of the family's spec.
        with pytest.raises(ValueError):
            if "specs" in bad:
                family = bench.FAMILY_SPECS[bad.get("family", "bridge")]
                bad = {**bad, "specs": tuple(family(**entry) for entry in bad["specs"])}
            bench.ExperimentSpec(**bad)

    @pytest.mark.parametrize("specs", [
        (bench.BridgeSpec(),),  # another family's spec
        (bench.GridSpec(), bench.ScalingSpec()),
        [bench.GridSpec()],  # not a tuple
        bench.GridSpec(),
        ({"rows": 4},),
    ])
    def test_specs_must_be_the_family_specs(self, specs):
        with pytest.raises(ValueError, match="specs must be a non-empty tuple of GridSpec"):
            bench.ExperimentSpec(family="grid", specs=specs)

    def test_default_specs(self):
        assert bench.ExperimentSpec(family="grid").specs == (bench.GridSpec(),)
        assert bench.ExperimentSpec(family="road").specs == (bench.RoadSpec(),)
        assert bench.ExperimentSpec().specs == (bench.BridgeSpec(),)
        scaling = bench.ExperimentSpec(family="scaling").specs
        assert [s.size for s in scaling] == list(bench.SCALING_SIZES)

    def test_writes_outputs_and_is_deterministic(self, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        s1, f1 = bench.run_experiment(self.spec(), str(out1))
        s2, _ = bench.run_experiment(self.spec(), str(out2))
        for name in ("runs.csv", "summary.csv", "failures.csv", "plot_replan_ms.txt",
                     "plot_costs.txt"):
            assert (out1 / name).exists()
        assert f1 == []
        assert (out1 / "failures.csv").read_text().splitlines() == [",".join(bench.FAILURE_COLUMNS)]

        def rows_without_wall_times(path):
            with open(path) as fh:
                rows = list(csv.DictReader(fh))
            for r in rows:
                r.pop("max_ugv_replan_ms")
                r.pop("max_uav_replan_ms")
                r.pop("max_uav_solver_ms")
            return rows

        # Simulated results are seed-deterministic; only the measured
        # wall-clock columns may differ between identical runs.
        assert rows_without_wall_times(out1 / "runs.csv") == rows_without_wall_times(out2 / "runs.csv")
        assert [r["cost"] for r in s1] == [r["cost"] for r in s2]
        assert (out1 / "plot_costs.txt").read_bytes() == (out2 / "plot_costs.txt").read_bytes()
        with open(out1 / "runs.csv") as fh:
            rows = list(csv.DictReader(fh))
        # naive once per instance plus one row per (k, planner).
        assert len(rows) == 3 * (1 + 2 * 2)
        assert list(rows[0]) == list(bench.RUN_COLUMNS)

    def test_report_round_trip(self, tmp_path):
        out = tmp_path / "run"
        bench.run_experiment(self.spec(), str(out))
        rows = bench.read_runs_csv(str(out / "runs.csv"))
        summary = bench.summarize_rows(rows)
        assert summary
        by_key = {(r["planner"], r["k"]): r for r in summary}
        assert ("rpp", 1) in by_key and ("paa", 2) in by_key
        for r in summary:
            assert r["LB"] <= r["cost"] + 1e-9

    def test_report_reproduces_scaling_summary(self, tmp_path):
        spec = bench.ExperimentSpec(
            family="scaling", n_instances=1, k_values=(1, 2), planners=("paa",),
            seed=3, specs=(bench.ScalingSpec((8, 4)), bench.ScalingSpec((10, 5))),
        )
        out = tmp_path / "run"
        summary, _ = bench.run_experiment(spec, str(out))
        assert sorted({r["label"] for r in summary}) == ["10x5", "8x4"]
        rows = bench.read_runs_csv(str(out / "runs.csv"))
        assert {r["n_vertices"] for r in rows} == {8 * 4 + 2, 10 * 5 + 2}
        bench.write_summary_csv(bench.summarize_rows(rows), str(tmp_path / "report.csv"))
        assert (tmp_path / "report.csv").read_bytes() == (out / "summary.csv").read_bytes()


class TestDemoInstance:
    def test_validates_and_round_trips(self, tmp_path):
        inst, real = bench.demo_instance()
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_instance(inst, str(p1))
        save_instance(load_instance(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert sorted(real.true_cost) == [1, 4]
