import csv
import hashlib
import json
import os
import pickle
import random
from concurrent.futures import Future
from dataclasses import replace
from statistics import fmean

import pytest

import oracles
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
            dist = inst.edges[eid].distribution
            assert dist.t_min == 10.0
            assert 80.0 <= dist.t_max <= 100.0

    def test_two_by_two_no_cuts(self):
        inst, real = bench.generate_grid(
            bench.GridSpec(rows=2, cols=2, n_impeded_cuts=0), seed=0
        )
        assert inst.n_vertices == 4
        assert len(inst.edges) == 4
        assert not inst.impeded_ids
        assert len(real.true_cost) == 0

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
            _, parent, _ = dijkstra(inst.adj, inst.p, exp)
            on_path = set()
            v = inst.d
            while v != inst.p:
                on_path.add(parent[v])
                v = inst.edges[parent[v]].other(v)
            for eid in inst.impeded_ids:
                dist = inst.edges[eid].distribution
                if eid in on_path:
                    assert real.true_cost[eid] == dist.t_max
                    hit += 1
                else:
                    assert real.true_cost[eid] == dist.t_min
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
            assert real.true_cost[eid] == inst.edges[eid].distribution.t_max

    def test_shortest_chain_fits_every_window(self):
        # Chain edges of MIN_CHAIN_LEN are no longer than the least t_max, so
        # every seed generates; one vertex fewer and they would be longer.
        (x0, _), (x1, _) = bench.BRIDGE_BOX
        shortest = bench.MIN_CHAIN_LEN
        assert (x1 - x0) / (shortest - 2) > bench.T_MAX_RANGE[0] >= (x1 - x0) / (shortest - 1)
        for seed in range(20):
            bench.generate_bridge(bench.BridgeSpec(chain_len=shortest, impeded_per_path=shortest - 1), seed)
        with pytest.raises(ValueError, match=f"chain_len must be an integer >= {shortest}"):
            bench.BridgeSpec(chain_len=shortest - 1)

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
        assert out.impeded_ids == oracles.ugv_edges(out)

    def test_fraction_half_counts_and_windows(self, tmp_path):
        base = self.make_base(tmp_path)
        out = bench.import_road_network(base, impeded_fraction=0.5, seed=2)
        assert len(out.impeded_ids) == len(oracles.ugv_edges(out)) // 2
        for eid in out.impeded_ids:
            dist = out.edges[eid].distribution
            assert dist.t_max == pytest.approx(10.0 * dist.t_min)
        assert out.uav_free_flight

    def test_endpoints_are_farthest_pair(self, tmp_path):
        base = self.make_base(tmp_path, n=20)
        out = bench.import_road_network(base, impeded_fraction=0.3, seed=3)
        length = [e.distribution.t_min if e.impeded else e.ugv_cost for e in out.edges]
        best = 0.0
        for src in range(out.n_vertices):
            dist, _, _ = dijkstra(out.adj, src, length)
            best = max(best, max(d for d in dist if d < float("inf")))
        got, _, _ = dijkstra(out.adj, out.p, length)
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
    # with each family's default spec, and for "scaling" the bridge spec of
    # the first scaling-study size.
    GOLDEN = {
        "grid": "b809938de031090fb103f898f7f995069992f3225d7eee8e98bf0bf733f8f6c8",
        "bridge": "3bcfa2272efaafe936e5ce16849634eaeca8aa021d9ee0f4c7593b0815a86c08",
        "scaling": "13a049c969d6332ef9934d3a86c47b6864cad555f0e956eabae3d2f028aed5eb",
        "road": "cdc59c577c900298470180803b6aa4f16fc8db020e5496e06ccd2ebda62864d5",
    }

    @pytest.mark.parametrize("name", GOLDEN)
    def test_default_spec_output_is_pinned(self, tmp_path, name):
        if name == "scaling":
            spec = bench.scaling_spec(bench.SCALING_SIZES[0])
        else:
            spec = bench.FAMILY_SPECS[name]()
        inst, real, _ = bench.make_instance(spec, "7:0")
        save_instance(inst, str(tmp_path / "instance.txt"))
        save_realization(real, str(tmp_path / "realization.txt"))
        text = (tmp_path / "instance.txt").read_bytes() + (tmp_path / "realization.txt").read_bytes()
        assert hashlib.sha256(text).hexdigest() == self.GOLDEN[name]


class TestSpecLabel:
    @pytest.mark.parametrize("family", bench.FAMILY_SPECS)
    def test_default_spec_is_unlabelled(self, family):
        assert bench.spec_label(bench.FAMILY_SPECS[family]()) == ""

    def test_changed_fields_in_field_order_as_json(self):
        assert bench.spec_label(bench.BridgeSpec(adversarial=True)) == "adversarial=true"
        assert bench.spec_label(bench.scaling_spec(bench.SCALING_SIZES[0])) == (
            "n_paths=20 chain_len=20 impeded_per_path=0.3 bridge_fraction=0.3")
        assert bench.spec_label(bench.GridSpec(cols=6, rows=4)) == "rows=4 cols=6"

    def test_scaling_sizes_are_told_apart(self):
        labels = [bench.spec_label(bench.scaling_spec(size)) for size in bench.SCALING_SIZES]
        assert len(set(labels)) == len(bench.SCALING_SIZES)

    def test_road_base_file_label_is_ascii(self, tmp_path):
        # The loaded network and its layout are not init fields, so only
        # the path shows, escaped to ASCII.
        road = tmp_path / "straße.txt"
        save_instance(bench.generate_road_like(8, seed=1), str(road))
        label = bench.spec_label(bench.RoadSpec(base_file=str(road)))
        assert label.isascii()
        assert label == f"base_file={json.dumps(str(road))}"
        assert "stra\\u00dfe.txt" in label


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
        {"specs": [{"chain_len": 1, "n_paths": 3}]},
        {"n_instances": 0},
        {"family": "grid", "specs": []},
        {"k_values": (2.5,)},
        {"k_values": ()},
        {"planners": ()},
        {"specs": [{"impeded_per_path": True}]},
        {"family": "grid", "specs": [{"n_impeded_cuts": True}]},
        {"planners": ("paa", "paa")},
        {"k_values": (2, 3, 2)},
        {"planners": ("naive", "rpp")},  # the naive baseline always runs
        {"specs": [{"chain_len": 2}]},  # chain edges outgrow every t_max
        {"specs": [{"chain_len": 3}]},
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
        (bench.GridSpec(), bench.BridgeSpec()),
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

    def test_jobs_start_no_more_workers_than_instances(self, monkeypatch, tmp_path):
        # The process pool forks all of its workers at the first submit, so
        # --jobs above the instance count gets one worker per instance, and
        # one instance runs with no pool.  The pool here records its size
        # and runs each task inline: no process is started.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(bench, "ProcessPoolExecutor", InlinePool)
        def run(spec, jobs):
            summary, failures = bench.run_experiment(spec, str(tmp_path / f"jobs{jobs}"), jobs=jobs)
            assert failures == []
            return [{key: v for key, v in row.items() if not key.endswith("_ms")} for row in summary]

        spec = replace(self.spec(), k_values=(1,), planners=("paa",))
        want = run(spec, 1)
        assert sizes == []
        for jobs, size in ((64, 3), (2, 2)):
            assert run(spec, jobs) == want
            assert sizes.pop() == size
        bench.run_experiment(replace(spec, n_instances=1), str(tmp_path / "one"), jobs=64)
        assert sizes == []

    def test_writes_outputs_and_is_deterministic(self, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        s1, f1 = bench.run_experiment(self.spec(), str(out1))
        s2, _ = bench.run_experiment(self.spec(), str(out2))
        assert sorted(os.listdir(out1)) == ["failures.csv", "runs.csv", "summary.csv"]
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
        with open(out1 / "runs.csv") as fh:
            rows = list(csv.DictReader(fh))
        # naive once per instance plus one row per (k, planner).
        assert len(rows) == 3 * (1 + 2 * 2)
        assert list(rows[0]) == list(bench.RUN_COLUMNS)

    def test_rows_are_the_instance_keys_and_the_run_totals(self):
        # Every runs.csv column past the instance's own is a run_totals entry,
        # and run_totals lists them in the columns' order.
        rows = bench.run_instance_suite(self.spec(), 0)
        totals = list(bench.run_totals(sim.run(*bench.demo_instance(), SimulationConfig())))
        assert [c for c in bench.RUN_COLUMNS if c not in totals] == [
            "instance_id", "seed", "planner", "k", "LB", "cost", "arrival_time", "family", "label",
            "n_vertices"]
        assert totals == [c for c in bench.RUN_COLUMNS if c in totals]
        assert all(sorted(r) == sorted(bench.RUN_COLUMNS) for r in rows)
        # The naive baseline first, then k-major, planner-minor: runs.csv's row order.
        assert [(r["planner"], r["k"]) for r in rows] == [
            ("naive", 1), ("rpp", 1), ("paa", 1), ("rpp", 2), ("paa", 2)]

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

    def test_report_pairs_each_run_with_its_own_seeds_naive_run(self, tmp_path):
        # Seeds run separately and concatenated share labels and instance
        # ids; each run's baseline is still the naive run of its own seed.
        rows = []
        for seed in (0, 1):
            spec = bench.ExperimentSpec(n_instances=2, k_values=(2,), planners=("paa",), seed=seed)
            bench.run_experiment(spec, str(tmp_path / str(seed)))
            rows += bench.read_runs_csv(str(tmp_path / str(seed) / "runs.csv"))
        naive = {(r["seed"], r["label"], r["instance_id"]): r["cost"] for r in rows if r["planner"] == "naive"}
        assert len(naive) == 4
        summary = bench.summarize_rows(rows)
        assert [(r["planner"], r["k"], r["n"]) for r in summary] == [("paa", 2, 4)]
        for s in summary:
            runs = [r for r in rows if (r["planner"], r["k"], r["label"]) == (s["planner"], s["k"], s["label"])]
            naive_cost = fmean(naive[r["seed"], r["label"], r["instance_id"]] for r in runs)
            assert s["naive_cost"] == naive_cost
            assert s["delta_pct"] == bench.delta_percent(s["LB"], naive_cost, s["cost"])

    def test_report_keeps_families_apart(self, tmp_path):
        # Two families' default specs share the label "", and at one seed
        # their runs share instance ids; concatenated, each family still
        # reads as it does alone.
        rows, alone = [], []
        for family in ("bridge", "grid"):
            spec = bench.ExperimentSpec(family=family, n_instances=1, k_values=(2,), planners=("paa",))
            summary, _ = bench.run_experiment(spec, str(tmp_path / family))
            alone += summary
            rows += bench.read_runs_csv(str(tmp_path / family / "runs.csv"))
        assert [(r["family"], r["label"], r["n"]) for r in alone] == [("bridge", "", 1), ("grid", "", 1)]
        assert bench.summarize_rows(rows) == alone
        # A runs.csv from before the family column reads as family "".
        with open(tmp_path / "grid" / "runs.csv", newline="") as fh:
            table = list(csv.reader(fh))
        col = table[0].index("family")
        old = tmp_path / "old_runs.csv"
        with open(old, "w", newline="") as fh:
            csv.writer(fh).writerows(row[:col] + row[col + 1:] for row in table)
        assert {r["family"] for r in bench.read_runs_csv(str(old))} == {""}

    def test_counter_columns_total_each_runs_replans(self, tmp_path):
        # Each counter column is the run's own total: the same mission run
        # directly gives the same sums.
        out = tmp_path / "run"
        bench.run_experiment(self.spec(), str(out))
        rows = bench.read_runs_csv(str(out / "runs.csv"))
        inst, real, _ = bench.make_instance(self.spec().specs[0], "99:1")
        spurred = 0
        for r in rows:
            if r["instance_id"] != 1:
                continue
            outcome = sim.run(inst, real, SimulationConfig(planner=r["planner"], k=r["k"]))
            totals = bench.run_totals(outcome)
            want = [sum(rec.critical_edges for rec in outcome.replans),
                    sum(rec.dfs_nodes for rec in outcome.replans),
                    sum(rec.expansions for rec in outcome.replans),
                    outcome.late_inspections,
                    *map(sum, zip(*(rec.spur for rec in outcome.replans)))]
            assert [r[c] for c in bench.COUNTER_COLUMNS] == [totals[c] for c in bench.COUNTER_COLUMNS] == want
            spurred += totals["spur_searches"] > 0
        assert spurred

    def test_report_rebuilds_the_summary_without_counter_columns(self, tmp_path):
        # A runs.csv written before the counter columns, i.e. cut to the
        # columns before them, gives report the same summary.csv bytes.
        out = tmp_path / "run"
        bench.run_experiment(self.spec(), str(out))
        with open(out / "runs.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        kept = len(bench.RUN_COLUMNS) - len(bench.COUNTER_COLUMNS)
        assert rows[0][kept:] == list(bench.COUNTER_COLUMNS)
        old = tmp_path / "old_runs.csv"
        with open(old, "w", newline="") as fh:
            csv.writer(fh).writerows(row[:kept] for row in rows)
        for runs in (out / "runs.csv", old):
            report = tmp_path / "report.csv"
            bench.write_csv(bench.summarize_rows(bench.read_runs_csv(str(runs))),
                            bench.SUMMARY_COLUMNS, str(report))
            assert report.read_bytes() == (out / "summary.csv").read_bytes()

    def test_report_reproduces_scaling_summary(self, tmp_path):
        spec = bench.ExperimentSpec(
            family="bridge", n_instances=1, k_values=(1, 2), planners=("paa",),
            seed=3, specs=(bench.scaling_spec((8, 4)), bench.scaling_spec((10, 5))),
        )
        out = tmp_path / "run"
        summary, _ = bench.run_experiment(spec, str(out))
        assert [(r["k"], r["label"], r["n"]) for r in summary] == [
            (k, f"n_paths={n_paths} chain_len={chain_len} impeded_per_path=0.3 bridge_fraction=0.3", 1)
            for k in (1, 2) for chain_len, n_paths in ((8, 4), (10, 5))
        ]
        rows = bench.read_runs_csv(str(out / "runs.csv"))
        assert {r["n_vertices"] for r in rows} == {8 * 4 + 2, 10 * 5 + 2}
        bench.write_csv(bench.summarize_rows(rows), bench.SUMMARY_COLUMNS, str(tmp_path / "report.csv"))
        assert (tmp_path / "report.csv").read_bytes() == (out / "summary.csv").read_bytes()


class TestDemoInstance:
    def test_validates_and_round_trips(self, tmp_path):
        inst, real = bench.demo_instance()
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_instance(inst, str(p1))
        save_instance(load_instance(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert sorted(real.true_cost) == [1, 4]
