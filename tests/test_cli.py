import csv
import dataclasses
import json
import os

import pytest

from scoutplan import bench, sim
from scoutplan.cli import DATA_ERROR, RUNTIME_ERROR, USAGE_ERROR, main
from scoutplan.core import load_instance, load_realization, save_instance, save_realization


def run_cli(*argv):
    return main(list(argv))


#: (family, generate spec) pairs that `generate` rejects as a data error.
BAD_GENERATE_SPECS = [
    ("grid", {"rowz": 4}),
    ("bridge", {"rowz": 4}),
    ("road", {"rowz": 4}),
    ("bridge", {"n_paths": 0}),
    ("bridge", {"chain_len": 20.5}),
    ("grid", {"rows": 1}),
    ("grid", {"count": "abc"}),
    ("bridge", {"chain_len": 1}),
    ("grid", {"rows": "x"}),
    ("grid", {"n_impeded_cuts": -1}),
    ("bridge", {"impeded_per_path": 0}),
    ("bridge", {"impeded_per_path": -1}),
    ("bridge", {"bridge_fraction": 1.5}),
    ("bridge", {"bridge_fraction": -0.1}),
    ("road", {"impeded_fraction": 2.0}),
    ("road", {"impeded_fraction": -0.5}),
    ("grid", {"count": 0}),
    ("bridge", {"count": -2}),
    ("grid", {"count": 2.7}),
    ("bridge", {"count": True}),
    ("bridge", [1, 2]),
    ("grid", None),
    ("road", "x"),
    ("road", {"base_file": 5}),
    ("road", {"n_vertices": 0}),
    ("road", {"n_vertices": -3}),
    ("road", {"n_vertices": 2.7}),
    ("road", {"n_vertices": "12"}),
    ("road", {"n_vertices": True}),
    ("road", {"impeded_fraction": "0.5"}),
    ("bridge", {"adversarial": "no"}),
    ("bridge", {"impeded_per_path": float("inf")}),
    ("bridge", {"impeded_per_path": True}),
    ("bridge", {"impeded_per_path": 2.7}),  # a count of 1 or more must be whole
]


class TestGenerate:
    def test_grid_family(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"rows": 4, "cols": 5, "count": 2}))
        rc = run_cli("generate", "--family", "grid", "--spec", str(spec),
                     "--seed", "3", "--out", str(tmp_path / "out"))
        assert rc == 0
        files = sorted(os.listdir(tmp_path / "out"))
        assert "instance_000.txt" in files and "realization_001.txt" in files

    def test_road_family_without_base(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_vertices": 20, "impeded_fraction": 0.4}))
        rc = run_cli("generate", "--family", "road", "--spec", str(spec),
                     "--seed", "1", "--out", str(tmp_path / "out"))
        assert rc == 0

    def test_unknown_spec_key_is_data_error(self, tmp_path):
        for i, (family, data) in enumerate(BAD_GENERATE_SPECS):
            spec = tmp_path / f"spec{i}.json"
            spec.write_text(json.dumps(data))
            out = tmp_path / f"out{i}"
            rc = run_cli("generate", "--family", family, "--spec", str(spec),
                         "--seed", "1", "--out", str(out))
            assert rc == DATA_ERROR, (family, data)
            assert not out.exists(), (family, data)

    def test_fixed_generator_values_are_unknown_keys(self, tmp_path, capsys):
        # Scout speed, cost window and geometry are constants of
        # scoutplan.bench, so a spec that sets one, even to its value, is
        # rejected naming it.
        removed = [
            ("grid", "spacing", 10.0), ("grid", "cut_style", "partial"),
            ("grid", "t_max_range", [80.0, 100.0]), ("grid", "uav_speed", 2.0),
            ("bridge", "t_max_range", [80.0, 100.0]),
            ("bridge", "bbox", [[10.0, 100.0], [190.0, -90.0]]),
            ("bridge", "p_coord", [0.0, 0.0]), ("bridge", "d_coord", [200.0, 0.0]),
            ("bridge", "uav_speed", 2.0),
        ]
        for family, key, value in removed:
            reason = f"unknown spec keys: {[key]}\n"
            spec = tmp_path / f"{family}_{key}.json"
            spec.write_text(json.dumps({key: value}))
            out = tmp_path / "out"
            assert run_cli("generate", "--family", family, "--spec", str(spec), "--out", str(out)) == DATA_ERROR
            assert capsys.readouterr().err == f"data error: bad generate spec {spec}: {reason}"
            spec.write_text(json.dumps({"family": family, "n_instances": 1, "specs": [{key: value}]}))
            assert run_cli("experiment", "--spec", str(spec), "--out", str(out)) == DATA_ERROR
            assert capsys.readouterr().err == f"data error: bad experiment spec {spec}: {reason}"
            assert not out.exists(), key

    def test_scaling_size(self, tmp_path):
        # A scaling-study size is a bridge spec: chain_len x n_paths chain
        # vertices, plus p and d.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**dataclasses.asdict(bench.scaling_spec((4, 2))), "count": 1}))
        rc = run_cli("generate", "--family", "bridge", "--spec", str(spec),
                     "--seed", "1", "--out", str(tmp_path / "out"))
        assert rc == 0
        assert load_instance(str(tmp_path / "out" / "instance_000.txt")).n_vertices == 4 * 2 + 2

    @pytest.mark.parametrize("command", ["generate", "experiment"])
    def test_unreadable_spec_is_data_error(self, tmp_path, capsys, command):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes('{"family": "bridge", "n_instances": 1, "seed": "é"}'.encode("latin-1"))
        missing = tmp_path / "missing.json"
        args = ["--family", "grid"] if command == "generate" else []
        for spec, reason in ((latin1, f"{latin1}: not UTF-8 text"),
                             (missing, f"cannot read spec {missing}")):
            out = tmp_path / "out"
            assert run_cli(command, *args, "--spec", str(spec), "--out", str(out)) == DATA_ERROR
            assert capsys.readouterr().err.startswith(f"data error: {reason}")
            assert not out.exists()


    @pytest.mark.parametrize("command", ["generate", "experiment"])
    def test_deeply_nested_spec_is_data_error(self, tmp_path, capsys, command):
        spec = tmp_path / "nested.json"
        spec.write_text("[" * 100_000)
        out = tmp_path / "out"
        args = ["--family", "grid"] if command == "generate" else []
        assert run_cli(command, *args, "--spec", str(spec), "--out", str(out)) == DATA_ERROR
        assert capsys.readouterr().err.startswith(f"data error: cannot read spec {spec}: ")
        assert not out.exists()


class TestSimulate:
    def write_pair(self, tmp_path):
        inst, real = bench.demo_instance()
        ip = tmp_path / "inst.txt"
        rp = tmp_path / "real.txt"
        save_instance(inst, str(ip))
        save_realization(real, str(rp))
        return str(ip), str(rp)

    def test_runs_and_logs(self, tmp_path, capsys):
        ip, rp = self.write_pair(tmp_path)
        log = tmp_path / "events.log"
        rc = run_cli("simulate", "--instance", ip, "--realization", rp,
                     "--planner", "rpp", "--k", "2", "--log", str(log))
        assert rc == 0
        out = capsys.readouterr().out
        assert "arrival_time 18.0" in out
        text = log.read_text()
        assert text.startswith("t=") and "reveal" in text

    @pytest.mark.parametrize("planner", ["rpp", "paa"])
    def test_prints_dfs_nodes_before_the_expansions(self, tmp_path, capsys, planner):
        # The tour-search nodes summed over the replans: some for rpp on a
        # mission with critical edges, none for paa, which runs no search.
        ip, rp = self.write_pair(tmp_path)
        inst = load_instance(ip)
        out = sim.run(inst, load_realization(rp, inst), sim.SimulationConfig(planner=planner, k=2))
        assert run_cli("simulate", "--instance", ip, "--realization", rp,
                       "--planner", planner, "--k", "2") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [f"dfs_nodes {out.dfs_nodes}", f"dstar_expansions {out.expansions}"]
        assert (out.dfs_nodes > 0) == (planner == "rpp")

    def test_no_uav_flag(self, tmp_path, capsys):
        # Planner none runs without the scout; the old --no-uav flag is gone.
        ip, rp = self.write_pair(tmp_path)
        rc = run_cli("simulate", "--instance", ip, "--realization", rp,
                     "--planner", "none", "--k", "2")
        assert rc == 0
        assert "arrival_time 24.0" in capsys.readouterr().out
        rc = run_cli("simulate", "--instance", ip, "--realization", rp,
                     "--planner", "rpp", "--k", "2", "--no-uav")
        assert rc == USAGE_ERROR
        assert "unrecognized arguments: --no-uav" in capsys.readouterr().err

    def test_weights_flag_is_usage_error(self, tmp_path, capsys):
        # The priority weights are the constant paa.WEIGHTS.
        ip, rp = self.write_pair(tmp_path)
        rc = run_cli("simulate", "--instance", ip, "--realization", rp,
                     "--planner", "paa", "--k", "2", "--weights", "0.4,0.3,0.2,0.1")
        assert rc == USAGE_ERROR
        assert "unrecognized arguments: --weights" in capsys.readouterr().err

    def test_repeated_realization_edge_is_data_error(self, tmp_path, capsys):
        ip, _ = self.write_pair(tmp_path)
        rp = tmp_path / "repeated.txt"
        rp.write_text("r 1 18.0\nr 4 12.0\nr 1 4.0\n")
        assert run_cli("simulate", "--instance", ip, "--realization", str(rp)) == DATA_ERROR
        assert "repeated edge id 1" in capsys.readouterr().err

    def test_missing_file_is_runtime_or_data_error(self, tmp_path):
        rc = run_cli("simulate", "--instance", str(tmp_path / "nope.txt"),
                     "--realization", str(tmp_path / "nope2.txt"))
        assert rc in (DATA_ERROR, RUNTIME_ERROR)

    def test_invalid_costs_and_speed_are_data_errors(self, tmp_path, capsys):
        ip, rp = self.write_pair(tmp_path)
        with open(ip) as fh:
            text = fh.read()
        for name, bad in (
            ("inf_cost.txt", text.replace("e 0 0 1 4.0 ", "e 0 0 1 inf ")),
            ("zero_speed.txt", text.replace("uav_speed=2.0", "uav_speed=0.0")),
            ("text_speed.txt", text.replace("uav_speed=2.0", "uav_speed=fast")),
            ("text_p.txt", text.replace("p=0", "p=x")),
            ("bad_free_flight.txt", text.replace("free_flight=0", "free_flight=yes")),
            ("misspelled_speed.txt", text.replace("uav_speed=", "uav_sped=")),
            ("extra_field.txt", text.replace("v 0 0.0 0.0", "v 0 0.0 0.0 junk")),
            ("two_meta.txt", text + "meta p=0 q=4 d=3\n"),
        ):
            assert bad != text
            path = tmp_path / name
            path.write_text(bad)
            assert run_cli("simulate", "--instance", str(path), "--realization", rp) == DATA_ERROR
            assert capsys.readouterr().err.startswith(f"data error: {path}:")

    def test_zero_true_cost_is_data_error(self, tmp_path, capsys):
        # A bound of 1e-12 lets a true cost of 0.0 pass the 1e-9 slack, but
        # a zero cost is not a cost: the file is rejected naming the edge,
        # instead of the mission failing later with no path.
        ip, rp = tmp_path / "inst.txt", tmp_path / "real.txt"
        ip.write_text(
            "sapp 1\nv 0 0.0 0.0\nv 1 1.0 0.0\nv 2 1.0 1.0\nv 3 0.0 1.0\n"
            "e 0 0 1 - 0.5 U 1e-12 1.0\ne 1 1 2 1.0 0.5 -\ne 2 0 3 1.0 0.5 -\n"
            "e 3 2 3 1.0 0.5 -\nmeta p=0 q=3 d=2 uav_speed=2.0 free_flight=1\n"
        )
        rp.write_text("r 0 0.0\n")
        rc = run_cli("simulate", "--instance", str(ip), "--realization", str(rp), "--planner", "paa")
        assert rc == DATA_ERROR
        assert capsys.readouterr().err == (
            f"data error: {rp}: edge 0: true cost 0.0 is not finite and positive\n")

    def test_missing_instance_is_runtime_error(self, tmp_path):
        _, rp = self.write_pair(tmp_path)
        rc = run_cli("simulate", "--instance", str(tmp_path / "nope.txt"), "--realization", rp)
        assert rc == RUNTIME_ERROR

    def test_corrupt_instance_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("sapp 1\nv 0 a b\n")
        rc = run_cli("simulate", "--instance", str(bad), "--realization", str(bad))
        assert rc == DATA_ERROR


class TestUsageErrors:
    def test_no_command(self):
        assert run_cli() == USAGE_ERROR

    def test_bad_flag(self):
        assert run_cli("simulate", "--bogus") == USAGE_ERROR

    def test_bad_choice(self):
        assert run_cli("generate", "--family", "hexagon", "--out", "x") == USAGE_ERROR

    def test_scaling_family_is_usage_error(self, tmp_path, capsys):
        # A scaling-study size is a bridge spec (bench.scaling_spec).
        out = tmp_path / "out"
        assert run_cli("generate", "--family", "scaling", "--out", str(out)) == USAGE_ERROR
        assert "invalid choice: 'scaling'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "-2", "two"])
    def test_k_below_one(self, tmp_path, k):
        rc = run_cli("simulate", "--instance", str(tmp_path / "i.txt"),
                     "--realization", str(tmp_path / "r.txt"), "--k", k)
        assert rc == USAGE_ERROR


class TestExperimentAndReport:
    def test_experiment_then_report(self, tmp_path, capsys):
        spec = tmp_path / "exp.json"
        spec.write_text(json.dumps({
            "family": "bridge", "n_instances": 2, "k_values": [1, 2],
            "planners": ["paa"], "seed": 5, "specs": [{"adversarial": True}],
        }))
        out = tmp_path / "results"
        rc = run_cli("experiment", "--spec", str(spec), "--out", str(out), "--jobs", "1")
        assert rc == 0
        assert (out / "runs.csv").exists() and (out / "summary.csv").exists()
        rc = run_cli("report", "--in", str(out), "--out", str(tmp_path / "summary2.csv"))
        assert rc == 0
        assert (tmp_path / "summary2.csv").read_bytes() == (out / "summary.csv").read_bytes()

    @pytest.mark.parametrize("bad", [
        {"family": "hexagon"},
        {"family": "road", "road_file": "roads.txt"},  # a family key outside specs
        {"planners": ["rpp", "astar"]},
        {"k_values": [2, 0]},
        {"k_values": ["2"]},
        {"weights": [0.2, 0.2, 0.2, 0.2, 0.2]},
        {"weights": 0.5},
        {"weights": ["heavy", 0.2]},
        {"weights": [1, 2]},
        {"weights": "1234"},
        {"weights": [1, 1, 1, float("nan")]},
        {"specs": [{"bridge_fraction": 5}]},
        {"specs": [{"impeded_per_path": 0}]},
        {"family": "road", "specs": [{"base_file": "roads.txt", "impeded_fraction": 1.5}]},
        {"specs": [{"chain_len": 1, "n_paths": 3}]},
        {"n_instances": -1},
        {"specs": [{"chain_len": 8, "n_paths": 4}, {"chain_len": 20, "n_paths": 0}]},
        {"k_values": [2.5], "planners": ["rpp"]},
        {"k_values": []},
        {"planners": []},
        [],  # not an object: read as the default sweep unless rejected
        None,
        {"family": "road", "specs": [{"base_file": 5}]},
        {"specs": [{"adversarial": "no"}]},
        {"seed": "x"},
        {"seed": 1.5},
        # A key that the family's spec does not have.
        {"family": "grid", "specs": [{"adversarial": True}]},
        {"family": "grid", "specs": [{"size": [8, 4]}]},
        {"specs": [{"base_file": "nope.txt"}]},
        {"specs": [{"impeded_fraction": 0.3}]},
        {"family": "road", "specs": [{"base_file": "roads.txt", "bridge_fraction": 0.2}]},
        # Not a number, or not finite.
        {"specs": [{"impeded_per_path": float("inf")}]},
        {"specs": [{"impeded_per_path": True}]},
        {"family": "grid", "specs": [{"n_impeded_cuts": True}]},
        {"specs": [{"bridge_fraction": True}]},
        # specs is a non-empty list of spec objects without count.
        {"specs": {"adversarial": True}},
        {"specs": None},
        {"specs": [{"adversarial": True}, [1, 2]]},
        {"specs": []},
        {"specs": [{"count": 2}]},
        # A family key outside specs.
        {"adversarial": True},
        {"chain_len": 8, "n_paths": 4},
        # The priority weights are a constant: weights is an unknown key.
        {"weights": ["1", True, "0.5", 0]},
        {"weights": ["0.4", "0.3", "0.2", "0.1"]},
        {"weights": [0.4, 0.3, 0.2, False]},
        # A planner and a k given twice.
        {"k_values": [2, 2], "planners": ["paa", "paa"]},
        # The naive baseline always runs, so planners must not list it.
        {"planners": ["naive", "rpp"]},
        # A nested list is no k and no planner.
        {"k_values": [[1]]},
        {"planners": [["rpp"]]},
    ])
    def test_bad_spec_is_data_error_before_running(self, tmp_path, capsys, bad):
        spec = tmp_path / "exp.json"
        if isinstance(bad, dict):
            bad = {"family": "bridge", "n_instances": 1, **bad}
        spec.write_text(json.dumps(bad))
        out = tmp_path / "results"
        rc = run_cli("experiment", "--spec", str(spec), "--out", str(out), "--jobs", "1")
        assert rc == DATA_ERROR
        assert "bad experiment spec" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad, message", [
        ({"k_values": [[1]]}, "every k must be an integer >= 1, got [1]"),
        ({"planners": [["rpp"]]}, "unknown planner ['rpp']"),
    ])
    def test_nested_list_fails_the_spec_check(self, tmp_path, capsys, bad, message):
        spec = tmp_path / "exp.json"
        spec.write_text(json.dumps({"family": "bridge", "n_instances": 1, **bad}))
        assert run_cli("experiment", "--spec", str(spec), "--out", str(tmp_path / "out")) == DATA_ERROR
        assert capsys.readouterr().err == f"data error: bad experiment spec {spec}: {message}\n"

    def test_scaling_family_is_data_error(self, tmp_path, capsys):
        spec = tmp_path / "exp.json"
        spec.write_text(json.dumps({"family": "scaling", "n_instances": 1}))
        out = tmp_path / "out"
        assert run_cli("experiment", "--spec", str(spec), "--out", str(out)) == DATA_ERROR
        assert capsys.readouterr().err == (
            f"data error: bad experiment spec {spec}: unknown family 'scaling', "
            f"expected one of ('grid', 'bridge', 'road')\n")
        assert not out.exists()

    def test_two_spec_experiment_summarizes_each_spec(self, tmp_path, capsys):
        # README's two-spec bridge experiment: one summary row per
        # (planner, k, spec), labelled by the spec, which report rebuilds.
        spec = tmp_path / "exp.json"
        spec.write_text(json.dumps({
            "family": "bridge", "n_instances": 1, "k_values": [2], "planners": ["paa"], "seed": 7,
            "specs": [{"impeded_per_path": 0.3}, {"impeded_per_path": 0.8}],
        }))
        out = tmp_path / "results"
        assert run_cli("experiment", "--spec", str(spec), "--out", str(out)) == 0
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in printed] == [
            "paa k=2 impeded_per_path=0.3", "paa k=2 impeded_per_path=0.8"]
        with open(out / "summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        assert [(r["planner"], r["k"], r["label"], r["n"]) for r in summary] == [
            ("paa", "2", "impeded_per_path=0.3", "1"), ("paa", "2", "impeded_per_path=0.8", "1")]
        runs = {r["label"]: r for r in bench.read_runs_csv(str(out / "runs.csv")) if r["planner"] == "paa"}
        for r in summary:
            assert float(r["cost"]) == runs[r["label"]]["cost"]
            assert float(r["cost_std"]) == 0.0
        assert run_cli("report", "--in", str(out), "--out", str(tmp_path / "summary.csv")) == 0
        assert (tmp_path / "summary.csv").read_bytes() == (out / "summary.csv").read_bytes()

    def test_weights_key_is_unknown(self, tmp_path, capsys):
        # The priority weights are the constant paa.WEIGHTS, so a spec that
        # sets them, even to their value, is rejected naming the key.
        spec = tmp_path / "exp.json"
        spec.write_text(json.dumps({"n_instances": 1, "weights": [0.25, 0.25, 0.2, 0.3]}))
        out = tmp_path / "out"
        assert run_cli("experiment", "--spec", str(spec), "--out", str(out)) == DATA_ERROR
        assert capsys.readouterr().err == f"data error: bad experiment spec {spec}: unknown spec keys: ['weights']\n"
        assert not out.exists()

    @pytest.mark.parametrize("bad,reason", [
        ({"planners": ["paa", "rpp", "paa"]}, "planners repeats 'paa'"),
        ({"k_values": [1, 3, 1]}, "k_values repeats 1"),
    ])
    def test_repeated_planner_or_k_names_the_value(self, tmp_path, capsys, bad, reason):
        spec = tmp_path / "exp.json"
        spec.write_text(json.dumps({"n_instances": 1, **bad}))
        assert run_cli("experiment", "--spec", str(spec), "--out", str(tmp_path / "out")) == DATA_ERROR
        assert capsys.readouterr().err == f"data error: bad experiment spec {spec}: {reason}\n"

    def test_two_jobs_write_what_one_job_writes(self, tmp_path):
        spec = tmp_path / "exp.json"
        spec.write_text(json.dumps({
            "family": "bridge", "n_instances": 3, "k_values": [1, 2], "planners": ["paa", "rpp"],
            "seed": 4, "specs": [{"n_paths": 3, "chain_len": 6}],
        }))
        outs = []
        for jobs in ("1", "2"):
            outs.append(tmp_path / f"jobs{jobs}")
            assert run_cli("experiment", "--spec", str(spec), "--out", str(outs[-1]), "--jobs", jobs) == 0
        assert (outs[0] / "failures.csv").read_bytes() == (outs[1] / "failures.csv").read_bytes()
        runs = []
        for out in outs:
            rows = bench.read_runs_csv(str(out / "runs.csv"))
            for r in rows:
                for wall_time in ("max_ugv_replan_ms", "max_uav_replan_ms", "max_uav_solver_ms"):
                    del r[wall_time]
            runs.append(rows)
        assert runs[0] == runs[1]
        assert len(runs[0]) == 3 * (1 + 2 * 2)

    def test_specs_entries_are_checked_as_generate_checks_them(self, tmp_path, capsys):
        # One check and one error message per family parameter.
        cases = [(f, d) for f, d in BAD_GENERATE_SPECS if isinstance(d, dict) and "count" not in d]
        for i, (family, data) in enumerate(cases):
            spec = tmp_path / f"spec{i}.json"
            spec.write_text(json.dumps(data))
            rc = run_cli("generate", "--family", family, "--spec", str(spec), "--out", str(tmp_path / "gen"))
            assert rc == DATA_ERROR, (family, data)
            reason = capsys.readouterr().err.split(f"{spec}: ", 1)[1]
            spec.write_text(json.dumps({"family": family, "n_instances": 1, "specs": [data]}))
            out = tmp_path / f"out{i}"
            assert run_cli("experiment", "--spec", str(spec), "--out", str(out)) == DATA_ERROR, (family, data)
            assert capsys.readouterr().err == f"data error: bad experiment spec {spec}: {reason}"
            assert not out.exists(), (family, data)

    @pytest.mark.parametrize("family,entry", [
        ("grid", {"rows": 4, "cols": 6, "n_impeded_cuts": 2}),
        ("bridge", {"n_paths": 3, "chain_len": 6, "adversarial": True}),
        ("road", {"n_vertices": 15, "impeded_fraction": 0.3}),
    ])
    def test_experiment_runs_the_instances_generate_writes(self, tmp_path, family, entry):
        gen = tmp_path / "gen"
        spec = tmp_path / "gen.json"
        spec.write_text(json.dumps({**entry, "count": 2}))
        assert run_cli("generate", "--family", family, "--spec", str(spec), "--seed", "11",
                       "--out", str(gen)) == 0
        spec = tmp_path / "exp.json"
        spec.write_text(json.dumps({
            "family": family, "n_instances": 2, "k_values": [1], "planners": ["paa"], "seed": 11,
            "specs": [entry],
        }))
        out = tmp_path / "results"
        assert run_cli("experiment", "--spec", str(spec), "--out", str(out)) == 0
        rows = bench.read_runs_csv(str(out / "runs.csv"))
        assert sorted({r["instance_id"] for r in rows}) == [0, 1]
        for r in rows:
            inst = load_instance(str(gen / f"instance_{r['instance_id']:03d}.txt"))
            real = load_realization(str(gen / f"realization_{r['instance_id']:03d}.txt"), inst)
            assert r["LB"] == sim.lower_bound(inst, real)
            assert r["n_vertices"] == inst.n_vertices

    def test_road_experiment_without_base_file_sweeps_synthetic_networks(self, tmp_path):
        spec = tmp_path / "exp.json"
        spec.write_text(json.dumps({"family": "road", "n_instances": 2, "k_values": [1], "planners": ["paa"]}))
        out = tmp_path / "results"
        assert run_cli("experiment", "--spec", str(spec), "--out", str(out)) == 0
        rows = bench.read_runs_csv(str(out / "runs.csv"))
        assert len(rows) == 2 * 2
        assert {r["n_vertices"] for r in rows} == {bench.RoadSpec().n_vertices}

    def test_road_file_is_loaded_once_before_running(self, tmp_path, monkeypatch):
        road = tmp_path / "road.txt"
        save_instance(bench.generate_road_like(12, seed=1), str(road))
        loads = []
        monkeypatch.setattr(bench, "load_instance", lambda path: loads.append(path) or load_instance(path))
        spec = tmp_path / "exp.json"
        spec.write_text(json.dumps({
            "family": "road", "n_instances": 3, "k_values": [1], "planners": ["paa"],
            "specs": [{"base_file": str(road)}],
        }))
        rc = run_cli("experiment", "--spec", str(spec), "--out", str(tmp_path / "ok"), "--jobs", "1")
        assert rc == 0
        assert loads == [str(road)]
        assert len(bench.read_runs_csv(str(tmp_path / "ok" / "runs.csv"))) == 3 * 2

    def test_bad_road_file_fails_before_running(self, tmp_path):
        corrupt = tmp_path / "corrupt.txt"
        corrupt.write_text("sapp 1\nv 0 a b\n")
        missing = str(tmp_path / "missing.txt")
        # A missing road file exits as a missing instance does in simulate.
        missing_rc = run_cli("simulate", "--instance", missing, "--realization", missing)
        for base_file, want in ((str(corrupt), DATA_ERROR), (missing, missing_rc)):
            spec = tmp_path / "exp.json"
            spec.write_text(json.dumps({"family": "road", "n_instances": 2, "specs": [{"base_file": base_file}]}))
            out = tmp_path / "results"
            rc = run_cli("experiment", "--spec", str(spec), "--out", str(out), "--jobs", "1")
            assert rc == want, base_file
            assert not out.exists(), base_file

    def test_report_rejects_runs_without_label_columns(self, tmp_path):
        runs = tmp_path / "runs.csv"
        runs.write_text("instance_id,seed,planner,k,LB,cost\n0,1,naive,1,2.0,3.0\n")
        rc = run_cli("report", "--in", str(runs), "--out", str(tmp_path / "summary.csv"))
        assert rc == DATA_ERROR

    @pytest.mark.parametrize(
        "row,where",
        [
            ("0,1,naive,x,2.0,3.0,3.0,1,0.1,0.1,,5,0.1,0", ":3:"),  # non-numeric k
            ("0,1,naive,1,2.0,3.0,3.0,1,0.1,0.1,,5,0.1", ":3:"),  # one cell short
            ("0,1,naive,1,2.0,3.0,3.0,1,0.1,0.1,,5,0.1,0,9", ":3:"),  # one cell long
            ("0,1,naive,1,2.0,3.0,3.0,1,0.1,0.1,\xff,5,0.1,0", "not UTF-8"),
            ("0,1,naive,1,inf,3.0,3.0,1,0.1,0.1,,5,0.1,0", ":3: LB inf"),
            ("0,1,naive,1,2.0,-3.0,3.0,1,0.1,0.1,,5,0.1,0", ":3: cost -3.0"),
            ("0,1,naive,1,2.0,3.0,3.0,-1,0.1,0.1,,5,0.1,0", ":3: n_replans -1"),
            ("0,1,naive,1,2.0,3.0,nan,1,0.1,0.1,,5,0.1,0", ":3: arrival_time nan"),
            ("0,1,naive,0,2.0,3.0,3.0,1,0.1,0.1,,5,0.1,0", ":3: k 0"),
            ("0,1,naive,1,2.0,3.0,3.0,1,0.1,0.1,,0,0.1,0", ":3: n_vertices 0"),
            ("0,1,naive,1,2.0,3.0,3.0,1,0.1,0.1," + "x" * 200_000 + ",5,0.1,0", ":3: field larger"),
        ],
        ids=["non-numeric", "short", "long", "not-utf8", "LB-inf", "negative-cost",
             "negative-replans", "nan-arrival", "k-zero", "no-vertices", "oversize-label"],
    )
    def test_report_rejects_malformed_runs_as_data_error(self, tmp_path, capsys, row, where):
        # A good row, then the bad one on line 3; without it report succeeds.
        runs = tmp_path / "runs.csv"
        good = "0,1,naive,1,2.0,3.0,3.0,1,0.1,0.1,,5,0.1,0"
        text = ",".join(bench.RUN_COLUMNS) + "\n" + good + "\n"
        runs.write_bytes(text.encode() + row.encode("latin-1") + b"\n")
        assert run_cli("report", "--in", str(runs), "--out", str(tmp_path / "ok.csv")) == DATA_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {runs}") and where in err
        runs.write_text(text)
        assert run_cli("report", "--in", str(runs), "--out", str(tmp_path / "ok.csv")) == 0

    def test_failed_instance_is_recorded_and_exits_3(self, tmp_path, monkeypatch, capsys):
        make_instance = bench.make_instance

        def failing_make_instance(spec, tag):
            if tag == "5:1":
                raise ValueError("injected failure")
            return make_instance(spec, tag)

        monkeypatch.setattr(bench, "make_instance", failing_make_instance)
        spec = tmp_path / "exp.json"
        spec.write_text(json.dumps({
            "family": "bridge", "n_instances": 2, "k_values": [1],
            "planners": ["paa"], "seed": 5,
        }))
        out = tmp_path / "results"
        rc = run_cli("experiment", "--spec", str(spec), "--out", str(out), "--jobs", "1")
        assert rc == RUNTIME_ERROR
        assert "1 instance(s) failed" in capsys.readouterr().err
        with open(out / "failures.csv", newline="") as fh:
            failures = list(csv.DictReader(fh))
        assert failures == [
            {"instance_id": "1", "seed": "5", "error": "ValueError", "message": "injected failure"}
        ]
        assert {r["instance_id"] for r in bench.read_runs_csv(str(out / "runs.csv"))} == {0}
