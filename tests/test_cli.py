import csv
import json
import os

import pytest

from scoutplan import bench
from scoutplan.cli import DATA_ERROR, RUNTIME_ERROR, USAGE_ERROR, main
from scoutplan.core import load_instance, save_instance, save_realization


def run_cli(*argv):
    return main(list(argv))


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
        cases = [
            ("grid", {"rowz": 4}),
            ("scaling", {"rowz": 4}),
            ("road", {"rowz": 4}),
            ("scaling", {"size": [8]}),
            ("scaling", {"size": [1, 3]}),
            ("scaling", {"size": [20, 0]}),
            ("scaling", {"size": [20.5, 20]}),
            ("scaling", {"size": "20x20"}),
            ("grid", {"rows": 1}),
            ("grid", {"count": "abc"}),
            ("bridge", {"chain_len": 1}),
            ("grid", {"rows": "x"}),
            ("grid", {"n_impeded_cuts": -1}),
            ("grid", {"cut_style": "diagonal"}),
            ("bridge", {"impeded_per_path": 0}),
            ("bridge", {"impeded_per_path": -1}),
            ("bridge", {"bridge_fraction": 1.5}),
            ("bridge", {"bridge_fraction": -0.1}),
            ("road", {"impeded_fraction": 2.0}),
            ("road", {"impeded_fraction": -0.5}),
            ("grid", {"count": 0}),
            ("bridge", {"count": -2}),
        ]
        for i, (family, data) in enumerate(cases):
            spec = tmp_path / f"spec{i}.json"
            spec.write_text(json.dumps(data))
            out = tmp_path / f"out{i}"
            rc = run_cli("generate", "--family", family, "--spec", str(spec),
                         "--seed", "1", "--out", str(out))
            assert rc == DATA_ERROR, (family, data)
            assert not (out / "instance_000.txt").exists()

    def test_scaling_size(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"size": [4, 2], "count": 1}))
        rc = run_cli("generate", "--family", "scaling", "--spec", str(spec),
                     "--seed", "1", "--out", str(tmp_path / "out"))
        assert rc == 0
        assert load_instance(str(tmp_path / "out" / "instance_000.txt")).n_vertices == 4 * 2 + 2


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

    def test_no_uav_flag(self, tmp_path, capsys):
        ip, rp = self.write_pair(tmp_path)
        rc = run_cli("simulate", "--instance", ip, "--realization", rp,
                     "--planner", "rpp", "--k", "2", "--no-uav")
        assert rc == 0
        assert "arrival_time 24.0" in capsys.readouterr().out

    def test_weights_flag(self, tmp_path, capsys):
        ip, rp = self.write_pair(tmp_path)
        rc = run_cli("simulate", "--instance", ip, "--realization", rp,
                     "--planner", "paa", "--k", "2", "--weights", "0.4,0.3,0.2,0.1")
        assert rc == 0

    def test_missing_file_is_runtime_or_data_error(self, tmp_path):
        rc = run_cli("simulate", "--instance", str(tmp_path / "nope.txt"),
                     "--realization", str(tmp_path / "nope2.txt"))
        assert rc in (DATA_ERROR, RUNTIME_ERROR)

    def test_invalid_costs_and_speed_are_data_errors(self, tmp_path):
        ip, rp = self.write_pair(tmp_path)
        text = open(ip).read()
        for name, bad in (
            ("inf_cost.txt", text.replace("e 0 0 1 4.0 ", "e 0 0 1 inf ")),
            ("zero_speed.txt", text.replace("uav_speed=2.0", "uav_speed=0.0")),
            ("text_speed.txt", text.replace("uav_speed=2.0", "uav_speed=fast")),
            ("text_p.txt", text.replace("p=0", "p=x")),
            ("bad_free_flight.txt", text.replace("free_flight=0", "free_flight=yes")),
        ):
            assert bad != text
            path = tmp_path / name
            path.write_text(bad)
            assert run_cli("simulate", "--instance", str(path), "--realization", rp) == DATA_ERROR

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
            "planners": ["paa"], "seed": 5, "adversarial": True,
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
        {"family": "road"},
        {"planners": ["rpp", "astar"]},
        {"k_values": [2, 0]},
        {"k_values": ["2"]},
        {"weights": [0.2, 0.2, 0.2, 0.2, 0.2]},
        {"weights": 0.5},
        {"weights": ["heavy", 0.2]},
        {"bridge_fraction": 5},
        {"impeded_per_path": 0},
        {"family": "road", "road_file": "roads.txt", "impeded_fraction": 1.5},
    ])
    def test_bad_spec_is_data_error_before_running(self, tmp_path, capsys, bad):
        spec = tmp_path / "exp.json"
        spec.write_text(json.dumps({"family": "bridge", "n_instances": 1, **bad}))
        out = tmp_path / "results"
        rc = run_cli("experiment", "--spec", str(spec), "--out", str(out), "--jobs", "1")
        assert rc == DATA_ERROR
        assert "bad experiment spec" in capsys.readouterr().err
        assert not out.exists()

    def test_report_rejects_runs_without_label_columns(self, tmp_path):
        runs = tmp_path / "runs.csv"
        runs.write_text("instance_id,seed,planner,k,LB,cost\n0,1,naive,1,2.0,3.0\n")
        rc = run_cli("report", "--in", str(runs), "--out", str(tmp_path / "summary.csv"))
        assert rc == DATA_ERROR

    def test_failed_instance_is_recorded_and_exits_3(self, tmp_path, monkeypatch, capsys):
        make_instance = bench._make_instance

        def failing_make_instance(spec, index):
            if index == 1:
                raise ValueError("injected failure")
            return make_instance(spec, index)

        monkeypatch.setattr(bench, "_make_instance", failing_make_instance)
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
