"""Command-line front end.

Subcommands: generate (instance families to files), simulate (one mission),
experiment (full sweep to CSV), report (re-aggregate per-run CSV).
Exit codes: 0 success, 1 usage, 2 data error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import bench, sim
from .core import (
    InstanceError,
    NoPathError,
    load_instance,
    load_realization,
    sample_realization,
    save_instance,
    save_realization,
)
from .paa import PriorityWeights

USAGE_ERROR = 1
DATA_ERROR = 2
RUNTIME_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InstanceError(f"cannot read spec {path}: {exc}") from None


def _dataclass_from(cls, data: dict):
    fields = {f.name for f in cls.__dataclass_fields__.values()}
    unknown = set(data) - fields
    if unknown:
        raise InstanceError(f"unknown spec keys: {sorted(unknown)}")
    kwargs = dict(data)
    for key, val in kwargs.items():
        if isinstance(val, list):
            kwargs[key] = tuple(tuple(v) if isinstance(v, list) else v for v in val)
    return cls(**kwargs)


#: Spec keys (besides "count") of the families without a spec dataclass.
_SPEC_KEYS = {"scaling": {"size"}, "road": {"n_vertices", "impeded_fraction", "base_file"}}


def cmd_generate(args) -> int:
    data = _load_json(args.spec) if args.spec else {}
    count = data.pop("count", 1)
    unknown = set(data) - _SPEC_KEYS.get(args.family, set(data))
    if unknown:
        raise InstanceError(f"unknown spec keys: {sorted(unknown)}")
    try:
        count = int(count)
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        if args.family == "grid":
            spec = _dataclass_from(bench.GridSpec, data)
        elif args.family == "bridge":
            spec = _dataclass_from(bench.BridgeSpec, data)
        elif args.family == "scaling":
            spec = bench.scaling_spec(tuple(data.get("size", bench.SCALING_SIZES[0])))
        else:
            n_vertices = int(data.get("n_vertices", 30))
            fraction = float(data.get("impeded_fraction", 0.5))
            bench.check_fraction("impeded_fraction", fraction)
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"bad generate spec {args.spec}: {exc}") from None
    os.makedirs(args.out, exist_ok=True)
    for i in range(count):
        seed = random.Random(f"{args.seed}:{i}").getrandbits(31)
        if args.family == "grid":
            inst, real = bench.generate_grid(spec, seed)
        elif args.family != "road":
            inst, real = bench.generate_bridge(spec, seed)
        else:
            base_file = data.get("base_file")
            if base_file is None:
                base_file = os.path.join(args.out, f"road_base_{i:03d}.txt")
                save_instance(bench.generate_road_like(n_vertices, seed), base_file)
            inst = bench.import_road_network(base_file, fraction, seed)
            real = sample_realization(inst, random.Random(f"real:{args.seed}:{i}"))
        save_instance(inst, os.path.join(args.out, f"instance_{i:03d}.txt"))
        save_realization(real, os.path.join(args.out, f"realization_{i:03d}.txt"))
    print(f"wrote {count} instance(s) to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    inst = load_instance(args.instance)
    real = load_realization(args.realization, inst)
    weights = PriorityWeights()
    if args.weights:
        try:
            w = [float(x) for x in args.weights.split(",")]
            weights = PriorityWeights(*w)
        except (ValueError, TypeError):
            raise InstanceError(f"bad weights {args.weights!r}, expected w1,w2,w3,w4")
    cfg = sim.SimulationConfig(
        planner=args.planner,
        k=args.k,
        weights=weights,
        uav_enabled=not args.no_uav,
    )
    outcome = sim.run(inst, real, cfg)
    if args.log:
        with open(args.log, "w") as fh:
            fh.write(outcome.event_log_text())
    print(f"arrival_time {outcome.arrival_time!r}")
    print(f"lower_bound {outcome.lower_bound!r}")
    print(f"n_replans {outcome.n_replans}")
    print(f"max_ugv_replan_ms {outcome.max_ugv_replan_s * 1e3:.3f}")
    print(f"max_uav_replan_ms {outcome.max_uav_replan_s * 1e3:.3f}")
    return 0


def cmd_experiment(args) -> int:
    data = _load_json(args.spec)
    try:
        if "weights" in data:
            data["weights"] = PriorityWeights(*map(float, data["weights"]))
        spec = _dataclass_from(bench.ExperimentSpec, data)
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"bad experiment spec {args.spec}: {exc}") from None
    summary, failures = bench.run_experiment(spec, args.out, jobs=args.jobs)
    for row in summary:
        print(
            f"{row.planner} k={row.k}{' ' + row.label if row.label else ''}: "
            f"LB {row.lb_mean:.1f} naive {row.naive_mean:.1f} cost {row.cost_mean:.1f} "
            f"delta {row.delta:.1f}%"
        )
    if failures:
        where = os.path.join(args.out, "failures.csv")
        print(f"runtime error: {len(failures)} instance(s) failed, see {where}", file=sys.stderr)
        return RUNTIME_ERROR
    return 0


def cmd_report(args) -> int:
    path = args.input
    if os.path.isdir(path):
        path = os.path.join(path, "runs.csv")
    rows = bench.read_runs_csv(path)
    summary = bench.summarize_rows(rows)
    bench.write_summary_csv(summary, args.out)
    print(f"wrote {args.out} ({len(summary)} row(s))")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as a usage error
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scoutplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate instance files")
    g.add_argument("--family", required=True, choices=bench.FAMILIES)
    g.add_argument("--spec", help="JSON file with generator parameters")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("simulate", help="simulate one mission")
    s.add_argument("--instance", required=True)
    s.add_argument("--realization", required=True)
    s.add_argument("--planner", default="rpp", choices=tuple(sim.PLANNERS))
    s.add_argument("--k", type=_positive_int, default=3)
    s.add_argument("--weights", help="w1,w2,w3,w4 for the priority planner")
    s.add_argument("--no-uav", action="store_true", help="run without the scout")
    s.add_argument("--log", help="write the event log to this file")
    s.set_defaults(func=cmd_simulate)

    e = sub.add_parser("experiment", help="run a sweep from a JSON spec")
    e.add_argument("--spec", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--jobs", type=int, default=1)
    e.set_defaults(func=cmd_experiment)

    r = sub.add_parser("report", help="aggregate a runs.csv into a summary")
    r.add_argument("--in", dest="input", required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return args.func(args)
    except InstanceError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (NoPathError, OSError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
