"""Command-line front end.

Subcommands: generate (instance families to files), simulate (one mission),
experiment (full sweep to CSV), report (re-aggregate per-run CSV).
Exit codes: 0 success, 1 usage, 2 data error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import bench, sim
from .core import (
    InstanceError,
    NoPathError,
    check_at_least,
    load_instance,
    load_realization,
    read_text,
    save_instance,
    save_realization,
)

USAGE_ERROR = 1
DATA_ERROR = 2
RUNTIME_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _load_json(path: str, command: str) -> dict:
    """The JSON object in a spec file; anything else is a data error."""
    try:
        data = json.loads(read_text(path))
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise InstanceError(f"cannot read spec {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InstanceError(f"bad {command} spec {path}: expected a JSON object, got {type(data).__name__}")
    return data


def _dataclass_from(cls, data: dict):
    """`cls` built from a spec object; a key that is not an init field is an error."""
    fields = {f.name for f in cls.__dataclass_fields__.values() if f.init}
    unknown = set(data) - fields
    if unknown:
        raise InstanceError(f"unknown spec keys: {sorted(unknown)}")
    return cls(**{key: tuple(val) if isinstance(val, list) else val for key, val in data.items()})


def cmd_generate(args) -> int:
    data = _load_json(args.spec, "generate") if args.spec else {}
    count = data.pop("count", 1)
    try:
        check_at_least("count", count, 1)
        spec = _dataclass_from(bench.FAMILY_SPECS[args.family], data)
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"bad generate spec {args.spec}: {exc}") from None
    os.makedirs(args.out, exist_ok=True)
    for i in range(count):
        inst, real, road_base = bench.make_instance(spec, f"{args.seed}:{i}")
        if road_base is not None:
            save_instance(road_base, os.path.join(args.out, f"road_base_{i:03d}.txt"))
        save_instance(inst, os.path.join(args.out, f"instance_{i:03d}.txt"))
        save_realization(real, os.path.join(args.out, f"realization_{i:03d}.txt"))
    print(f"wrote {count} instance(s) to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    inst = load_instance(args.instance)
    real = load_realization(args.realization, inst)
    cfg = sim.SimulationConfig(planner=args.planner, k=args.k)
    outcome = sim.run(inst, real, cfg)
    if args.log:
        with open(args.log, "w") as fh:
            fh.write(outcome.event_log_text())
    print(f"arrival_time {outcome.arrival_time!r}")
    print(f"lower_bound {outcome.lower_bound!r}")
    for name, total in bench.run_totals(outcome).items():
        print(f"{name} {total:.3f}" if isinstance(total, float) else f"{name} {total}")
    return 0


def cmd_experiment(args) -> int:
    data = _load_json(args.spec, "experiment")
    try:
        spec = _dataclass_from(bench.ExperimentSpec, {k: v for k, v in data.items() if k != "specs"})
        if "specs" in data:
            # Each entry is what `generate --spec` takes for the family, minus count.
            entries = data["specs"]
            if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
                raise ValueError(f"specs must be a list of spec objects, got {entries!r}")
            family = bench.FAMILY_SPECS[spec.family]
            specs = tuple(_dataclass_from(family, entry) for entry in entries)
            spec = dataclasses.replace(spec, specs=specs)
    except (TypeError, ValueError) as exc:
        raise InstanceError(f"bad experiment spec {args.spec}: {exc}") from None
    summary, failures = bench.run_experiment(spec, args.out, jobs=args.jobs)
    for row in summary:
        print(
            f"{row['planner']} k={row['k']}{' ' + row['label'] if row['label'] else ''}: "
            f"LB {row['LB']:.1f} naive {row['naive_cost']:.1f} cost {row['cost']:.1f} "
            f"delta {row['delta_pct']:.1f}%"
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
    bench.write_csv(summary, bench.SUMMARY_COLUMNS, args.out)
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
    g.add_argument("--family", required=True, choices=bench.FAMILY_SPECS)
    g.add_argument("--spec", help="JSON file with generator parameters")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("simulate", help="simulate one mission")
    s.add_argument("--instance", required=True)
    s.add_argument("--realization", required=True)
    s.add_argument("--planner", default="rpp", choices=tuple(sim.PLANNERS),
                   help="the scout's planner; none runs without the scout")
    s.add_argument("--k", type=_positive_int, default=3)
    s.add_argument("--log", help="write the event log to this file")
    s.set_defaults(func=cmd_simulate)

    e = sub.add_parser("experiment", help="run a sweep from a JSON spec")
    e.add_argument("--spec", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--jobs", type=_positive_int, default=1)
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
