"""scoutplan benchmark: mission throughput and replan latency.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs `scoutplan.sim.run` missions of one workload, one at a time, from a
single process (a closed loop with one client).  Every mission passes a
correctness gate: it completes, it arrives no earlier than the
perfect-information lower bound, and its event log matches the digest
recorded for it at the seed commit, where one exists (or, failing that,
the digest of its first run in this process).

``--trace 0`` reports the end-to-end metrics with nothing installed.  It
generates the mission list several times (setup), then runs whole passes
over the list: as many as the first pass says fit in ``--seconds``, and
at least one.
``--trace 1`` runs the list once untraced and once with the per-layer
tracer installed, and reports the per-layer metrics; its counts are exact
for a seed.

Times are reported at the reference host speed: each run times a fixed
reference kernel between missions and scales its measured times by the
kernel's nominal time over its measured time (see calibrate.py).  The
unscaled values are printed and kept in the result file.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Details, failures with their
tracebacks, and the spans of a traced run go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import traceback
from pathlib import Path
from time import perf_counter

from calibrate import SpeedMeter
from tracer import Tracer
from workloads import WORKLOADS, Workload, sim

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
REFERENCES = HERE / "references.json"
SETUP_REPEATS = 5
SETUP_KERNEL_SAMPLES = 3
LB_REL_TOL = 1e-9


def digest(outcome: sim.SimulationOutcome) -> str:
    return hashlib.sha256(outcome.event_log_text().encode()).hexdigest()


def load_references(workload: Workload, seed: int) -> dict[int, str]:
    """Seed-commit event-log digests by list index, for the missions that
    had no RPP budget hit when they were recorded."""
    if not REFERENCES.is_file():
        return {}
    entry = json.loads(REFERENCES.read_text())["workloads"].get(workload.name, {})
    digests = entry.get("core", [])[: workload.core]
    digests += [None] * (workload.core - len(digests))
    digests += entry.get("tail", {}).get(str(seed), [])
    return {i: d for i, d in enumerate(digests) if d is not None}


class Session:
    """Runs the missions of one workload and seed through the correctness
    gate and keeps what the metrics need."""

    def __init__(self, workload: Workload, seed: int, instances, references: dict[int, str]):
        self.workload = workload
        self.seed = seed
        self.instances = instances
        self.config = workload.config()
        self.references = references
        self.seen: dict[int, str] = {}  # digest of each mission's first run here
        self.mission_s: list[float] = []
        self.mission_index: list[int] = []
        self.replan_ms: list[float] = []
        self.ratio: dict[int, float] = {}
        self.budget_hit_missions: list[int] = []
        self.digests_checked = 0
        self.failed = 0
        self.failures: list[dict] = []

    def run_pass(self, meter: SpeedMeter) -> float:
        """Run every mission of the list once, with the meter ticking between
        missions; return the summed sim.run seconds."""
        total = 0.0
        for index in range(len(self.instances)):
            meter.tick()
            total += self.mission(index)
        meter.tick()
        return total

    def mission(self, index: int) -> float:
        inst, real = self.instances[index]
        self.mission_index.append(index)
        t0 = perf_counter()
        try:
            outcome = sim.run(inst, real, self.config)
        except Exception as exc:
            elapsed = perf_counter() - t0
            self.mission_s.append(elapsed)
            self._fail(index, [f"{type(exc).__name__}: {exc}"], traceback.format_exc())
            return elapsed
        elapsed = perf_counter() - t0
        self.mission_s.append(elapsed)
        self.replan_ms.extend((r.ugv_seconds + r.uav_seconds) * 1e3 for r in outcome.replans)
        self._check(index, outcome)
        return elapsed

    def _check(self, index: int, outcome: sim.SimulationOutcome) -> None:
        problems = []
        lb = outcome.lower_bound
        self.ratio[index] = outcome.arrival_time / lb if lb > 0 else 1.0
        if outcome.arrival_time < lb - LB_REL_TOL * abs(lb):
            problems.append(f"arrival {outcome.arrival_time!r} is below the lower bound {lb!r}")
        # A budget hit makes the tour depend on machine speed (a known
        # defect), so such a mission skips the digest check and nothing else.
        if outcome.budget_hits:
            self.budget_hit_missions.append(index)
        else:
            got = digest(outcome)
            expected = self.references.get(index) or self.seen.get(index)
            self.seen.setdefault(index, got)
            if expected is not None:
                self.digests_checked += 1
                if got != expected:
                    problems.append(f"event log digest {got[:16]} differs from {expected[:16]}")
        if problems:
            self._fail(index, problems)

    def _fail(self, index: int, problems: list[str], trace: str = "") -> None:
        self.failed += 1
        failure = {"workload": self.workload.name, "seed": self.seed, "instance": index,
                   "error": "; ".join(problems)}
        print("FAILED " + json.dumps(failure), flush=True)
        self.failures.append({**failure, "traceback": trace})

    def details(self) -> dict:
        return {
            "missions": len(self.mission_s),
            "replans": len(self.replan_ms),
            "budget_hit_missions": len(self.budget_hit_missions),
            "budget_hit_instances": sorted(set(self.budget_hit_missions)),
            "digests_checked": self.digests_checked,
            "failures": self.failures,
            "mission_ms": [[i, t * 1e3] for i, t in zip(self.mission_index, self.mission_s)],
        }


def setup(workload: Workload, seed: int, repeats: int) -> tuple[list, float, float]:
    """Generate the mission list `repeats` times.  Returns the list, the
    median generation time and the host speed scale from kernel samples
    taken around the generations."""
    meter = SpeedMeter()
    times = []
    for _ in range(repeats):
        meter.sample(SETUP_KERNEL_SAMPLES)  # before the collection warms its data
        instances = None  # so peak memory holds one list, not two
        gc.collect()  # every generation starts from the same heap
        t0 = perf_counter()
        instances = workload.instances(seed)
        times.append(perf_counter() - t0)
    meter.sample(SETUP_KERNEL_SAMPLES)
    return instances, statistics.median(times), meter.scale


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1 <= q <= 99) as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(workload: Workload, seed: int, seconds: float) -> tuple[Session, dict, list[str]]:
    instances, setup_raw, setup_scale = setup(workload, seed, SETUP_REPEATS)
    meter = SpeedMeter()
    session = Session(workload, seed, instances, load_references(workload, seed))
    gc.collect()
    # Whole passes only, so every instance weighs the same in every metric:
    # as many as the first pass says fit in `seconds`, and at least one.
    first = session.run_pass(meter)
    busy = first
    for _ in range(int(seconds // first) - 1 if first > 0 else 0):
        busy += session.run_pass(meter)
    completed = len(session.mission_s) - session.failed
    ratios = list(session.ratio.values())
    raw = {
        "setup_s": setup_raw,
        "missions_per_s": completed / busy if busy > 0 else 0.0,
        "mission_ms.p50": statistics.median(session.mission_s) * 1e3,
        "replan_ms.p50": percentile(session.replan_ms, 50),
        "replan_ms.p90": percentile(session.replan_ms, 90),
    }
    scale = meter.scale
    metrics = {
        "setup_s": (setup_raw * setup_scale, "s"),
        "missions_per_s": (raw["missions_per_s"] / scale, "1/s"),
        "mission_ms.p50": (raw["mission_ms.p50"] * scale, "ms"),
        "replan_ms.p50": (raw["replan_ms.p50"] * scale, "ms"),
        "replan_ms.p90": (raw["replan_ms.p90"] * scale, "ms"),
        "arrival_ratio": (statistics.mean(ratios) if ratios else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    n_rp = len(session.replan_ms)
    notes = [
        f"host speed scale {scale:.4f} from {len(meter.samples)} reference kernel runs; unscaled: "
        + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()),
        f"setup_s: median of {SETUP_REPEATS} generations of {len(instances)} instances,"
        f" scaled by {setup_scale:.4f} from kernel samples taken around them",
        f"missions_per_s: {completed} missions completed in {busy:.3f} s of sim.run",
        f"mission_ms.p50: over {len(session.mission_s)} missions",
        f"replan_ms.p50: over {n_rp} replans ({n_rp // 2} beyond it)",
        f"replan_ms.p90: over {n_rp} replans ({n_rp // 10} beyond it)",
        f"arrival_ratio: mean over {len(ratios)} distinct instances",
        f"failed_missions: {session.failed} of {len(session.mission_s)}"
        f" ({session.failed / max(1, len(session.mission_s)):.1%})",
        f"rpp.budget_hits: {len(session.budget_hit_missions)} missions hit the RPP budget"
        f" (instances {sorted(set(session.budget_hit_missions))}); their digests go unchecked",
        f"digests checked: {session.digests_checked}",
    ]
    return session, metrics, notes


def per_layer(workload: Workload, seed: int) -> tuple[Session, dict, list[str], Tracer]:
    instances, generate_s, generate_scale = setup(workload, seed, 1)
    untraced, traced = SpeedMeter(), SpeedMeter()
    session = Session(workload, seed, instances, load_references(workload, seed))
    gc.collect()
    untraced_s = session.run_pass(untraced)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = session.run_pass(traced)
    finally:
        tracer.uninstall()

    c = tracer.totals()
    # Layer times at the reference speed of the traced pass.
    ms = {name: (total * traced.scale, self_ * traced.scale)
          for name, (total, self_) in tracer.layer_ms().items()}
    run_ms = ms["sim.run"][0]

    def share(name: str) -> float:
        return 100.0 * ms[name][0] / run_ms if run_ms > 0 else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics = {
        "sim.run.ms": (run_ms, "ms"),
        "sim.run.self_ms": (ms["sim.run"][1], "ms"),
        "sim.lower_bound.ms": (ms["sim.lower_bound"][0], "ms"),
        "sim.replans": (c["sim.replans"], "count"),
        "sim.cancel_replans": (c["sim.cancel_replans"], "count"),
        "sim.events": (c["sim.events"], "count"),
        "kspp.update_k_paths.ms": (ms["kspp.update_k_paths"][0], "ms"),
        "kspp.update_k_paths.self_ms": (ms["kspp.update_k_paths"][1], "ms"),
        "kspp.update_k_paths.share": (share("kspp.update_k_paths"), "%"),
        "kspp.spur_searches": (c["kspp.spur_searches"], "count"),
        "kspp.spur_nopath": (c["kspp.spur_nopath"], "count"),
        "kspp.spur_yield": (ratio(c["kspp.accepted_beyond_rank1"], c["kspp.spur_searches"]), "ratio"),
        "kspp.pool_size": (ratio(c["kspp.pool_total"], c["kspp.update_k_paths.calls"]), "count"),
        "dstar.replan.rank1_ms": (ms["dstar.replan.rank1"][0], "ms"),
        "dstar.replan.spur_share": (share("dstar.replan.spur"), "%"),
        "dstar.compute_shortest_path.ms": (ms["dstar.compute_shortest_path"][0], "ms"),
        "dstar.expansions.rank1": (c["dstar.expansions.rank1"], "count"),
        "dstar.expansions.spur": (c["dstar.expansions.spur"], "count"),
        "dstar.update_vertex.calls": (c["dstar.update_vertex.calls"], "count"),
        "dstar.heap_ops": (c["dstar.heap_ops"], "count"),
        "rpp.rpp_dfs.share": (share("rpp.rpp_dfs"), "%"),
        "rpp.rpp_dfs.calls": (c["rpp.rpp_dfs.calls"], "count"),
        "rpp.tour_nodes": (c["rpp.tour_nodes"], "count"),
        "rpp.budget_hits": (c["rpp.budget_hits"], "count"),
        "rpp.inspected_ratio": (ratio(c["rpp.inspected"], c["rpp.solver_edges"]), "ratio"),
        "rpp.extract_critical_edges.ms": (ms["rpp.extract_critical_edges"][0], "ms"),
        "rpp.critical_edges": (c["rpp.critical_edges"], "count"),
        "rpp.build_transformed_graph.share": (share("rpp.build_transformed_graph"), "%"),
        "rpp.solution_to_uav_plan.share": (share("rpp.solution_to_uav_plan"), "%"),
        "core.UavMetric.cost.calls": (c["core.UavMetric.cost.calls"], "count"),
        "core.UavMetric.path.calls": (c["core.UavMetric.path.calls"], "count"),
        "paa.select_edge.share": (share("paa.select_edge"), "%"),
        "paa.scored_edges": (c["paa.scored_edges"], "count"),
        "bench.generate.ms": (generate_s * generate_scale * 1e3, "ms"),
        "trace.overhead": (ratio(traced_s * traced.scale, untraced_s * untraced.scale), "ratio"),
    }
    n = len(instances)
    notes = [
        f"traced pass: {n} missions, {traced_s:.3f} s traced vs {untraced_s:.3f} s untraced"
        f" ({n / traced_s:.4f} vs {n / untraced_s:.4f} missions/s, unscaled);"
        f" host speed scale {traced.scale:.4f} traced, {untraced.scale:.4f} untraced",
        "layer times over the traced pass at the reference speed (total ms, self ms):",
    ] + [f"  {name}: {total:.3f} {self_:.3f}" for name, (total, self_) in ms.items()]
    return session, metrics, notes, tracer


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    print(f"workload {workload.name} seed {args.seed}: {workload.core} shared + {workload.tail}"
          f" seeded instances, planner {workload.planner}, k={workload.k}", flush=True)
    if args.trace:
        session, metrics, notes, tracer = per_layer(workload, args.seed)
        tracer.write_spans(OUT / f"{stem}-spans.jsonl")
    else:
        session, metrics, notes = end_to_end(workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6f} {unit}")
    for note in notes:
        print(note)
    attempted = len(session.mission_s)
    result = {
        "correct": session.failed == 0,
        "attempted": attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps({**result, **session.details(), "notes": notes}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
