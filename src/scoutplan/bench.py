"""Instance generators and the experiment harness.

Three synthetic families: uniform grids, "bridged multipath" instances
(parallel chains joined by a few crossings, so rerouting is expensive),
and road-like networks with winding edges.  The harness runs planner
sweeps over generated instances, writes per-run and summary CSVs, and
emits plain columnar files with plot data.
"""

from __future__ import annotations

import csv
import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from statistics import fmean, pstdev

from . import sim
from .core import (
    EdgeRecord,
    INF,
    InstanceError,
    ProblemInstance,
    Realization,
    UniformCost,
    dijkstra,
    load_instance,
    sample_realization,
)
from .paa import PriorityWeights


@dataclass(frozen=True)
class GridSpec:
    rows: int = 10
    cols: int = 20
    spacing: float = 10.0
    n_impeded_cuts: int = 5
    cut_style: str = "partial"  # "partial" or "full" column cuts
    t_max_range: tuple[float, float] = (80.0, 100.0)
    uav_speed: float = 2.0

    def __post_init__(self):
        _check_at_least("rows", self.rows, 2)
        _check_at_least("cols", self.cols, 2)
        _check_at_least("n_impeded_cuts", self.n_impeded_cuts, 0)
        if self.cut_style not in ("partial", "full"):
            raise ValueError(f"cut_style must be 'partial' or 'full', got {self.cut_style!r}")


@dataclass(frozen=True)
class BridgeSpec:
    n_paths: int = 10
    chain_len: int = 19
    impeded_per_path: float = 2  # count if >= 1, else fraction of chain edges
    bridge_fraction: float = 0.10
    t_max_range: tuple[float, float] = (80.0, 100.0)
    bbox: tuple[tuple[float, float], tuple[float, float]] = ((10.0, 100.0), (190.0, -90.0))
    p_coord: tuple[float, float] = (0.0, 0.0)
    d_coord: tuple[float, float] = (200.0, 0.0)
    adversarial: bool = False
    uav_speed: float = 2.0

    def __post_init__(self):
        _check_at_least("chain_len", self.chain_len, 2)
        _check_at_least("n_paths", self.n_paths, 1)
        if not self.impeded_per_path > 0:
            raise ValueError(f"impeded_per_path must be > 0, got {self.impeded_per_path!r}")
        check_fraction("bridge_fraction", self.bridge_fraction)


def _check_at_least(name: str, value: int, least: int) -> None:
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_fraction(name: str, value: float) -> None:
    if not 0 <= value <= 1:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


#: Node-grid sizes of the scaling study, as (chain_len, n_paths).
SCALING_SIZES = ((20, 20), (25, 20), (30, 20), (30, 25), (40, 25))


def scaling_spec(size: tuple[int, int]) -> BridgeSpec:
    chain_len, n_paths = size
    return BridgeSpec(
        n_paths=n_paths,
        chain_len=chain_len,
        impeded_per_path=0.3,
        bridge_fraction=0.3,
    )


FAMILIES = ("grid", "bridge", "scaling", "road")


@dataclass(frozen=True)
class ExperimentSpec:
    family: str = "bridge"  # one of FAMILIES
    n_instances: int = 100
    k_values: tuple[int, ...] = (1, 2, 3, 4, 5)
    planners: tuple[str, ...] = ("rpp",)
    seed: int = 0
    adversarial: bool = False
    impeded_per_path: float = 2
    bridge_fraction: float = 0.10
    impeded_fraction: float = 0.5  # road family
    sizes: tuple[tuple[int, int], ...] = SCALING_SIZES  # scaling family
    road_file: str = ""
    weights: PriorityWeights = field(default_factory=PriorityWeights)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.family == "road" and not self.road_file:
            raise ValueError("the road family needs a road_file")
        for planner in self.planners:
            if planner not in sim.PLANNERS:
                raise ValueError(f"unknown planner {planner!r}")
        if any(k < 1 for k in self.k_values):
            raise ValueError(f"every k must be at least 1, got {self.k_values}")
        BridgeSpec(impeded_per_path=self.impeded_per_path, bridge_fraction=self.bridge_fraction)
        check_fraction("impeded_fraction", self.impeded_fraction)


@dataclass
class SummaryRow:
    planner: str
    k: int
    label: str
    n: int
    lb_mean: float
    naive_mean: float
    cost_mean: float
    delta: float
    naive_std: float
    cost_std: float
    max_ugv_ms: float
    max_uav_ms: float


def delta_percent(lb_mean: float, naive_mean: float, cost_mean: float) -> float:
    """Share of the naive-to-lower-bound gap closed, in percent."""
    gap = naive_mean - lb_mean
    if gap <= 0:
        return 0.0
    return (naive_mean - cost_mean) / gap * 100.0


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def generate_grid(spec: GridSpec, seed: int) -> tuple[ProblemInstance, Realization]:
    """Uniform grid; impeded edges drawn as partial cuts across random columns."""
    rng = random.Random(f"grid:{seed}")
    rows, cols, s = spec.rows, spec.cols, spec.spacing
    vertices = [(c * s, r * s) for r in range(rows) for c in range(cols)]

    def vid(r: int, c: int) -> int:
        return r * cols + c

    # Impeded set: a contiguous run of the horizontal edges crossing each
    # chosen column boundary.
    cut_cols = rng.sample(range(cols - 1), min(spec.n_impeded_cuts, cols - 1))
    impeded_pairs: set[tuple[int, int]] = set()
    for j in sorted(cut_cols):
        if spec.cut_style == "full":
            lo, length = 0, rows
        else:
            length = rng.randint(1, rows)
            lo = rng.randint(0, rows - length)
        for r in range(lo, lo + length):
            impeded_pairs.add((vid(r, j), vid(r, j + 1)))

    lo_t, hi_t = spec.t_max_range
    edges: list[EdgeRecord] = []
    for r in range(rows):
        for c in range(cols):
            u = vid(r, c)
            for v in ((vid(r, c + 1) if c + 1 < cols else None), (vid(r + 1, c) if r + 1 < rows else None)):
                if v is None:
                    continue
                eid = len(edges)
                length = s
                tau = length / spec.uav_speed
                if (u, v) in impeded_pairs:
                    t_max = rng.uniform(lo_t, hi_t)
                    edges.append(EdgeRecord(eid, u, v, None, tau, UniformCost(length, t_max)))
                else:
                    edges.append(EdgeRecord(eid, u, v, length, tau))
    q = rng.randrange(rows * cols)
    inst = ProblemInstance(
        vertices, edges, p=0, q=q, d=rows * cols - 1,
        uav_speed=spec.uav_speed, uav_free_flight=True,
    )
    return inst, sample_realization(inst, rng)


def _impeded_count(spec_value: float, chain_edges: int) -> int:
    if spec_value >= 1:
        return min(int(spec_value), chain_edges)
    return max(1, round(spec_value * chain_edges))


def generate_bridge(spec: BridgeSpec, seed: int) -> tuple[ProblemInstance, Realization]:
    """Parallel chains from p to d, joined by sparse crossings.

    Rerouting between chains is expensive, so hidden-cost surprises hurt.
    With the adversarial flag, every impeded edge on the initial
    expected-cost path realizes at its maximum and all others at their
    minimum.
    """
    rng = random.Random(f"bridge:{seed}")
    n_paths, chain_len = spec.n_paths, spec.chain_len
    (x0, y0), (x1, y1) = spec.bbox
    xs = [x0 + j * (x1 - x0) / (chain_len - 1) for j in range(chain_len)]
    if n_paths == 1:
        ys = [(y0 + y1) / 2.0]
    else:
        ys = [y0 + i * (y1 - y0) / (n_paths - 1) for i in range(n_paths)]

    vertices = [spec.p_coord]
    for y in ys:
        vertices.extend((x, y) for x in xs)
    vertices.append(spec.d_coord)
    p = 0
    d = len(vertices) - 1

    def vid(i: int, j: int) -> int:
        return 1 + i * chain_len + j

    def euclid(a: int, b: int) -> float:
        return math.dist(vertices[a], vertices[b])

    # Impeded chain edges, drawn per chain.
    n_imp = _impeded_count(spec.impeded_per_path, chain_len - 1)
    impeded_pairs: set[tuple[int, int]] = set()
    for i in range(n_paths):
        for j in rng.sample(range(chain_len - 1), n_imp):
            impeded_pairs.add((vid(i, j), vid(i, j + 1)))

    # Crossing points between vertically adjacent chains.
    bridge_pairs: set[tuple[int, int]] = set()
    n_bridge = max(1, round(spec.bridge_fraction * chain_len)) if n_paths > 1 else 0
    for i in range(n_paths):
        if n_paths == 1:
            break
        for j in rng.sample(range(chain_len), n_bridge):
            if i == 0:
                other = 1
            elif i == n_paths - 1:
                other = n_paths - 2
            else:
                other = i + rng.choice((-1, 1))
            a, b = vid(i, j), vid(other, j)
            bridge_pairs.add((min(a, b), max(a, b)))

    lo_t, hi_t = spec.t_max_range
    edges: list[EdgeRecord] = []

    def add_edge(u: int, v: int, impeded: bool) -> None:
        length = euclid(u, v)
        tau = length / spec.uav_speed
        eid = len(edges)
        if impeded:
            t_max = rng.uniform(lo_t, hi_t)
            edges.append(EdgeRecord(eid, u, v, None, tau, UniformCost(length, t_max)))
        else:
            edges.append(EdgeRecord(eid, u, v, length, tau))

    for i in range(n_paths):
        add_edge(p, vid(i, 0), False)
        for j in range(chain_len - 1):
            u, v = vid(i, j), vid(i, j + 1)
            add_edge(u, v, (u, v) in impeded_pairs)
        add_edge(vid(i, chain_len - 1), d, False)
    for u, v in sorted(bridge_pairs):
        add_edge(u, v, False)

    q = rng.randrange(len(vertices))
    inst = ProblemInstance(
        vertices, edges, p=p, q=q, d=d,
        uav_speed=spec.uav_speed, uav_free_flight=True,
    )

    if spec.adversarial:
        exp_cost = lambda eid: (
            inst.edges[eid].distribution.expected()
            if inst.edges[eid].impeded
            else inst.edges[eid].ugv_cost
        )
        dist, parent = dijkstra(inst.ugv_adj, p, exp_cost)
        on_path: set[int] = set()
        v = d
        while v != p:
            u = parent[v]
            on_path.add(inst.ugv_edge_between(u, v))
            v = u
        true_cost = {}
        for eid in inst.impeded_ids:
            lo, hi = inst.edges[eid].distribution.bounds()
            true_cost[eid] = hi if eid in on_path else lo
        real = Realization(inst, true_cost)
    else:
        real = sample_realization(inst, rng)
    return inst, real


def generate_scaling(size: tuple[int, int], seed: int) -> tuple[ProblemInstance, Realization]:
    """One bridged-multipath instance on the given (chain_len, n_paths) grid."""
    return generate_bridge(scaling_spec(size), seed)


def generate_road_like(n_vertices: int, seed: int, uav_speed: float = 2.0) -> ProblemInstance:
    """Small synthetic road network: random points, near-neighbor links,
    winding edge lengths of at least the straight-line distance."""
    rng = random.Random(f"road:{seed}")
    pts = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n_vertices)]
    order = sorted(range(n_vertices), key=lambda i: pts[i])
    pairs: set[tuple[int, int]] = set()
    # Chain in x-order keeps the graph connected; extra near-neighbor links
    # give it road-like loops.
    for a, b in zip(order, order[1:]):
        pairs.add((min(a, b), max(a, b)))
    for i in range(n_vertices):
        near = sorted(
            (j for j in range(n_vertices) if j != i),
            key=lambda j: math.dist(pts[i], pts[j]),
        )[:3]
        for j in near[: rng.randint(1, 3)]:
            pairs.add((min(i, j), max(i, j)))
    edges = []
    for u, v in sorted(pairs):
        length = math.dist(pts[u], pts[v]) * rng.uniform(1.0, 1.4)
        edges.append(EdgeRecord(len(edges), u, v, length, length / uav_speed))
    return ProblemInstance(
        pts, edges, p=0, q=0, d=n_vertices - 1,
        uav_speed=uav_speed, uav_free_flight=True,
    )


def import_road_network(
    path: str, impeded_fraction: float = 0.5, seed: int = 0, uav_speed: float = 2.0
) -> ProblemInstance:
    """Road network from an instance file, re-dressed for the experiments.

    Redraws the impeded set at the requested fraction of the drivable edges
    (window: length to 10x length), prices aerial travel from edge lengths,
    enables free flight, and places the endpoints at the two vertices
    farthest apart in the graph.
    """
    base = load_instance(path)
    rng = random.Random(f"roadimport:{seed}")
    lengths = {}
    ugv_ids = sorted(base.ugv_edge_ids)
    for eid in ugv_ids:
        rec = base.edges[eid]
        lengths[eid] = rec.ugv_cost if rec.ugv_cost is not None else rec.distribution.t_min
    n_imp = int(impeded_fraction * len(ugv_ids))
    impeded = set(rng.sample(ugv_ids, n_imp))
    edges = []
    for rec in base.edges:
        if rec.id in impeded:
            length = lengths[rec.id]
            edges.append(
                EdgeRecord(rec.id, rec.u, rec.v, None, length / uav_speed,
                           UniformCost(length, 10.0 * length))
            )
        elif rec.id in lengths:
            length = lengths[rec.id]
            edges.append(EdgeRecord(rec.id, rec.u, rec.v, length, length / uav_speed))
        else:
            edges.append(EdgeRecord(rec.id, rec.u, rec.v, None, rec.uav_cost))

    probe = ProblemInstance(
        base.vertices, edges, p=0, q=0, d=len(base.vertices) - 1,
        uav_speed=uav_speed, uav_free_flight=True,
    )
    length_of = lambda eid: lengths.get(eid, INF)
    best = (0.0, 0, 0)
    for src in range(probe.n_vertices):
        dist, _ = dijkstra(probe.ugv_adj, src, length_of)
        far = max(range(probe.n_vertices), key=lambda v: (dist[v] < INF, dist[v]))
        if dist[far] > best[0]:
            best = (dist[far], src, far)
    _, p, d = best
    q = rng.randrange(probe.n_vertices)
    return ProblemInstance(
        base.vertices, edges, p=p, q=q, d=d,
        uav_speed=uav_speed, uav_free_flight=True,
    )


# ---------------------------------------------------------------------------
# The handcrafted two-detour walkthrough instance.
# ---------------------------------------------------------------------------


def demo_instance() -> tuple[ProblemInstance, Realization]:
    """Tiny instance where one well-chosen inspection cuts arrival 24 -> 18.

    Two impeded detours: the expected-cost route runs over a cheap-looking
    edge whose true cost is bad; inspecting it early lets the ground
    vehicle switch to the alternative through the scout's start vertex.
    """
    vertices = [(0.0, 0.0), (4.0, 0.0), (8.0, 0.0), (10.0, 0.0), (4.0, -2.0)]
    edges = [
        EdgeRecord(0, 0, 1, 4.0, 2.0),
        EdgeRecord(1, 1, 2, None, 2.0, UniformCost(4.0, 18.0)),  # expected 11
        EdgeRecord(2, 2, 3, 2.0, 1.0),
        EdgeRecord(3, 1, 4, 2.0, 1.0),
        EdgeRecord(4, 3, 4, None, 3.1622776601683795, UniformCost(6.5, 17.5)),  # expected 12
    ]
    inst = ProblemInstance(vertices, edges, p=0, q=4, d=3, uav_speed=2.0, uav_free_flight=False)
    real = Realization(inst, {1: 18.0, 4: 12.0})
    return inst, real


# ---------------------------------------------------------------------------
# Experiment harness
# ---------------------------------------------------------------------------

RUN_COLUMNS = (
    "instance_id", "seed", "planner", "k", "LB", "cost", "arrival_time",
    "n_replans", "max_ugv_replan_ms", "max_uav_replan_ms",
    "label", "n_vertices", "max_uav_solver_ms", "budget_hits",
)
_INT_COLUMNS = ("instance_id", "k", "n_replans", "n_vertices", "budget_hits")
_FLOAT_COLUMNS = (
    "LB", "cost", "arrival_time", "max_ugv_replan_ms", "max_uav_replan_ms", "max_uav_solver_ms",
)
FAILURE_COLUMNS = ("instance_id", "seed", "error", "message")


def _make_instance(spec: ExperimentSpec, index: int) -> tuple[ProblemInstance, Realization, str]:
    seed = f"{spec.seed}:{index}"
    h = random.Random(seed).getrandbits(31)
    if spec.family == "grid":
        inst, real = generate_grid(GridSpec(uav_speed=2.0), h)
        label = ""
    elif spec.family == "bridge":
        bs = BridgeSpec(
            adversarial=spec.adversarial,
            impeded_per_path=spec.impeded_per_path,
            bridge_fraction=spec.bridge_fraction,
        )
        inst, real = generate_bridge(bs, h)
        label = ""
    elif spec.family == "scaling":
        size = spec.sizes[index % len(spec.sizes)]
        inst, real = generate_scaling(size, h)
        label = f"{size[0]}x{size[1]}"
    else:  # road
        inst = import_road_network(spec.road_file, spec.impeded_fraction, h)
        real = sample_realization(inst, random.Random(f"real:{seed}"))
        label = ""
    return inst, real, label


def run_instance_suite(spec: ExperimentSpec, index: int) -> list[dict]:
    """All planner runs for one instance, naive baseline included."""
    inst, real, label = _make_instance(spec, index)
    rows: list[dict] = []

    def record(planner: str, k: int, outcome: sim.SimulationOutcome) -> None:
        rows.append(
            {
                "instance_id": index,
                "seed": spec.seed,
                "planner": planner,
                "k": k,
                "LB": outcome.lower_bound,
                "cost": outcome.arrival_time,
                "arrival_time": outcome.arrival_time,
                "n_replans": outcome.n_replans,
                "max_ugv_replan_ms": outcome.max_ugv_replan_s * 1e3,
                "max_uav_replan_ms": outcome.max_uav_replan_s * 1e3,
                "label": label,
                "n_vertices": inst.n_vertices,
                "max_uav_solver_ms": outcome.max_uav_solver_s * 1e3,
                "budget_hits": outcome.budget_hits,
            }
        )

    record("naive", 1, sim.run(inst, real, sim.SimulationConfig(planner="naive", k=1)))
    for k in spec.k_values:
        for planner in spec.planners:
            cfg = sim.SimulationConfig(planner=planner, k=k, weights=spec.weights)
            record(planner, k, sim.run(inst, real, cfg))
    return rows


def summarize_rows(rows: list[dict]) -> list[SummaryRow]:
    """One row per (planner, k, label), paired with the naive runs of the
    same label.  The label is empty outside the scaling family."""
    naive: dict[str, list[dict]] = {}
    algo: dict[tuple, list[dict]] = {}
    for r in rows:
        lbl = r["label"]
        if r["planner"] == "naive":
            naive.setdefault(lbl, []).append(r)
        else:
            algo.setdefault((r["planner"], r["k"], lbl), []).append(r)
    out = []
    for (planner, k, lbl), rs in sorted(algo.items()):
        naive_by_inst = {r["instance_id"]: r["cost"] for r in naive.get(lbl, [])}
        ids = [r["instance_id"] for r in rs]
        naive_cost = [naive_by_inst[i] for i in ids if i in naive_by_inst]
        cost = [r["cost"] for r in rs]
        lb_mean = fmean(r["LB"] for r in rs)
        cost_mean = fmean(cost)
        naive_mean = fmean(naive_cost) if naive_cost else math.nan
        out.append(
            SummaryRow(
                planner=planner,
                k=k,
                label=lbl,
                n=len(rs),
                lb_mean=lb_mean,
                naive_mean=naive_mean,
                cost_mean=cost_mean,
                delta=delta_percent(lb_mean, naive_mean, cost_mean),
                naive_std=pstdev(naive_cost) if naive_cost else math.nan,
                cost_std=pstdev(cost),
                max_ugv_ms=max(r["max_ugv_replan_ms"] for r in rs),
                max_uav_ms=max(r["max_uav_replan_ms"] for r in rs),
            )
        )
    return out


def _write_csv(rows: list[dict], columns: tuple[str, ...], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def read_runs_csv(path: str) -> list[dict]:
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in RUN_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise InstanceError(f"{path}: missing run columns {missing}")
        for r in reader:
            for key in _INT_COLUMNS:
                r[key] = int(r[key])
            for key in _FLOAT_COLUMNS:
                r[key] = float(r[key])
            out.append(r)
    return out


def write_summary_csv(rows: list[SummaryRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["planner", "k", "label", "n", "LB", "naive_cost", "cost", "delta_pct",
             "naive_std", "cost_std", "max_ugv_replan_ms", "max_uav_replan_ms"]
        )
        for r in rows:
            writer.writerow(
                [r.planner, r.k, r.label, r.n, r.lb_mean, r.naive_mean, r.cost_mean,
                 r.delta, r.naive_std, r.cost_std, r.max_ugv_ms, r.max_uav_ms]
            )


def run_experiment(
    spec: ExperimentSpec, out_dir: str, jobs: int = 1
) -> tuple[list[SummaryRow], list[dict]]:
    """Run the full sweep and write runs.csv, summary.csv, failures.csv and
    plot data.  Returns the summary and one record per failed instance;
    a failed instance contributes no rows to the summary."""
    os.makedirs(out_dir, exist_ok=True)
    n = spec.n_instances * (len(spec.sizes) if spec.family == "scaling" else 1)
    rows: list[dict] = []
    failures: list[dict] = []

    def collect(index: int, result) -> None:
        try:
            rows.extend(result())
        except Exception as exc:
            failures.append(
                {"instance_id": index, "seed": spec.seed,
                 "error": type(exc).__name__, "message": str(exc)}
            )

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(run_instance_suite, spec, i) for i in range(n)]
            for i, fut in enumerate(futures):
                collect(i, fut.result)
    else:
        for i in range(n):
            collect(i, lambda: run_instance_suite(spec, i))

    _write_csv(rows, RUN_COLUMNS, os.path.join(out_dir, "runs.csv"))
    _write_csv(failures, FAILURE_COLUMNS, os.path.join(out_dir, "failures.csv"))
    summary = summarize_rows(rows)
    write_summary_csv(summary, os.path.join(out_dir, "summary.csv"))

    with open(os.path.join(out_dir, "plot_replan_ms.txt"), "w") as fh:
        fh.write("# n_vertices k planner max_ugv_ms max_uav_ms max_uav_solver_ms\n")
        for r in rows:
            fh.write(
                f"{r['n_vertices']} {r['k']} {r['planner']} "
                f"{r['max_ugv_replan_ms']:.3f} {r['max_uav_replan_ms']:.3f} "
                f"{r['max_uav_solver_ms']:.3f}\n"
            )
    with open(os.path.join(out_dir, "plot_costs.txt"), "w") as fh:
        fh.write("# instance planner k lb cost\n")
        for r in rows:
            fh.write(f"{r['instance_id']} {r['planner']} {r['k']} {r['LB']!r} {r['cost']!r}\n")
    return summary, failures
