"""Instance generators and the experiment harness.

Three synthetic families: uniform grids, "bridged multipath" instances
(parallel chains joined by a few crossings, so rerouting is expensive),
and road-like networks with winding edges.  The harness runs planner
sweeps over generated instances, writes per-run and summary CSVs, and
emits plain columnar files with plot data.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random
from collections.abc import Iterable
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
    check_at_least,
    check_positive,
    dijkstra,
    load_instance,
    read_records,
    read_text,
    sample_realization,
)


#: Aerial speed of every family's networks.
UAV_SPEED = 2.0
#: Window of an impeded grid or bridge edge's maximum cost: t_max ~ U(T_MAX_RANGE).
T_MAX_RANGE = (80.0, 100.0)
#: Length of a grid edge.
GRID_SPACING = 10.0
#: Corners of the bridge family's chain box, and its endpoints p and d.
BRIDGE_BOX = ((10.0, 100.0), (190.0, -90.0))
BRIDGE_P, BRIDGE_D = (0.0, 0.0), (200.0, 0.0)


@dataclass(frozen=True)
class GridSpec:
    rows: int = 10
    cols: int = 20
    n_impeded_cuts: int = 5

    def __post_init__(self):
        check_at_least("rows", self.rows, 2)
        check_at_least("cols", self.cols, 2)
        check_at_least("n_impeded_cuts", self.n_impeded_cuts, 0)


@dataclass(frozen=True)
class BridgeSpec:
    n_paths: int = 10
    chain_len: int = 19
    impeded_per_path: float = 2  # count if >= 1, else fraction of chain edges
    bridge_fraction: float = 0.10
    adversarial: bool = False

    def __post_init__(self):
        check_at_least("chain_len", self.chain_len, 2)
        check_at_least("n_paths", self.n_paths, 1)
        check_positive("impeded_per_path", self.impeded_per_path)
        if self.impeded_per_path >= 1 and self.impeded_per_path % 1:
            raise ValueError(f"impeded_per_path of 1 or more is a count, so whole, got {self.impeded_per_path!r}")
        check_fraction("bridge_fraction", self.bridge_fraction)
        if type(self.adversarial) is not bool:
            raise ValueError(f"adversarial must be true or false, got {self.adversarial!r}")


def check_fraction(name: str, value: float) -> None:
    if type(value) not in (int, float) or not 0 <= value <= 1:
        raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")


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


@dataclass(frozen=True)
class ScalingSpec:
    """One size of the scaling study: a bridged instance on a (chain_len, n_paths) grid."""

    size: tuple[int, int] = SCALING_SIZES[0]

    def __post_init__(self):
        scaling_spec(self.size)


#: A road network's drivable edge lengths and its farthest vertex pair (p, d).
RoadLayout = tuple[tuple[float, ...], int, int]


@dataclass(frozen=True)
class RoadSpec:
    """Road networks re-dressed by `import_road_network`: the network in
    `base_file`, loaded here with its road layout, or else a synthetic one
    of `n_vertices` per instance."""

    n_vertices: int = 30
    impeded_fraction: float = 0.5
    base_file: str | None = None
    base: ProblemInstance | None = field(default=None, init=False, repr=False, compare=False)
    layout: RoadLayout | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_at_least("n_vertices", self.n_vertices, 1)
        check_fraction("impeded_fraction", self.impeded_fraction)
        if self.base_file is not None:
            if type(self.base_file) is not str:
                raise ValueError(f"base_file must be a path, got {self.base_file!r}")
            object.__setattr__(self, "base", load_instance(self.base_file))
            object.__setattr__(self, "layout", road_layout(self.base))


#: The generate spec of each instance family.
FAMILY_SPECS = {"grid": GridSpec, "bridge": BridgeSpec, "scaling": ScalingSpec, "road": RoadSpec}
FAMILIES = tuple(FAMILY_SPECS)
FamilySpec = GridSpec | BridgeSpec | ScalingSpec | RoadSpec


@dataclass(frozen=True)
class ExperimentSpec:
    family: str = "bridge"  # one of FAMILIES
    n_instances: int = 100
    k_values: tuple[int, ...] = (1, 2, 3, 4, 5)
    planners: tuple[str, ...] = ("rpp",)
    seed: int = 0
    #: The family's specs, which instances cycle through; each is built, and
    #: so checked, once (a road spec loads its base_file then).  None means
    #: the family's default spec, or one spec per SCALING_SIZES entry.
    specs: tuple[FamilySpec, ...] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        for planner in self.planners:
            if planner == "naive":
                raise ValueError("planners must not list naive: the naive baseline always runs")
            if planner not in sim.PLANNERS:
                raise ValueError(f"unknown planner {planner!r}")
        for k in self.k_values:
            check_at_least("every k", k, 1)
        for name, values in (("planners", self.planners), ("k_values", self.k_values)):
            if not values:
                raise ValueError(f"{name} must not be empty")
            repeated = [value for i, value in enumerate(values) if value in values[:i]]
            if repeated:
                raise ValueError(f"{name} repeats {repeated[0]!r}")
        check_at_least("n_instances", self.n_instances, 1)
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        cls = FAMILY_SPECS[self.family]
        if self.specs is None:
            default = tuple(map(ScalingSpec, SCALING_SIZES)) if cls is ScalingSpec else (cls(),)
            object.__setattr__(self, "specs", default)
        if not (isinstance(self.specs, tuple) and self.specs
                and all(type(s) is cls for s in self.specs)):
            raise ValueError(f"specs must be a non-empty tuple of {cls.__name__}, got {self.specs!r}")


def delta_percent(lb_mean: float, naive_mean: float, cost_mean: float) -> float:
    """Share of the naive-to-lower-bound gap closed, in percent."""
    gap = naive_mean - lb_mean
    if gap <= 0:
        return 0.0
    return (naive_mean - cost_mean) / gap * 100.0


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _edge(eid: int, u: int, v: int, length: float, t_max: float | None = None) -> EdgeRecord:
    """A drivable edge: fixed at `length`, or impeded on [length, t_max]."""
    if t_max is None:
        return EdgeRecord(eid, u, v, length, length / UAV_SPEED)
    return EdgeRecord(eid, u, v, None, length / UAV_SPEED, UniformCost(length, t_max))


def generate_grid(spec: GridSpec, seed: int) -> tuple[ProblemInstance, Realization]:
    """Uniform grid; impeded edges drawn as partial cuts across random columns."""
    rng = random.Random(f"grid:{seed}")
    rows, cols, s = spec.rows, spec.cols, GRID_SPACING
    vertices = [(c * s, r * s) for r in range(rows) for c in range(cols)]

    def vid(r: int, c: int) -> int:
        return r * cols + c

    # Impeded set: a contiguous run of the horizontal edges crossing each
    # chosen column boundary.
    cut_cols = rng.sample(range(cols - 1), min(spec.n_impeded_cuts, cols - 1))
    impeded_pairs: set[tuple[int, int]] = set()
    for j in sorted(cut_cols):
        length = rng.randint(1, rows)
        lo = rng.randint(0, rows - length)
        for r in range(lo, lo + length):
            impeded_pairs.add((vid(r, j), vid(r, j + 1)))

    pairs = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                pairs.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                pairs.append((vid(r, c), vid(r + 1, c)))
    edges = [
        _edge(eid, u, v, s, rng.uniform(*T_MAX_RANGE) if (u, v) in impeded_pairs else None)
        for eid, (u, v) in enumerate(pairs)
    ]
    q = rng.randrange(rows * cols)
    inst = ProblemInstance(
        vertices, edges, p=0, q=q, d=rows * cols - 1,
        uav_speed=UAV_SPEED, uav_free_flight=True,
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
    (x0, y0), (x1, y1) = BRIDGE_BOX
    xs = [x0 + j * (x1 - x0) / (chain_len - 1) for j in range(chain_len)]
    if n_paths == 1:
        ys = [(y0 + y1) / 2.0]
    else:
        ys = [y0 + i * (y1 - y0) / (n_paths - 1) for i in range(n_paths)]

    vertices = [BRIDGE_P]
    for y in ys:
        vertices.extend((x, y) for x in xs)
    vertices.append(BRIDGE_D)
    p = 0
    d = len(vertices) - 1

    def vid(i: int, j: int) -> int:
        return 1 + i * chain_len + j

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

    # Each chain p -> d, then the crossings; only chain edges are impeded.
    pairs = []
    for i in range(n_paths):
        chain = [p, *range(vid(i, 0), vid(i, chain_len)), d]
        pairs.extend(zip(chain, chain[1:]))
    pairs.extend(sorted(bridge_pairs))
    edges = [
        _edge(eid, u, v, math.dist(vertices[u], vertices[v]),
              rng.uniform(*T_MAX_RANGE) if (u, v) in impeded_pairs else None)
        for eid, (u, v) in enumerate(pairs)
    ]

    q = rng.randrange(len(vertices))
    inst = ProblemInstance(
        vertices, edges, p=p, q=q, d=d,
        uav_speed=UAV_SPEED, uav_free_flight=True,
    )

    if spec.adversarial:
        _, parent, _ = dijkstra(inst.ugv_adj, p, inst.prior_costs)
        on_path: set[int] = set()
        v = d
        while v != p:
            on_path.add(parent[v])
            v = inst.edges[parent[v]].other(v)
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


def generate_road_like(n_vertices: int, seed: int) -> ProblemInstance:
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
    edges = [
        _edge(eid, u, v, math.dist(pts[u], pts[v]) * rng.uniform(1.0, 1.4))
        for eid, (u, v) in enumerate(sorted(pairs))
    ]
    return ProblemInstance(
        pts, edges, p=0, q=0, d=n_vertices - 1,
        uav_speed=UAV_SPEED, uav_free_flight=True,
    )


def import_road_network(
    base: ProblemInstance,
    impeded_fraction: float = 0.5,
    seed: int = 0,
    layout: RoadLayout | None = None,
) -> ProblemInstance:
    """A road network (say, loaded from an instance file), re-dressed for the experiments.

    Redraws the impeded set at the requested fraction of the drivable edges
    (window: length to 10x length), prices aerial travel from edge lengths,
    enables free flight, and places the endpoints at the two vertices
    farthest apart in the graph.  `layout` is the base's `road_layout`,
    computed here when not given.
    """
    rng = random.Random(f"roadimport:{seed}")
    lengths, p, d = layout or road_layout(base)
    ugv_ids = sorted(base.ugv_edge_ids)
    n_imp = int(impeded_fraction * len(ugv_ids))
    impeded = set(rng.sample(ugv_ids, n_imp))
    edges = [
        _edge(rec.id, rec.u, rec.v, lengths[rec.id],
              10.0 * lengths[rec.id] if rec.id in impeded else None)
        if rec.id in base.ugv_edge_ids
        else EdgeRecord(rec.id, rec.u, rec.v, None, rec.uav_cost)
        for rec in base.edges
    ]
    q = rng.randrange(base.n_vertices)
    return ProblemInstance(
        base.vertices, edges, p=p, q=q, d=d,
        uav_speed=UAV_SPEED, uav_free_flight=True,
    )


def road_layout(base: ProblemInstance) -> RoadLayout:
    """Each drivable edge's length (INF for an aerial-only edge) and the two
    vertices farthest apart under those lengths: one Dijkstra per vertex."""
    lengths = [INF] * len(base.edges)
    for eid in base.ugv_edge_ids:
        rec = base.edges[eid]
        lengths[eid] = rec.ugv_cost if rec.ugv_cost is not None else rec.distribution.t_min
    best = (0.0, 0, 0)
    for src in range(base.n_vertices):
        dist, _, _ = dijkstra(base.ugv_adj, src, lengths)
        far = max(range(base.n_vertices), key=lambda v: (dist[v] < INF, dist[v]))
        if dist[far] > best[0]:
            best = (dist[far], src, far)
    return tuple(lengths), best[1], best[2]


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

#: runs.csv's columns, in order, with the type `read_runs_csv` reads each as.
RUN_COLUMNS = {
    "instance_id": int, "seed": str, "planner": str, "k": int, "LB": float, "cost": float,
    "arrival_time": float, "n_replans": int, "max_ugv_replan_ms": float, "max_uav_replan_ms": float,
    "label": str, "n_vertices": int, "max_uav_solver_ms": float, "budget_hits": int,
}
SUMMARY_COLUMNS = (
    "planner", "k", "label", "n", "LB", "naive_cost", "cost", "delta_pct",
    "naive_std", "cost_std", "max_ugv_replan_ms", "max_uav_replan_ms",
)
FAILURE_COLUMNS = ("instance_id", "seed", "error", "message")


def make_instance(
    spec: FamilySpec, tag: str
) -> tuple[ProblemInstance, Realization, ProblemInstance | None]:
    """Instance `tag` ("<seed>:<index>") of a family spec: the instance, its
    realization and, for a road spec without a base file, the synthetic road
    network it was imported from (else None).  The tag fixes every draw."""
    seed = random.Random(tag).getrandbits(31)
    if isinstance(spec, RoadSpec):
        drawn = generate_road_like(spec.n_vertices, seed) if spec.base is None else None
        inst = import_road_network(drawn or spec.base, spec.impeded_fraction, seed, spec.layout)
        return inst, sample_realization(inst, random.Random(f"real:{tag}")), drawn
    if isinstance(spec, GridSpec):
        inst, real = generate_grid(spec, seed)
    elif isinstance(spec, ScalingSpec):
        inst, real = generate_scaling(spec.size, seed)
    else:
        inst, real = generate_bridge(spec, seed)
    return inst, real, None


def run_instance_suite(spec: ExperimentSpec, index: int) -> list[dict]:
    """All planner runs for one instance, naive baseline included."""
    family_spec = spec.specs[index % len(spec.specs)]
    label = "x".join(map(str, family_spec.size)) if isinstance(family_spec, ScalingSpec) else ""
    inst, real, _ = make_instance(family_spec, f"{spec.seed}:{index}")
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
            cfg = sim.SimulationConfig(planner=planner, k=k)
            record(planner, k, sim.run(inst, real, cfg))
    return rows


def summarize_rows(rows: list[dict]) -> list[dict]:
    """One row per (planner, k, label), keyed by SUMMARY_COLUMNS and paired
    with the naive runs of the same label.  The label is empty outside the
    scaling family."""
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
            {
                "planner": planner,
                "k": k,
                "label": lbl,
                "n": len(rs),
                "LB": lb_mean,
                "naive_cost": naive_mean,
                "cost": cost_mean,
                "delta_pct": delta_percent(lb_mean, naive_mean, cost_mean),
                "naive_std": pstdev(naive_cost) if naive_cost else math.nan,
                "cost_std": pstdev(cost),
                "max_ugv_replan_ms": max(r["max_ugv_replan_ms"] for r in rs),
                "max_uav_replan_ms": max(r["max_uav_replan_ms"] for r in rs),
            }
        )
    return out


def _write_csv(rows: list[dict], columns: Iterable[str], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def read_runs_csv(path: str) -> list[dict]:
    """The rows of a UTF-8 runs.csv, each RUN_COLUMNS cell read as its type;
    a number must be finite and at least 0 (``k`` and ``n_vertices`` at
    least 1).  A malformed file is an InstanceError naming the file and line."""
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    out = []

    def record(r: dict) -> None:
        if None in r or None in r.values():
            raise ValueError(f"expected {len(reader.fieldnames)} cells")
        for key, kind in RUN_COLUMNS.items():
            r[key] = kind(r[key])
            low = 1 if key in ("k", "n_vertices") else 0
            if kind is not str and not low <= r[key] < INF:
                raise ValueError(f"{key} {r[key]!r} is not finite and at least {low}")
        out.append(r)

    try:
        missing = [c for c in RUN_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise InstanceError(f"{path}: missing run columns {missing}")
        read_records(path, record, ((reader.line_num, r) for r in reader))
    except csv.Error as exc:  # a cell over the csv module's field size limit
        raise InstanceError(f"{path}:{reader.reader.line_num}: {exc}") from None
    return out


def write_summary_csv(rows: list[dict], path: str) -> None:
    _write_csv(rows, SUMMARY_COLUMNS, path)


def run_experiment(
    spec: ExperimentSpec, out_dir: str, jobs: int = 1
) -> tuple[list[dict], list[dict]]:
    """Run the full sweep and write runs.csv, summary.csv, failures.csv and
    plot data.  Returns the summary and one record per failed instance;
    a failed instance contributes no rows to the summary."""
    os.makedirs(out_dir, exist_ok=True)
    n = spec.n_instances * len(spec.specs)
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
