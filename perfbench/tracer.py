"""Per-layer tracing installed from outside the package.

`Tracer.install` replaces module and class attributes of the planner with
wrappers and `uninstall` puts the originals back.  Coarse calls (a mission,
a k-path update, a D* repair, a tour search) record spans; calls made
hundreds of thousands of times per mission (vertex updates, heap
operations, scout metric lookups) only bump counters.  Spans and counters
stay in memory until the run writes them out.

A span is (name, start, end, parent span index, mission number); the
mission number counts `sim.run` calls since the tracer was created.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

import workloads  # noqa: F401  (puts the checkout's src on sys.path)
from scoutplan import dstar, kspp, paa, rpp, sim
from scoutplan.core import NoPathError, UavMetric

Span = tuple[str, float, float, int, int]

#: Layer spans whose total and self time are reported.
SPAN_NAMES = (
    "sim.run",
    "sim.lower_bound",
    "dstar.initialize",
    "kspp.update_k_paths",
    "dstar.replan.rank1",
    "dstar.replan.spur",
    "dstar.compute_shortest_path",
    "rpp.extract_critical_edges",
    "rpp.build_transformed_graph",
    "rpp.rpp_dfs",
    "rpp.solution_to_uav_plan",
    "paa.select_edge",
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missions: list[Counter] = []  # counters, one per sim.run call
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._kpaths_state = None

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        self._patch(sim, "run", self._spanned("sim.run", sim.run, self._after_run, root=True))
        self._patch(sim, "lower_bound", self._spanned("sim.lower_bound", sim.lower_bound))
        self._patch(dstar, "initialize", self._spanned("dstar.initialize", dstar.initialize))
        self._patch(kspp, "update_k_paths", self._spanned(
            "kspp.update_k_paths", kspp.update_k_paths, self._after_kpaths, self._before_kpaths))
        self._patch(dstar, "replan", self._replan(dstar.replan))
        self._patch(dstar, "compute_shortest_path", self._spanned(
            "dstar.compute_shortest_path", dstar.compute_shortest_path))
        self._patch(rpp, "extract_critical_edges", self._spanned(
            "rpp.extract_critical_edges", rpp.extract_critical_edges, self._after_critical))
        self._patch(rpp, "build_transformed_graph", self._spanned(
            "rpp.build_transformed_graph", rpp.build_transformed_graph))
        self._patch(rpp, "rpp_dfs", self._spanned("rpp.rpp_dfs", rpp.rpp_dfs, self._after_dfs))
        self._patch(rpp, "solution_to_uav_plan", self._spanned(
            "rpp.solution_to_uav_plan", rpp.solution_to_uav_plan))
        self._patch(paa, "select_edge", self._spanned(
            "paa.select_edge", paa.select_edge, self._after_select))
        self._patch(dstar, "update_vertex", self._counted("dstar.update_vertex.calls", dstar.update_vertex))
        # AddressableHeap.pop is implemented with remove, so a pop counts once.
        for op in ("insert", "update", "remove"):
            fn = getattr(dstar.AddressableHeap, op)
            self._patch(dstar.AddressableHeap, op, self._counted("dstar.heap_ops", fn))
        self._patch(UavMetric, "cost", self._counted("core.UavMetric.cost.calls", UavMetric.cost))
        self._patch(UavMetric, "path", self._counted("core.UavMetric.path.calls", UavMetric.path))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn, after=None, before=None, root=False):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            if root:
                self.counts = Counter()
                self.missions.append(self.counts)
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)  # reserved, so children get later indices
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, len(self.missions) - 1)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replan(self, fn):
        """dstar.replan: rank-1 repairs run on the shared state that
        update_k_paths was given, spur searches on its clones."""
        rank1 = self._spanned("dstar.replan.rank1", fn)
        spur = self._spanned("dstar.replan.spur", fn)

        def wrapper(state, *args, **kwargs):
            kind = "rank1" if state is self._kpaths_state else "spur"
            before = state.expansions
            counts = self.counts
            try:
                return (rank1 if kind == "rank1" else spur)(state, *args, **kwargs)
            except NoPathError:
                if kind == "spur":
                    counts["kspp.spur_nopath"] += 1
                raise
            finally:
                counts[f"dstar.expansions.{kind}"] += state.expansions - before
                if kind == "spur":
                    counts["kspp.spur_searches"] += 1

        return wrapper

    def _before_kpaths(self, args) -> None:
        self._kpaths_state = args[2]

    def _after_kpaths(self, args, pset) -> None:
        c = self.counts
        c["kspp.update_k_paths.calls"] += 1
        c["kspp.accepted_beyond_rank1"] += max(0, len(pset.paths) - 1)
        c["kspp.pool_total"] += len(pset.pool)

    def _after_critical(self, args, critical) -> None:
        self.counts["rpp.critical_edges"] += len(critical)

    def _after_dfs(self, args, sol) -> None:
        graph = args[0]
        c = self.counts
        c["rpp.rpp_dfs.calls"] += 1
        c["rpp.tour_nodes"] += graph.size - 1
        c["rpp.solver_edges"] += (graph.size - 1) // 2
        c["rpp.inspected"] += sol.inspected
        c["rpp.budget_hits"] += int(sol.budget_exhausted)

    def _after_select(self, args, chosen) -> None:
        self.counts["paa.scored_edges"] += len(args[0])

    def _after_run(self, args, outcome) -> None:
        c = self.counts
        c["sim.replans"] += len(outcome.replans)
        c["sim.cancel_replans"] += sum(1 for r in outcome.replans if r.trigger.startswith("cancel:"))
        c["sim.events"] += len(outcome.events)

    # -- results ----------------------------------------------------------

    def totals(self) -> Counter:
        out: Counter = Counter()
        for c in self.missions:
            out.update(c)
        return out

    def layer_ms(self) -> dict[str, tuple[float, float]]:
        """Total and self milliseconds per span name."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        self_ = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, t0, t1, _, _) in enumerate(spans):
            total[name] += t1 - t0
            self_[name] += t1 - t0 - child[i]
        return {n: (total[n] * 1e3, self_[n] * 1e3) for n in SPAN_NAMES}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, mission) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "mission": mission}) + "\n")
