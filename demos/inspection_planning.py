"""Choosing what the scout should inspect.

From the ground vehicle's candidate routes we collect the critical edges
(unrevealed impeded edges on any route, deadline-stamped when they sit on
the best route), then compare the two scout planners: the optimal
inspection tour and the linear-time priority pick.
"""

from scoutplan import bench, dstar, kspp, paa, rpp
from scoutplan.core import PlanningCostView, UavMetric

inst, real = bench.generate_bridge(bench.BridgeSpec(n_paths=5, chain_len=12), seed=11)
view = PlanningCostView(inst)
state = dstar.initialize(inst)
pset = kspp.update_k_paths(inst, view, state, inst.p, [], 4)
metric = UavMetric(inst)

critical = rpp.extract_critical_edges(pset, view, inst)
print(f"{len(critical)} critical edges from {len(pset.paths)} routes:")
for eid, t_max in critical.items():
    rec = inst.edges[eid]
    window = "no deadline" if t_max == float("inf") else f"finish by t={t_max:.1f}"
    print(f"  edge {eid} ({rec.u}-{rec.v}), {window}")

graph = rpp.build_transformed_graph(metric, critical, uav_pos=inst.q)
sol = rpp.rpp_dfs(graph)
legs = rpp.solution_to_uav_plan(graph.inspections(sol), metric, inst.q)
print(f"\ntour solver: inspects {sol.inspected} edges, tour cost {sol.best_cost:.1f}")
for leg in legs:
    action = f"inspect edge {leg.edge}" if leg.inspect else "fly"
    print(f"  {leg.frm} -> {leg.to}  {action}  ({leg.duration:.1f})")

scorer_args = (view, pset, inst.q, 4, metric)
scored = sorted(paa.score_edges(critical, *scorer_args), key=lambda e: -e.score)
print("\npriority planner ranking:")
for ep in scored:
    print(
        f"  edge {ep.edge}: score {ep.score:.3f} "
        f"(coverage {ep.p1:.2f}, urgency {ep.p2:.2f}, "
        f"uncertainty {ep.p3:.2f}, proximity {ep.p4:.2f})"
    )
((selected, _),) = paa.select_edge(critical, *scorer_args)
print(f"selected: edge {selected}")
