"""Incremental replanning on a grid.

Watch the planner repair its distance estimates after hidden costs are
revealed, instead of searching from scratch: the first search is a plain
Dijkstra that settles every vertex, and each replanning step re-expands
only the few vertices whose distance the revealed cost changed.
"""

import random

from scoutplan import bench, dstar
from scoutplan.core import PlanningCostView

inst, real = bench.generate_grid(bench.GridSpec(rows=10, cols=20, n_impeded_cuts=8), seed=7)
view = PlanningCostView(inst)

state = dstar.initialize(inst)
path = dstar.replan(state, view, inst.p, [])
print(f"grid with {inst.n_vertices} vertices, {len(inst.impeded_ids)} impeded edges")
print(f"initial search: Dijkstra over all {inst.n_vertices} vertices, route cost {path.cost:.1f}")

rng = random.Random(0)
pos = inst.p
hidden = sorted(inst.impeded_ids)
rng.shuffle(hidden)

step = 0
while hidden and pos != inst.d:
    # Advance a few vertices along the current route, then learn one cost.
    hops = min(3, len(path.vertices) - 1)
    pos = path.vertices[hops]
    eid = hidden.pop()
    old = view.costs[eid]
    view.reveal(eid, real.costs[eid])
    before = state.expansions
    path = dstar.replan(state, view, pos, [eid])
    step += 1
    print(
        f"step {step}: revealed edge {eid} at {real.costs[eid]:.1f} (expected {old:.1f}); "
        f"repaired with {state.expansions - before} expansions, "
        f"cost to go {path.cost:.1f}"
    )
