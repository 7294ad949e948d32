"""Maintaining the k best loopless routes while costs change.

The ranked routes shift as impeded edges reveal their true costs; the
planner keeps all k of them current by repairing one shared search and
running one spur search per detour.
"""

import random

from scoutplan import bench, dstar, kspp
from scoutplan.core import PlanningCostView

inst, real = bench.generate_bridge(bench.BridgeSpec(n_paths=6, chain_len=10), seed=2)
view = PlanningCostView(inst)
state = dstar.initialize(inst)

K = 4
pset = kspp.update_k_paths(inst, view, state, inst.p, [], K)
print(f"bridged instance: {inst.n_vertices} vertices, {len(inst.impeded_ids)} impeded edges")
print("initial ranking:")
for rank, path in enumerate(pset.paths, start=1):
    print(f"  #{rank}: cost {path.cost:7.2f}, {len(path.vertices)} vertices")

rng = random.Random(5)
for eid in rng.sample(sorted(inst.impeded_ids), 4):
    old = view.costs[eid]
    view.reveal(eid, real.costs[eid])
    pset = kspp.update_k_paths(inst, view, state, inst.p, [eid], K)
    print(f"\nedge {eid}: expected {old:.1f} -> true {real.costs[eid]:.1f}")
    for rank, path in enumerate(pset.paths, start=1):
        print(f"  #{rank}: cost {path.cost:7.2f}, {len(path.vertices)} vertices")
