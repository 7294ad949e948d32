"""A full mission on the two-detour walkthrough instance.

Without the scout, the ground vehicle trusts the expected costs, commits
to the bad edge and arrives at t=24.  With the scout inspecting the right
edge first, the news lands before the junction and the vehicle reroutes,
arriving at t=18, which matches the perfect-information bound here.
"""

from scoutplan import bench, sim
from scoutplan.sim import SimulationConfig, format_event

inst, real = bench.demo_instance()
print("hidden true costs:", dict(sorted(real.true_cost.items())))
print("perfect-information bound:", sim.lower_bound(inst, real))

for label, cfg in (
    ("unassisted", SimulationConfig(planner="none")),
    ("with scout (tour planner)", SimulationConfig(planner="rpp", k=2)),
    ("with scout (priority planner)", SimulationConfig(planner="paa", k=2)),
    ("with scout (naive baseline)", SimulationConfig(planner="naive")),
):
    out = sim.run(inst, real, cfg)
    print(f"\n=== {label}: arrival {out.arrival_time}")
    for ev in out.events:
        print("  " + format_event(ev))
