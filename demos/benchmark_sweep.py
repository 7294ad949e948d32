"""A small benchmark sweep, written to ./sweep_results.

Adversarial bridged instances: hidden costs on the initial route realize
at their worst, so the scout's early inspections are what save time.  The
summary shows the share of the naive-to-bound gap closed as the route
budget k grows.
"""

from scoutplan import bench

spec = bench.ExperimentSpec(
    family="bridge",
    n_instances=10,
    k_values=(1, 2, 3, 5),
    planners=("rpp", "paa"),
    seed=2024,
    specs=(bench.BridgeSpec(adversarial=True),),
)
summary, failures = bench.run_experiment(spec, "sweep_results")

print(f"{'planner':8} {'k':>2} {'LB':>7} {'naive':>7} {'cost':>7} {'gap closed':>10}")
for row in summary:
    print(
        f"{row['planner']:8} {row['k']:>2} {row['LB']:7.1f} {row['naive_cost']:7.1f} "
        f"{row['cost']:7.1f} {row['delta_pct']:9.1f}%"
    )
print("\nper-run data: sweep_results/runs.csv; summary: sweep_results/summary.csv")
if failures:
    print(f"{len(failures)} instance(s) failed; see sweep_results/failures.csv")
