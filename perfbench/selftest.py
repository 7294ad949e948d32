"""Self-test of the tracer: two traced runs of one workload and seed agree.

    python3 perfbench/selftest.py --workload tour-dense [--seed 0]

Generates the mission list twice, runs each copy once with the tracer
installed, and compares every mission's counters and event-log digest.
Missions that hit the RPP budget in either run are reported and left out
of the comparison, since their tours depend on machine speed.  Exits 0
when everything compared is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
from collections import Counter

from calibrate import SpeedMeter
from run import Session
from tracer import Tracer
from workloads import WORKLOADS, Workload

#: Counters the comparison prints; every counter is compared.
SHOWN = (
    "dstar.expansions.rank1",
    "dstar.expansions.spur",
    "dstar.update_vertex.calls",
    "dstar.heap_ops",
    "kspp.spur_searches",
    "rpp.tour_nodes",
    "rpp.critical_edges",
)


def traced_run(workload: Workload, seed: int) -> tuple[Session, Tracer]:
    session = Session(workload, seed, workload.instances(seed), {})
    tracer = Tracer()
    tracer.install()
    try:
        session.run_pass(SpeedMeter())
    finally:
        tracer.uninstall()
    return session, tracer


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    (s1, t1), (s2, t2) = traced_run(workload, args.seed), traced_run(workload, args.seed)
    if s1.failed or s2.failed:
        print(f"FAIL: {s1.failed} and {s2.failed} missions failed the gate")
        return 1
    skipped = sorted(set(s1.budget_hit_missions) | set(s2.budget_hit_missions))
    compared = [i for i in range(len(s1.instances)) if i not in skipped]
    differ = [i for i in compared
              if t1.missions[i] != t2.missions[i] or s1.seen.get(i) != s2.seen.get(i)]
    totals = [Counter(), Counter()]
    for i in compared:
        totals[0].update(t1.missions[i])
        totals[1].update(t2.missions[i])
    for key in SHOWN:
        print(f"{key:28s} {totals[0][key]:>12d} {totals[1][key]:>12d}")
    print(f"{len(compared)} missions compared; skipped for RPP budget hits: {skipped}")
    if differ:
        print(f"FAIL: counters or event-log digests differ on missions {differ}")
        return 1
    print("PASS: identical counters and event-log digests")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
