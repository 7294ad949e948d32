"""Record the event-log digests that the correctness gate checks.

    python3 perfbench/record_references.py

Runs every mission of every workload once for the reference seeds and
writes perfbench/references.json.  Run it only on a commit whose planner
behaviour is the reference, i.e. the commit that introduced the benchmark
or one proven to give bit-identical event logs.  A mission that hits the
RPP wall-clock budget gets no digest, because its tour depends on machine
speed.
"""

from __future__ import annotations

import json

from run import REFERENCES, Session
from workloads import WORKLOADS

#: The default seed, and one held out to check later claims on.
REFERENCE_SEEDS = (0, 1)


def main() -> int:
    out = {"seeds": list(REFERENCE_SEEDS), "workloads": {}}
    for name, workload in WORKLOADS.items():
        entry: dict = {"core": None, "tail": {}}
        n = workload.core + workload.tail
        for seed in REFERENCE_SEEDS:
            session = Session(workload, seed, workload.instances(seed), {})
            # The core is the same for every seed, so run it only once.
            first = 0 if entry["core"] is None else workload.core
            for index in range(first, n):
                session.mission(index)
            if session.failed:
                raise SystemExit(f"{name} seed {seed}: {session.failed} missions failed")
            digests = [session.seen.get(i) for i in range(n)]
            if entry["core"] is None:
                entry["core"] = digests[: workload.core]
            entry["tail"][str(seed)] = digests[workload.core:]
            print(f"{name} seed {seed}: {n - first} missions,"
                  f" budget hits on {sorted(session.budget_hit_missions)}", flush=True)
        out["workloads"][name] = entry
    REFERENCES.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
