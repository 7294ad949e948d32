"""Workload definitions: which instances each workload runs, and how.

Every workload draws its missions from one `scoutplan.bench` generator.
A seed's mission list is a core of instances shared by every seed,
followed by a tail of instances drawn from the seed.  Mission cost
varies a lot between instances (the number of reveals decides the number
of replans, and a few dense-tour instances dominate the search time), so
lists drawn wholly from the seed would move throughput from seed to seed
by more than any regression bound worth having.  The shared core keeps
the figures comparable between seeds; the tail keeps every seed's inputs
its own, so a claim also has to hold on missions it was not tuned on.

The package is imported from the checkout's ``src`` directory, never from
an installed copy, so the benchmark always measures the code beside it.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "scoutplan" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no scoutplan package under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

from scoutplan import bench, sim  # noqa: E402
from scoutplan.core import ProblemInstance, Realization  # noqa: E402

Instance = tuple[ProblemInstance, Realization]


def derive_seed(tag: str) -> int:
    """Generator seed for one instance, in the style of the acceptance suite."""
    return random.Random(tag).getrandbits(31)


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], Instance]
    planner: str
    k: int
    core: int  # instances shared by every seed
    tail: int  # instances drawn from the seed

    def config(self) -> sim.SimulationConfig:
        return sim.SimulationConfig(planner=self.planner, k=self.k)

    def instances(self, seed: int) -> list[Instance]:
        """The seed's mission list: the shared core, then the seed's tail."""
        tags = [f"perfbench:{self.name}:core:{i}" for i in range(self.core)]
        tags += [f"perfbench:{self.name}:seed{seed}:{i}" for i in range(self.tail)]
        return [self.generate(derive_seed(tag)) for tag in tags]


WORKLOADS = {
    w.name: w
    for w in (
        # The criterion-5 family: adversarial realizations make on-path news
        # bad, so cost increases drive the k-path repair.
        Workload(
            "kpaths-adversarial",
            partial(bench.generate_bridge, bench.BridgeSpec(adversarial=True)),
            planner="rpp", k=7, core=37, tail=3,
        ),
        # Half the chain edges impeded: many critical edges feed the tour
        # search, while k=1 skips the spur searches entirely.
        Workload(
            "tour-dense",
            partial(
                bench.generate_bridge,
                bench.BridgeSpec(impeded_per_path=0.5, bridge_fraction=0.2),
            ),
            planner="rpp", k=1, core=290, tail=10,
        ),
        # The largest paper size with the linear-time scout planner, so the
        # k-path layer runs on a 5x larger graph and the tour search never does.
        Workload(
            "kpaths-scaling",
            partial(bench.generate_scaling, (40, 25)),
            planner="paa", k=4, core=22, tail=2,
        ),
    )
}
