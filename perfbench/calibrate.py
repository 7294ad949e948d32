"""Host speed meter: a fixed reference kernel timed between missions.

The benchmark runs on shared virtual machines whose speed changes by up to
40% from one minute to the next.  Every timing of a run moves together, so
run-to-run spreads are set by the host, not by the code.  `SpeedMeter`
times a fixed pure-Python kernel between missions: shortest-path
relaxation sweeps over a 60x60 grid, the same kind of interpreter work as
the planner, with no scoutplan code and no container allocation (so no
garbage collection lands inside a sample).  About `FRACTION` of the run
goes to the kernel.  `scale` converts the run's measured times to the
reference speed: a time multiplied by it is what the run would have taken
on a host where the kernel takes `NOMINAL_S`.
"""

from __future__ import annotations

import random
from time import perf_counter

#: Median kernel time between missions on the host the benchmark was
#: defined on (2 vCPUs of an Intel Xeon at 2.0 GHz, CPython 3.11.7), so
#: scaled times read close to raw ones there.
NOMINAL_S = 0.0046
#: Share of the run spent in the kernel, and the least time between ticks.
FRACTION = 0.1
INTERVAL_S = 0.1
SWEEPS = 4


def _grid(n: int = 60) -> list[list[tuple[int, float]]]:
    rng = random.Random("perfbench-calibration")
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n * n)]
    for r in range(n):
        for c in range(n):
            v = r * n + c
            for w in ((v + 1) if c + 1 < n else None, (v + n) if r + 1 < n else None):
                if w is not None:
                    cost = rng.uniform(1.0, 2.0)
                    adj[v].append((w, cost))
                    adj[w].append((v, cost))
    return adj


_GRID = _grid()


def kernel() -> float:
    """Relaxation sweeps from vertex 0; returns the far corner's distance."""
    dist = [float("inf")] * len(_GRID)
    dist[0] = 0.0
    for _ in range(SWEEPS):
        for v, edges in enumerate(_GRID):
            dv = dist[v]
            for w, cost in edges:
                if dv + cost < dist[w]:
                    dist[w] = dv + cost
    return dist[-1]


class SpeedMeter:
    def __init__(self):
        self.samples: list[float] = []
        self._last = perf_counter()

    def sample(self, reps: int) -> None:
        """Time the kernel `reps` times."""
        for _ in range(reps):
            t0 = perf_counter()
            kernel()
            self.samples.append(perf_counter() - t0)
        self._last = perf_counter()

    def tick(self) -> None:
        """Time the kernel for about FRACTION of the time since the last
        tick, once INTERVAL_S has passed."""
        elapsed = perf_counter() - self._last
        if elapsed >= INTERVAL_S:
            self.sample(max(1, round(FRACTION * elapsed / NOMINAL_S)))

    @property
    def scale(self) -> float:
        if not self.samples:
            return 1.0
        return NOMINAL_S * len(self.samples) / sum(self.samples)
