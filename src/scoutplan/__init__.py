"""Cooperative route planning for a ground vehicle with an aerial scout.

The ground vehicle minimizes arrival time through a network whose impeded
edges have hidden travel costs; the scout inspects impeded edges ahead of
it so it can reroute early.  The package provides the incremental
k-shortest-path planner, the inspection-tour and priority planners for the
scout, a deterministic co-simulation, and benchmark generators; each name
is imported from its module (``core``, ``sim``, ``bench``, ...).
"""

__version__ = "0.1.0"
