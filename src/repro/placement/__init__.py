"""Data-placement strategies (report §4.2.3, "Parallel Layout").

* :class:`RoundRobinPlacement` — PVFS: deterministic striping from a
  per-file start offset, the base every placed ``SimPFS`` layout uses;
* :class:`CongestionAwarePlacement` (:mod:`repro.placement.congestion`)
  closes the loop with the network fabric: it wraps any strategy and
  re-weights its choice with live per-port occupancy/drop costs (see
  docs/placement.md);
* :mod:`repro.placement.rebuild` steers rebuilt shares off flapping
  servers.
"""

from repro.placement.congestion import CongestionAwarePlacement, build_placement
from repro.placement.strategies import PlacementStrategy, RoundRobinPlacement

__all__ = [
    "CongestionAwarePlacement",
    "PlacementStrategy",
    "RoundRobinPlacement",
    "build_placement",
]
