"""Congestion-aware placement: fabric occupancy fed back into server choice.

The report's placement study (§4.2.3) compares strategies on load
balance and migration cost alone, but the finite-buffer fabric
(:mod:`repro.net.fabric`) shows the real cost of a bad layout is
congestion collapse at hot switch ports.  This module closes the loop:

* :class:`CongestionAwarePlacement` wraps any
  :class:`~repro.placement.strategies.PlacementStrategy` and re-weights
  its server choice with live per-port costs from a
  :class:`~repro.net.feedback.FabricFeedback` (EWMA-smoothed occupancy +
  drop rates read off the switch ports);
* :func:`build_placement` resolves the ``PFSParams.placement`` knob —
  a strategy instance, ``"round-robin"`` or ``"congestion"`` — into a
  bound strategy.

Two invariants placement consumers rely on:

* **degrade-to-base** — with no feedback, all-zero costs (idle fabric),
  or stale telemetry (the EWMA decays to zero), ``place()`` returns
  exactly the wrapped strategy's choice;
* **structure-preserving diversion** — alternates are the servers the
  base strategy uses for *neighbouring* chunks, so a round-robin file
  stays in rotation order.
"""

from __future__ import annotations

from typing import Optional

from repro.net.feedback import FabricFeedback
from repro.placement.strategies import PlacementStrategy, RoundRobinPlacement


class CongestionAwarePlacement(PlacementStrategy):
    """Divert chunks off sustained-hot switch ports.

    For each chunk the wrapped strategy's choice is compared against up
    to ``fanout`` candidate servers (the base strategy's picks for the
    next chunks); the chunk goes to the cheapest candidate under the
    feedback's EWMA cost, with ties — including the all-idle case, where
    every cost is at most ``idle_threshold`` — resolved in favour of the
    base choice.  A diversion must win by at least ``hysteresis`` so
    placement does not flap between near-equal ports.
    """

    def __init__(
        self,
        base: PlacementStrategy,
        feedback: Optional[FabricFeedback] = None,
        fanout: int = 4,
        idle_threshold: float = 1e-3,
        hysteresis: float = 0.05,
    ) -> None:
        super().__init__(base.n_servers)
        if fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {fanout}")
        if feedback is not None and feedback.n_servers != base.n_servers:
            raise ValueError(
                f"feedback covers {feedback.n_servers} servers, "
                f"base strategy has {base.n_servers}"
            )
        self.base = base
        self.feedback = feedback
        self.fanout = fanout
        self.idle_threshold = idle_threshold
        self.hysteresis = hysteresis
        self.diversions = 0  # chunks steered away from the base choice

    @property
    def name(self) -> str:
        return f"congestion({self.base.name})"

    def candidates(self, file_id: int, chunk: int) -> list[int]:
        """Base choice first, then the base strategy's picks for the
        following chunks (deduplicated) — alternates that respect the
        wrapped strategy's structure (its rotation order)."""
        seen: list[int] = []
        probe = 0
        limit = 4 * self.fanout  # a base may repeat servers; bound the scan
        while len(seen) < min(self.fanout, self.n_servers) and probe < limit:
            s = self.base.place(file_id, chunk + probe)
            if s not in seen:
                seen.append(s)
            probe += 1
        return seen

    def place(self, file_id: int, chunk: int) -> int:
        choice = self.base.place(file_id, chunk)
        if self.feedback is None:
            return choice
        costs = self.feedback.costs()
        if max(costs) <= self.idle_threshold:
            return choice
        best, best_cost = choice, costs[choice]
        for s in self.candidates(file_id, chunk):
            if costs[s] < best_cost - self.hysteresis:
                best, best_cost = s, costs[s]
        if best != choice:
            self.diversions += 1
        return best


def build_placement(spec, topology) -> PlacementStrategy:
    """Resolve the ``PFSParams.placement`` knob into a bound strategy.

    ``spec`` is a :class:`PlacementStrategy` (used as-is, once its server
    count is checked), ``"round-robin"``, or ``"congestion"``: round-robin
    wrapped in :class:`CongestionAwarePlacement` sensing ``topology``'s
    own ports (:meth:`repro.net.feedback.FabricFeedback.for_topology`).
    On a leaf/spine fabric each server's cost includes its rack downlink,
    so a hot uplink steers new stripes toward other racks, not just other
    edge ports.
    """
    n_servers = topology.n_servers
    if isinstance(spec, PlacementStrategy):
        if spec.n_servers != n_servers:
            raise ValueError(
                f"placement strategy built for {spec.n_servers} servers, "
                f"deployment has {n_servers}"
            )
        return spec
    if spec == "round-robin":
        return RoundRobinPlacement(n_servers)
    if spec == "congestion":
        return CongestionAwarePlacement(
            RoundRobinPlacement(n_servers), feedback=FabricFeedback.for_topology(topology)
        )
    raise ValueError(f"unknown placement spec {spec!r}")
