"""Congestion sensing for placement and aggregator selection.

:class:`FabricFeedback` reads the watched ports' always-on state, never
the ``repro.obs`` recorder, so a simulation senses — and therefore
behaves — identically with a bundle active and with none.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.net.port import SwitchPort


def _signature(port: SwitchPort) -> tuple:
    return (port.occupancy_pkts, port.total_drops_pkts, port.total_timeouts, port.total_bytes)


class FabricFeedback:
    """EWMA-smoothed per-server congestion costs sensed on the switch ports.

    The sensing half of congestion-aware placement
    (:class:`repro.placement.congestion.CongestionAwarePlacement`) and
    of fabric-aware aggregator selection.  Snapshots each watched
    :class:`~repro.net.port.SwitchPort`'s ``occupancy_pkts``,
    ``total_drops_pkts``, ``total_timeouts`` and ``total_bytes`` at a
    configurable interval and folds them into one exponentially-weighted
    cost per port::

        instant = occupancy / buffer_norm + drop_weight * new_drops
        ewma    = instant + (ewma - instant) * (1 - alpha) ** elapsed_intervals

    so placement reacts to *sustained* hot ports, not transient bursts.

    ``ports`` are the per-server edge ports, one per server in server
    order; :meth:`for_topology` builds the instance a live
    :class:`~repro.net.fabric.Topology` needs.

    Fault tolerance: an edge port whose state goes **stale** (no
    occupancy or counter movement for ``stale_after_s`` — e.g. a stalled
    switch) contributes an instant cost of zero, so its EWMA decays and
    consumers fall back to their baseline behaviour instead of steering
    forever on a frozen reading.

    ``now_fn`` supplies the sampling clock (typically ``lambda:
    sim.now``); without one every :meth:`costs` call advances an
    internal tick by one interval, i.e. refreshes unconditionally.

    **Hierarchy.**  On a leaf/spine fabric a flow into server ``s``
    also crosses the rack's spine downlink, so ``hops`` gives each
    server that extra port (``None`` for a server with none).  Each
    distinct hop port gets its own EWMA, and :meth:`costs` reports
    ``edge + hop`` per server — congestion on an oversubscribed uplink
    surfaces on *every* server behind it, which is exactly what
    rack-aware placement needs to steer around a hot rack.
    """

    #: refresh steps folded per call are capped: past this many elapsed
    #: intervals the EWMA has converged to the instant reading anyway.
    MAX_STEPS = 64

    def __init__(
        self,
        ports: Sequence[SwitchPort],
        *,
        hops: Optional[Sequence[Optional[SwitchPort]]] = None,
        now_fn=None,
        interval_s: float = 1e-3,
        alpha: float = 0.5,
        drop_weight: float = 0.1,
        buffer_norm: float = 64.0,
        stale_after_s: float = 5e-3,
    ) -> None:
        n_servers = len(ports)
        if n_servers < 1:
            raise ValueError("need at least one server port")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if interval_s <= 0 or stale_after_s <= 0:
            raise ValueError("interval_s and stale_after_s must be > 0")
        if hops is not None and len(hops) != n_servers:
            raise ValueError(f"hops must have one entry per server ({n_servers}), got {len(hops)}")
        self.n_servers = n_servers
        self.now_fn = now_fn
        self.interval_s = interval_s
        self.alpha = alpha
        self.drop_weight = drop_weight
        self.buffer_norm = max(1.0, buffer_norm)
        self.stale_after_s = stale_after_s
        # watched ports: the server edge ports, then each *distinct* hop
        # port once (its EWMA is shared by the servers behind it)
        self._ports = list(ports)
        self._hop_of: list[Optional[int]] = [None] * n_servers
        for s, hop in enumerate(hops or ()):
            if hop is not None:
                if hop not in self._ports[n_servers:]:
                    self._ports.append(hop)
                self._hop_of[s] = self._ports.index(hop, n_servers)
        self._ewma = [0.0] * len(self._ports)
        self._last_sig: list[tuple] = []
        self._last_t: Optional[float] = None
        self._tick = 0.0                      # internal clock when now_fn is None
        self._sig_changed_t = [0.0] * n_servers
        self.stale = [False] * n_servers

    @classmethod
    def for_topology(cls, topo) -> "FabricFeedback":
        """Feedback over a :class:`~repro.net.fabric.Topology`'s own ports.

        Watches every server edge port plus, on a leaf/spine fabric,
        each server's rack downlink; samples on the topology's simulator
        clock and normalizes occupancy by the fabric's ``buffer_pkts``.
        """
        hops = None
        if topo.leafspine is not None:
            hops = [topo.leaf_down[topo.server_rack(s)] for s in range(topo.n_servers)]
        buffer_pkts = topo.fabric.buffer_pkts
        return cls(
            topo.server_ports,
            hops=hops,
            now_fn=lambda: topo.sim.now,
            buffer_norm=float(buffer_pkts) if buffer_pkts else 64.0,
        )

    def _instant(self, sig: tuple, drops_delta: float) -> float:
        return sig[0] / self.buffer_norm + self.drop_weight * max(0.0, drops_delta)

    def refresh(self) -> None:
        """Fold a snapshot into the EWMA if at least one interval elapsed."""
        now = self.now_fn() if self.now_fn is not None else self._tick
        if self._last_t is not None and now - self._last_t < self.interval_s:
            return
        sigs = [_signature(p) for p in self._ports]
        if self._last_t is None:
            # first observation: seed the EWMA with the instant reading
            self._ewma = [self._instant(sig, 0.0) for sig in sigs]
            self._sig_changed_t = [now] * self.n_servers
        else:
            steps = min(self.MAX_STEPS, int((now - self._last_t) / self.interval_s))
            decay = (1.0 - self.alpha) ** steps
            for i, sig in enumerate(sigs):
                prev = self._last_sig[i]
                instant = self._instant(sig, sig[1] - prev[1])
                if i < self.n_servers:  # only edge ports are staleness-checked
                    if sig != prev:
                        self._sig_changed_t[i] = now
                    self.stale[i] = (now - self._sig_changed_t[i]) >= self.stale_after_s
                    if self.stale[i]:
                        instant = 0.0
                self._ewma[i] = instant + (self._ewma[i] - instant) * decay
        self._last_sig = sigs
        self._last_t = now

    def hop_costs(self) -> dict[str, float]:
        """Current per-hop (rack downlink) EWMA costs, by port name."""
        n = self.n_servers
        return {p.name: e for p, e in zip(self._ports[n:], self._ewma[n:])}

    def costs(self) -> list[float]:
        """Current per-server congestion costs (refreshing first).

        With ``hops`` each server's cost is its edge-port EWMA *plus*
        its rack hop's EWMA, so uplink congestion is charged to every
        server behind that uplink.
        """
        if self.now_fn is None:
            self._tick += self.interval_s
        self.refresh()
        return [
            e + (self._ewma[h] if h is not None else 0.0)
            for e, h in zip(self._ewma, self._hop_of)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{c:.3f}" for c in self._ewma[: self.n_servers])
        return f"FabricFeedback([{inner}])"
