"""Fabric configuration — links, the leaf/spine shape, the congestion knobs.

Pure data, no simulator and no ports.  The rack rule
(:meth:`LeafSpineParams.server_rack`) and the RTO floor
(:meth:`FabricParams.rto_s`) are each stated here and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Link:
    """A point-to-point link: fixed latency plus serialization at bandwidth."""

    bandwidth_Bps: float
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_Bps <= 0:
            raise ValueError(f"link bandwidth must be > 0, got {self.bandwidth_Bps}")
        if self.latency_s < 0:
            raise ValueError(f"link latency must be >= 0, got {self.latency_s}")

    def transfer_s(self, nbytes: float) -> float:
        """Time to move ``nbytes`` across this link, uncontended."""
        if math.isinf(self.bandwidth_Bps):
            return self.latency_s
        return self.latency_s + nbytes / self.bandwidth_Bps


def fluid_shared_Bps(edge_Bps: float, aggregate_Bps: float, n_sharers: int) -> float:
    """Effective per-flow bandwidth on an edge link behind a shared aggregate.

    The fluid model every inline ``min(nic, backplane/share)`` expression
    used to spell by hand: a flow gets its edge rate until ``n_sharers``
    concurrent flows oversubscribe the aggregate (a backplane, a spine
    uplink), at which point the aggregate is divided fairly.

    >>> fluid_shared_Bps(112e6, 640e6, 4)
    112000000.0
    >>> fluid_shared_Bps(112e6, 640e6, 8)
    80000000.0
    """
    return min(edge_Bps, aggregate_Bps / max(1, n_sharers))


@dataclass(frozen=True)
class LeafSpineParams:
    """Two-tier leaf/spine shape for :class:`~repro.net.fabric.Topology`.

    Endpoints live in racks behind leaf switches; leaves join through
    spine uplinks whose bandwidth is derived from the rack's aggregate
    edge bandwidth divided by ``oversubscription``.  Same-rack traffic
    only crosses the destination edge port (exactly the flat topology);
    cross-rack traffic additionally crosses the source leaf's uplink and
    the destination leaf's downlink.

    Attributes
    ----------
    n_racks: number of racks (leaf switches).  Servers are assigned to
        racks in contiguous blocks (:meth:`server_rack`); clients
        round-robin across racks (``rack = client % n_racks``) unless
        ``clients_per_rack`` pins them in blocks.
    oversubscription: ratio of a rack's aggregate edge bandwidth to its
        spine uplink bandwidth (default 1.0 — non-blocking).  The
        canonical congested fabric is 4:1 (``oversubscription=4.0``).
    clients_per_rack: when set, client ``c`` lives in rack
        ``(c // clients_per_rack) % n_racks`` — contiguous client
        blocks, matching how rack-aware workloads number their ranks.
    """

    n_racks: int = 2
    oversubscription: float = 1.0
    clients_per_rack: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_racks < 1:
            raise ValueError(f"n_racks must be >= 1, got {self.n_racks}")
        if self.oversubscription < 1.0:
            raise ValueError(
                f"oversubscription must be >= 1.0, got {self.oversubscription}"
            )
        if self.clients_per_rack is not None and self.clients_per_rack < 1:
            raise ValueError(
                f"clients_per_rack must be >= 1 (or None), got {self.clients_per_rack}"
            )

    def server_rack(self, server: int, n_servers: int) -> int:
        """Rack of ``server`` among ``n_servers``: contiguous blocks.

        >>> [LeafSpineParams(n_racks=3).server_rack(s, 8) for s in range(8)]
        [0, 0, 0, 1, 1, 1, 2, 2]
        """
        return server * self.n_racks // max(1, n_servers)


@dataclass(frozen=True)
class FabricParams:
    """Congestion knobs shared by every fabric consumer.

    ``buffer_pkts=None`` with the default ``mode="exact"`` selects the
    **ideal** fabric — infinite buffers, no contention — under which
    :class:`~repro.net.fabric.Topology` reproduces plain
    ``latency + nbytes/bandwidth`` arithmetic exactly.

    Two drive modes share every knob (see ``docs/performance.md`` for
    the tolerance contract between them):

    * ``mode="exact"`` — per-packet windowed rounds
      (:meth:`repro.net.fabric.Topology._windowed`): admission against
      finite buffers, tail drops, fast retransmit, full-window-loss
      RTOs.  Goldens pin this mode bit-identical.
    * ``mode="fluid"`` — tick-interval max-min fair-share rates
      (:class:`repro.net.fluid.FluidEngine`): flows hold bandwidth
      shares on their hop path, synchronized bursts are stall-probed
      through the same window dynamics, and event cost is per *flow*,
      not per packet round — the mode for 10⁵–10⁶-client sweeps.

    Attributes
    ----------
    name: label for reports and port metrics (default ``"ideal"``).
        Both modes.
    buffer_pkts: per-port shared output buffer, in packets.  ``None``
        (the default) is the infinite buffer; real 2008-era top-of-rack
        switches buffered 32–128 packets per port.  Exact mode: gates
        admission per round.  Fluid mode: sizes the burst-stall probe's
        round capacity (``None`` disables the probe — pure sharing).
    pkt_bytes: packet (MTU) size in bytes (default 1500, Ethernet).
        Both modes: sets packet counts, serialization times, and the
        fluid latency surcharge.
    rtt_s: base round-trip time in seconds (default 100 µs, one
        datacenter switch hop).  Exact mode: one RTT per window round.
        Fluid mode: the per-round term of the latency surcharge and the
        rate-recompute / completion-batch tick.
    min_rto_s: minimum retransmission timeout in seconds (default 0.2 —
        the historical 200 ms TCP floor whose reduction to ~1 ms is the
        published incast fix).  Exact mode: full-window-loss sit-out.
        Fluid mode: the burst-probe stall quantum.
    rto_jitter: when True, each RTO is scaled by a uniform factor in
        [0.5, 1.5) drawn from the seeded generator (default False).
        Exact mode only — the fluid probe is deterministic and unjittered.
    init_cwnd: initial congestion window, in packets (default 2).  Both
        modes (fluid: ramp round count + probe).
    max_cwnd: congestion-window growth cap, in packets (default 64).
        Both modes (fluid: steady-state round count — the surcharge's
        ``rtt/max_cwnd`` per-packet pacing term).
    seed: seed for RTO jitter (default 42), the only randomness: exact
        mode tail-drops deterministically.  Exact mode only — fluid
        consumes no randomness.
    leafspine: optional :class:`LeafSpineParams`; ``None`` (the
        default) keeps the flat single-switch topology.  Both modes
        (fluid flows hold shares on every hop of the spine path).
    mode: ``"exact"`` (default) or ``"fluid"`` — see above.
    """

    name: str = "ideal"
    buffer_pkts: Optional[int] = None    # per-port output buffer; None = infinite
    pkt_bytes: int = 1500
    rtt_s: float = 100e-6
    min_rto_s: float = 0.2               # the historical 200 ms minimum
    rto_jitter: bool = False             # randomize the timeout
    init_cwnd: int = 2
    max_cwnd: int = 64
    seed: int = 42                       # RTO jitter
    leafspine: Optional[LeafSpineParams] = None
    mode: str = "exact"                  # "exact" | "fluid"

    def __post_init__(self) -> None:
        if self.buffer_pkts is not None and self.buffer_pkts < 1:
            raise ValueError(f"buffer_pkts must be >= 1 (or None), got {self.buffer_pkts}")
        if self.pkt_bytes < 1:
            raise ValueError(f"pkt_bytes must be >= 1, got {self.pkt_bytes}")
        if self.init_cwnd < 1 or self.max_cwnd < self.init_cwnd:
            raise ValueError("need 1 <= init_cwnd <= max_cwnd")
        if self.mode not in ("exact", "fluid"):
            raise ValueError(f'mode must be "exact" or "fluid", got {self.mode!r}')

    @property
    def ideal(self) -> bool:
        """True for the no-contention scalar-arithmetic path.

        Only the *exact* mode has an ideal shortcut: under
        ``mode="fluid"`` even infinite buffers route through the fluid
        engine, so concurrent flows share link bandwidth.
        """
        return self.buffer_pkts is None and self.mode == "exact"

    @property
    def fluid(self) -> bool:
        return self.mode == "fluid"

    def rto_s(self, rng: Optional[np.random.Generator] = None) -> float:
        """One retransmission timeout; jittered through ``rng`` if enabled."""
        base = max(self.min_rto_s, 2.0 * self.rtt_s)
        if self.rto_jitter and rng is not None:
            return base * (0.5 + float(rng.random()))
        return base


#: The degenerate no-contention configuration (the pre-fabric behaviour).
IDEAL_FABRIC = FabricParams()
