"""Shared network fabric: links, switch ports, and topologies.

The PDSI report treats the network as a first-class part of the storage
stack — its incast study (Phanishayee et al., FAST'08) shows *switch
output-buffer overflow*, not disks, capping striped-read goodput.  This
module is the one place the reproduction models that network:

* :class:`Link` — a point-to-point link, fixed latency plus
  serialization at bandwidth;
* :class:`FabricParams` — the congestion knobs every consumer shares:
  packet size, per-port output-buffer depth, RTT, minimum RTO (with
  optional jitter), and TCP-ish window limits.  ``buffer_pkts=None`` is
  the degenerate **ideal** fabric: infinite buffers, no contention —
  pure latency+bandwidth arithmetic, bit-stable with the historical
  inline NIC math;
* :class:`SwitchPort` — one switch output port: a link plus a finite
  shared output buffer, with drop/timeout/window semantics generalized
  from the incast model and per-port ``repro.obs`` metrics
  (drops, timeouts, retransmits, occupancy, bytes), each registered
  the first time the port has something to record in it;
* :class:`Topology` — client NICs → switch → server NICs, driven as
  :class:`repro.sim.Simulator` processes.  Used by
  :class:`repro.pfs.SimPFS` for every client→server request and
  server→client reply, by :mod:`repro.dfs` for remote shuffle reads,
  and by :mod:`repro.pnfs` for NFS/pNFS writes;
* :class:`LeafSpineParams` — the two-tier topology option: clients and
  servers live in racks behind leaf switches joined by spine uplinks
  with a configurable oversubscription ratio.  Cross-rack flows then
  traverse a *path* of :class:`SwitchPort` hops (source leaf uplink →
  destination leaf downlink → destination edge port), each with its own
  finite buffer, drops, RTOs, blackouts, and tenant attribution;
* :func:`synchronized_fanin` — the round-based engine behind the
  incast reproduction (one round = one RTT), now a fabric primitive so
  ``repro.net.incast`` is a thin configuration of it.

Three drive modes share the same :class:`SwitchPort` semantics:

=============  =======================================================
process mode   :meth:`Topology.to_server` / :meth:`Topology.to_client`
               are generators; admitted packets occupy the port buffer
               until the port's link (a capacity-1 resource) drains
               them; a flow finding the buffer full suffers a full-
               window loss and sits out a (min-)RTO before retrying.
               This is ``FabricParams.mode="exact"``, the default,
               pinned bit-identical by the goldens.
fluid mode     ``FabricParams.mode="fluid"`` routes the same
               :meth:`Topology.to_server` / :meth:`~Topology.to_client`
               calls through :class:`repro.net.fluid.FluidEngine`:
               flows are max-min fair bandwidth *shares* over their hop
               path, recomputed at tick intervals, with synchronized
               bursts stall-probed through the window dynamics.  ~100×
               fewer simulator events; matches exact-mode curves within
               the tolerance stated in ``docs/performance.md``.
round mode     :func:`synchronized_fanin` advances whole RTT rounds
               with vectorized window/drop/RTO bookkeeping — exactly
               the published incast model.
=============  =======================================================

All randomness (drop selection, RTO jitter) flows through an explicit
``numpy.random.Generator`` so two same-seed runs are identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.net.fluid import FluidEngine, windowed_rounds
from repro.obs.metrics import HeldSeries
from repro.sim import Acquire, Resource, Simulator, Timeout

#: Occupancy histogram bucket edges (packets queued at a port).
OCCUPANCY_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)


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
    """Two-tier leaf/spine shape for :class:`Topology`.

    Endpoints live in racks behind leaf switches; leaves join through
    spine uplinks whose bandwidth is derived from the rack's aggregate
    edge bandwidth divided by ``oversubscription``.  Same-rack traffic
    only crosses the destination edge port (exactly the flat topology);
    cross-rack traffic additionally crosses the source leaf's uplink and
    the destination leaf's downlink.

    Attributes
    ----------
    n_racks: number of racks (leaf switches).  Servers are assigned to
        racks in contiguous blocks (``rack = server * n_racks //
        n_servers``); clients round-robin across racks (``rack = client
        % n_racks``) unless ``clients_per_rack`` pins them in blocks.
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


@dataclass(frozen=True)
class FabricParams:
    """Congestion knobs shared by every fabric consumer.

    ``buffer_pkts=None`` with the default ``mode="exact"`` selects the
    **ideal** fabric — infinite buffers, no contention — under which
    :class:`Topology` reproduces plain ``latency + nbytes/bandwidth``
    arithmetic exactly.

    Two drive modes share every knob (see ``docs/performance.md`` for
    the tolerance contract between them):

    * ``mode="exact"`` — per-packet windowed rounds
      (:meth:`Topology._windowed`): admission against finite buffers,
      tail drops, fast retransmit, full-window-loss RTOs.  Goldens pin
      this mode bit-identical.
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
    seed: seed for drop sampling and RTO jitter (default 42).  Exact
        mode only — fluid consumes no randomness.
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
    seed: int = 42                       # drop sampling + RTO jitter
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


class SwitchPort:
    """One switch output port: a link plus a finite shared output buffer.

    Tracks occupancy (packets admitted but not yet drained) and exposes
    per-port ``repro.obs`` metrics.  With ``sim`` given, the port also
    owns a capacity-1 :class:`~repro.sim.Resource` modelling the output
    link, so process-mode transfers serialize through it; without a
    simulator the port is a pure accounting object for the round-based
    engine.

    **Label scheme / authority.**  The ``total_*`` attributes
    (:attr:`total_drops_pkts`, :attr:`total_timeouts`,
    :attr:`total_retransmits`, :attr:`total_bytes`,
    :attr:`total_blackouts`) are the *authoritative* always-on counts:
    plain ints, present with or without a metrics bundle, snapshot via
    :meth:`stats`.  When a bundle is attached the single
    ``record_*`` write points mirror every bump into the registry under
    one consistent scheme — ``net.fabric.<what>{port=<name>}`` for
    counters (``drops_pkts``, ``timeouts``, ``retransmits``, ``bytes``,
    ``blackouts``) — so the two views cannot drift.  Occupancy
    (``net.fabric.occupancy_pkts`` gauge + ``.hist`` histogram) is
    obs-only: it is an instantaneous reading, not a total.  Per-tenant
    damage attribution lives under ``net.fabric.tenant.<what>{tenant=}``
    (recorded by :meth:`Topology._windowed` from the request context),
    deliberately a *separate* metric family so per-port label sets stay
    exactly as :class:`FabricFeedback` expects.

    **Series on first use.**  Construction keeps only the registry
    handle.  A series is registered by the first ``record_*`` with a
    non-zero amount (or the first :meth:`admit`, for occupancy), so a
    port's series exists iff something was recorded in it and a series
    that exists equals the matching ``total_*``: a 64,000-port fabric
    with one hot port costs one port's worth of registry, and readers
    (:class:`FabricFeedback`, reports) treat a missing series as zero
    via :meth:`repro.obs.MetricsRegistry.value`.
    """

    def __init__(
        self,
        link: Link,
        fabric: FabricParams,
        sim: Optional[Simulator] = None,
        obs=None,
        name: str = "port",
    ) -> None:
        self.link = link
        self.fabric = fabric
        self.name = name
        self.occupancy_pkts = 0
        self.down = False  # fault injection: blacked-out port delivers nothing
        # always-on local totals (mirrored into obs when a registry is
        # attached) so consumers — aggregator selection, benchmarks —
        # can read per-port damage without an active metrics bundle
        self.total_drops_pkts = 0
        self.total_timeouts = 0
        self.total_retransmits = 0
        self.total_bytes = 0
        self.total_blackouts = 0
        self.res: Optional[Resource] = (
            Resource(sim, capacity=1, name=f"{name}.link") if sim is not None else None
        )
        # only the registry handle is kept here; each series is resolved
        # by the first record_*/admit that has something to put in it
        self._metrics = obs.metrics if obs is not None else None
        self._c_drops = self._c_timeouts = self._c_retransmits = None
        self._c_bytes = self._c_blackouts = None
        self._g_occupancy = self._h_occupancy = None

    # -- geometry ------------------------------------------------------
    @property
    def pkt_time_s(self) -> float:
        return self.fabric.pkt_bytes / self.link.bandwidth_Bps

    @property
    def pkts_per_rtt(self) -> int:
        return max(1, int(self.fabric.rtt_s / self.pkt_time_s))

    @property
    def round_capacity_pkts(self) -> int:
        """Packets deliverable per RTT round: buffer plus line rate."""
        if self.fabric.buffer_pkts is None:
            raise ValueError("round capacity is undefined on an ideal (infinite) port")
        return self.fabric.buffer_pkts + self.pkts_per_rtt

    def safe_fanin(self, cost: float = 0.0) -> int:
        """Most *synchronized* flows this port absorbs without an RTO risk.

        :attr:`round_capacity_pkts` packets clear the port per RTT round,
        but only the buffered share of that capacity is admission
        headroom for simultaneous arrivals: flows that inject in the
        same instant (a collective shuffle, a striped fan-in) see none
        of the round's line-rate drain yet, so every flow's initial
        window must fit the buffer *at once* or some flow loses its
        entire window — and a full-window loss has no dup-acks to
        trigger fast retransmit, so that flow sits out a (min-)RTO.

        ``cost`` (e.g. a :class:`FabricFeedback` EWMA congestion cost
        for this port) discounts the headroom: a port already carrying
        background traffic has ``buffer/(1+cost)`` free packets to
        offer a new synchronized burst.

        Always >= 1; unbounded (``2**30``) on an ideal port.
        """
        if self.fabric.buffer_pkts is None:
            return 1 << 30
        buffered = self.round_capacity_pkts - self.pkts_per_rtt  # == buffer_pkts
        eff = buffered / (1.0 + max(0.0, cost))
        return max(1, int(eff) // self.fabric.init_cwnd)

    # -- buffer accounting --------------------------------------------
    def free_pkts(self) -> int:
        if self.down:
            # blacked out: admits nothing, so windowed flows see a
            # full-window loss and sit out RTOs until the port restores
            return 0
        if self.fabric.buffer_pkts is None:
            return 1 << 62
        return max(0, self.fabric.buffer_pkts - self.occupancy_pkts)

    def set_down(self, down: bool) -> None:
        """Blackout (or restore) the port; counted once per transition."""
        if down and not self.down:
            self.record_blackout(1)
        self.down = down

    def admit(self, pkts: int) -> None:
        self.occupancy_pkts += pkts
        if self._metrics is not None:
            if self._h_occupancy is None:
                m, name = self._metrics, self.name
                self._g_occupancy = m.gauge("net.fabric.occupancy_pkts", port=name)
                self._h_occupancy = m.histogram(
                    "net.fabric.occupancy_pkts.hist", buckets=OCCUPANCY_BUCKETS, port=name
                )
            self._g_occupancy.set(self.occupancy_pkts)
            self._h_occupancy.observe(self.occupancy_pkts)

    def drain(self, pkts: int) -> None:
        self.occupancy_pkts -= pkts
        if self._g_occupancy is not None:
            self._g_occupancy.set(self.occupancy_pkts)

    # -- event accounting ---------------------------------------------
    def _mirror(self, attr: str, what: str, n: int) -> None:
        """Add ``n`` to ``net.fabric.<what>{port=}``, held in ``attr``.

        The first non-zero bump registers the series; only called under
        a bundle.
        """
        c = getattr(self, attr)
        if c is None:
            c = self._metrics.counter(f"net.fabric.{what}", port=self.name)
            setattr(self, attr, c)
        c.value += n

    def record_drops(self, pkts: int) -> None:
        self.total_drops_pkts += pkts
        if self._metrics is not None and pkts:
            self._mirror("_c_drops", "drops_pkts", pkts)

    def record_timeouts(self, n: int = 1) -> None:
        self.total_timeouts += n
        if self._metrics is not None and n:
            self._mirror("_c_timeouts", "timeouts", n)

    def record_retransmit(self, n: int = 1) -> None:
        self.total_retransmits += n
        if self._metrics is not None and n:
            self._mirror("_c_retransmits", "retransmits", n)

    def record_bytes(self, nbytes: int) -> None:
        self.total_bytes += nbytes
        if self._metrics is not None and nbytes:
            self._mirror("_c_bytes", "bytes", nbytes)

    def record_blackout(self, n: int = 1) -> None:
        self.total_blackouts += n
        if self._metrics is not None and n:
            self._mirror("_c_blackouts", "blackouts", n)

    def stats(self) -> dict:
        """The authoritative always-on totals, as one sorted-key dict."""
        return {
            "port": self.name,
            "drops_pkts": self.total_drops_pkts,
            "timeouts": self.total_timeouts,
            "retransmits": self.total_retransmits,
            "bytes": self.total_bytes,
            "blackouts": self.total_blackouts,
            "occupancy_pkts": self.occupancy_pkts,
            "down": self.down,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = self.fabric.buffer_pkts
        return f"SwitchPort({self.name}, {self.occupancy_pkts}/{cap if cap is not None else '∞'} pkts)"


class FabricFeedback:
    """EWMA-smoothed per-server congestion costs read back from the obs registry.

    This is the sensing half of congestion-aware placement
    (:class:`repro.placement.congestion.CongestionAwarePlacement`): it
    snapshots the per-port metrics :class:`SwitchPort` exports
    (``net.fabric.occupancy_pkts`` gauges, ``net.fabric.drops_pkts`` /
    ``timeouts`` / ``bytes`` counters; read by ``(name, port)`` without
    registering — a port that never recorded reads as zeros) at a
    configurable interval and
    folds them into one exponentially-weighted cost per server port::

        instant = occupancy / buffer_norm + drop_weight * new_drops
        ewma    = instant + (ewma - instant) * (1 - alpha) ** elapsed_intervals

    so placement reacts to *sustained* hot ports, not transient bursts.

    Fault tolerance: a port whose metrics go **stale** (no counter or
    gauge movement for ``stale_after_s`` — e.g. a stalled switch has
    stopped exporting) contributes an instant cost of zero, so its EWMA
    decays and consumers fall back to their baseline behaviour instead
    of steering forever on frozen telemetry.  A missing registry
    (``metrics=None``) reports all-zero costs and never raises —
    feedback degrades, placement must not wedge.

    ``now_fn`` supplies the sampling clock (typically ``lambda:
    sim.now``); without one every :meth:`costs` call advances an
    internal tick by one interval, i.e. refreshes unconditionally.

    **Hierarchy.**  On a leaf/spine fabric a flow into server ``s``
    also crosses the rack's spine downlink, so ``uplink_names`` maps
    each server to the extra hop's port label (e.g. ``"leaf1.down"``,
    from :meth:`Topology.uplink_name_for_server`).  Each distinct hop
    port gets its own EWMA from the same per-port metrics, and
    :meth:`costs` reports ``edge + hop`` per server — congestion on an
    oversubscribed uplink surfaces on *every* server behind it, which
    is exactly what rack-aware placement needs to steer around a hot
    rack.  The per-edge-port metric label sets are untouched.
    """

    #: refresh steps folded per call are capped: past this many elapsed
    #: intervals the EWMA has converged to the instant reading anyway.
    MAX_STEPS = 64

    def __init__(
        self,
        metrics,
        n_servers: int,
        *,
        now_fn=None,
        interval_s: float = 1e-3,
        alpha: float = 0.5,
        drop_weight: float = 0.1,
        buffer_norm: float = 64.0,
        stale_after_s: float = 5e-3,
        port_prefix: str = "server",
        uplink_names: Optional[list[Optional[str]]] = None,
    ) -> None:
        if n_servers < 1:
            raise ValueError("need at least one server port")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if interval_s <= 0 or stale_after_s <= 0:
            raise ValueError("interval_s and stale_after_s must be > 0")
        if uplink_names is not None and len(uplink_names) != n_servers:
            raise ValueError(
                f"uplink_names must have one entry per server "
                f"({n_servers}), got {len(uplink_names)}"
            )
        self.metrics = metrics
        self.n_servers = n_servers
        self.now_fn = now_fn
        self.interval_s = interval_s
        self.alpha = alpha
        self.drop_weight = drop_weight
        self.buffer_norm = max(1.0, buffer_norm)
        self.stale_after_s = stale_after_s
        self.port_prefix = port_prefix
        self.uplink_names = uplink_names
        self._ewma = [0.0] * n_servers
        self._last_t: Optional[float] = None
        self._tick = 0.0                      # internal clock when now_fn is None
        self._last_sig: list[Optional[tuple]] = [None] * n_servers
        self._sig_changed_t = [0.0] * n_servers
        self.stale = [False] * n_servers
        # one EWMA per *distinct* hop port, shared by the servers behind it
        self._hops: list[str] = sorted(
            {u for u in (uplink_names or []) if u is not None}
        )
        self._hop_ewma = {u: 0.0 for u in self._hops}
        self._hop_last_sig: dict[str, Optional[tuple]] = {u: None for u in self._hops}

    def _signature(self, server: int) -> tuple:
        return self._port_signature(f"{self.port_prefix}{server}")

    def _port_signature(self, port: str) -> tuple:
        # read-only: a port that never recorded reads as zeros and
        # stays unregistered
        value = self.metrics.value
        return (
            value("net.fabric.occupancy_pkts", port=port),
            value("net.fabric.drops_pkts", port=port),
            value("net.fabric.timeouts", port=port),
            value("net.fabric.bytes", port=port),
        )

    def refresh(self, now: Optional[float] = None) -> None:
        """Fold a snapshot into the EWMA if at least one interval elapsed."""
        if self.metrics is None:
            return
        if now is None:
            now = self.now_fn() if self.now_fn is not None else self._tick
        if self._last_t is None:
            # first observation: seed the EWMA with the instant reading
            self._last_t = now
            for s in range(self.n_servers):
                sig = self._signature(s)
                self._last_sig[s] = sig
                self._sig_changed_t[s] = now
                self._ewma[s] = self._instant(s, sig, drops_delta=0.0)
            for u in self._hops:
                sig = self._port_signature(u)
                self._hop_last_sig[u] = sig
                self._hop_ewma[u] = self._instant_from(sig, drops_delta=0.0)
            return
        elapsed = now - self._last_t
        if elapsed < self.interval_s:
            return
        steps = min(self.MAX_STEPS, int(elapsed / self.interval_s))
        decay = (1.0 - self.alpha) ** steps
        for s in range(self.n_servers):
            sig = self._signature(s)
            prev = self._last_sig[s]
            if sig != prev:
                self._sig_changed_t[s] = now
            self.stale[s] = (now - self._sig_changed_t[s]) >= self.stale_after_s
            drops_delta = sig[1] - prev[1] if prev is not None else 0.0
            instant = 0.0 if self.stale[s] else self._instant(s, sig, drops_delta)
            self._ewma[s] = instant + (self._ewma[s] - instant) * decay
            self._last_sig[s] = sig
        for u in self._hops:
            sig = self._port_signature(u)
            prev = self._hop_last_sig[u]
            drops_delta = sig[1] - prev[1] if prev is not None else 0.0
            instant = self._instant_from(sig, drops_delta)
            self._hop_ewma[u] = instant + (self._hop_ewma[u] - instant) * decay
            self._hop_last_sig[u] = sig
        self._last_t = now

    def _instant(self, server: int, sig: tuple, drops_delta: float) -> float:
        return self._instant_from(sig, drops_delta)

    def _instant_from(self, sig: tuple, drops_delta: float) -> float:
        occupancy = sig[0]
        return occupancy / self.buffer_norm + self.drop_weight * max(0.0, drops_delta)

    def hop_costs(self) -> dict[str, float]:
        """Current per-hop (uplink/downlink) EWMA costs, by port label."""
        return dict(self._hop_ewma)

    def costs(self, now: Optional[float] = None) -> list[float]:
        """Current per-server congestion costs (refreshing first).

        With ``uplink_names`` each server's cost is its edge-port EWMA
        *plus* its rack hop's EWMA, so uplink congestion is charged to
        every server behind that uplink.
        """
        if self.metrics is None:
            return [0.0] * self.n_servers
        if now is None and self.now_fn is None:
            self._tick += self.interval_s
        self.refresh(now)
        if self.uplink_names is None:
            return list(self._ewma)
        return [
            e + (self._hop_ewma[u] if u is not None else 0.0)
            for e, u in zip(self._ewma, self.uplink_names)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{c:.3f}" for c in self._ewma)
        return f"FabricFeedback([{inner}])"


class Topology:
    """Client NICs → switch → server NICs, driven as simulation processes.

    The **ideal** configuration (``fabric.ideal``) reproduces the
    historical inline arithmetic exactly:

    * :meth:`client_xfer` — acquire the client's host NIC, hold it for
      ``client_link.transfer_s(nbytes)``;
    * :meth:`request_cost_s` — scalar ``rpc_latency + server-link
      serialization`` for a server to absorb/emit one request.

    With finite ``fabric.buffer_pkts``, transfers instead route through
    per-destination :class:`SwitchPort` objects via :meth:`to_server`
    (client request payload converging on a storage server) and
    :meth:`to_client` (striped read replies converging on a client —
    the incast path), with windowed injection, tail drops, fast
    retransmit, and full-window-loss RTOs.

    Parameters
    ----------
    sim: the :class:`~repro.sim.Simulator` that drives all transfers.
    n_servers: storage-server switch ports to build (one per server).
    client_link: the per-client host link (bandwidth in B/s, latency in
        seconds); client NICs and client-side switch ports use it.
    server_link: the per-server link, same units.
    rpc_latency_s: software round-trip overhead charged per request by
        :meth:`request_cost_s`, in seconds (default 0.0).
    fabric: the shared :class:`FabricParams` congestion knobs (default
        :data:`IDEAL_FABRIC` — infinite buffers, no contention).
    name: label prefix for observability output (default ``"fabric"``).
    """

    def __init__(
        self,
        sim: Simulator,
        n_servers: int,
        client_link: Link,
        server_link: Link,
        rpc_latency_s: float = 0.0,
        fabric: FabricParams = IDEAL_FABRIC,
        name: str = "fabric",
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.client_link = client_link
        self.server_link = server_link
        self.rpc_latency_s = rpc_latency_s
        self.name = name
        self.obs = getattr(sim, "obs", None)
        # open cohort spans of anonymous flows, by (entry instant, hops),
        # and the flow-duration histograms, by hops (see _flow_span)
        self._cohorts: dict[tuple[float, int], list] = {}
        metrics = self.obs.metrics if self.obs is not None else None
        self._h_xfer = HeldSeries(
            lambda hops: metrics.histogram("net.fabric.xfer_s", hops=hops)
        )
        self.rng = np.random.default_rng(fabric.seed)
        self._client_nics: dict[int, Resource] = {}
        self._client_ports: dict[int, SwitchPort] = {}
        self._named_ports: dict[str, SwitchPort] = {}
        self.n_servers = n_servers
        self.server_ports = [
            SwitchPort(server_link, fabric, sim=sim, obs=self.obs, name=f"server{i}")
            for i in range(n_servers)
        ]
        self._fluid_engine: Optional[FluidEngine] = (
            FluidEngine(sim, fabric) if fabric.fluid else None
        )
        self.leafspine = fabric.leafspine
        self.leaf_up: list[SwitchPort] = []
        self.leaf_down: list[SwitchPort] = []
        self._racks_down: set[int] = set()
        if self.leafspine is not None:
            ls = self.leafspine
            per_rack_edges = max(1, -(-n_servers // ls.n_racks))  # ceil
            uplink = Link(
                bandwidth_Bps=per_rack_edges * server_link.bandwidth_Bps
                / ls.oversubscription,
                latency_s=server_link.latency_s,
            )
            for r in range(ls.n_racks):
                self.leaf_up.append(SwitchPort(
                    uplink, fabric, sim=sim, obs=self.obs, name=f"leaf{r}.up"
                ))
                self.leaf_down.append(SwitchPort(
                    uplink, fabric, sim=sim, obs=self.obs, name=f"leaf{r}.down"
                ))

    # -- rack geometry (leaf/spine only; flat answers are degenerate) --
    @property
    def n_racks(self) -> int:
        """Rack count; 1 under the flat topology."""
        return self.leafspine.n_racks if self.leafspine is not None else 1

    def server_rack(self, server: int) -> int:
        """Rack of a server: contiguous blocks (0 under flat)."""
        if self.leafspine is None:
            return 0
        return server * self.leafspine.n_racks // max(1, self.n_servers)

    def client_rack(self, client: int) -> int:
        """Rack of a client: round-robin, or blocks of ``clients_per_rack``."""
        if self.leafspine is None:
            return 0
        ls = self.leafspine
        if ls.clients_per_rack is not None:
            return (client // ls.clients_per_rack) % ls.n_racks
        return client % ls.n_racks

    def client_for_rack(self, rack: int, k: int = 0) -> int:
        """The ``k``-th client id living in ``rack`` (inverse of
        :meth:`client_rack`); identity-ish under flat (returns ``k``)."""
        if self.leafspine is None:
            return k
        ls = self.leafspine
        if ls.clients_per_rack is not None:
            return (rack % ls.n_racks) * ls.clients_per_rack + k
        return (rack % ls.n_racks) + k * ls.n_racks

    def uplink_name_for_server(self, server: int) -> Optional[str]:
        """The rack-downlink port label a flow into ``server`` crosses
        when it originates outside the rack; ``None`` under flat."""
        if self.leafspine is None:
            return None
        return f"leaf{self.server_rack(server)}.down"

    # -- endpoints -----------------------------------------------------
    def client_nic(self, client: int) -> Resource:
        nic = self._client_nics.get(client)
        if nic is None:
            nic = Resource(self.sim, capacity=1, name=f"client{client}.nic")
            self._client_nics[client] = nic
        return nic

    def client_port(self, client: int) -> SwitchPort:
        port = self._client_ports.get(client)
        if port is None:
            port = SwitchPort(
                self.client_link, self.fabric, sim=self.sim, obs=self.obs,
                name=f"client{client}",
            )
            if self.client_rack(client) in self._racks_down:
                port.set_down(True)
            self._client_ports[client] = port
        return port

    def named_port(self, name: str, link: Link) -> SwitchPort:
        """A memoized extra port (e.g. an NFS server's single nfsd funnel)."""
        port = self._named_ports.get(name)
        if port is None:
            port = SwitchPort(
                link, self.fabric, sim=self.sim, obs=self.obs, name=name
            )
            self._named_ports[name] = port
        return port

    # -- fault injection ----------------------------------------------
    def set_port_down(self, server: int, down: bool) -> None:
        """Blackout/restore a *server* switch port (fault injection).

        Only meaningful under a finite-buffer fabric: the windowed
        process path finds ``free_pkts() == 0`` and RTO-loops until the
        port restores.  Under the ideal fabric transfers never touch the
        switch ports, so a blackout records the transition (metrics)
        but costs nothing — crash the server itself to model
        unreachability there.

        The hierarchy-aware sibling is :meth:`set_leaf_down`, which
        takes a whole rack's leaf switch (uplink, downlink, and every
        edge port behind it) down in one transition.

        Fluid mode reacts at flow-rate granularity instead: a down port
        contributes zero capacity, so flows crossing it stall at rate 0
        until the restore recomputes the shares.
        """
        self.server_ports[server].set_down(down)
        if self._fluid_engine is not None:
            self._fluid_engine.mark_dirty()

    def set_leaf_down(self, rack: int, down: bool) -> None:
        """Blackout/restore a whole leaf switch (fault injection).

        Downs the rack's spine uplink and downlink plus every edge port
        behind the leaf — all the rack's server ports and any client
        ports (including ones lazily created while the leaf is down).
        Requires a leaf/spine topology.
        """
        if self.leafspine is None:
            raise ValueError("set_leaf_down requires a leaf/spine topology")
        if not 0 <= rack < self.leafspine.n_racks:
            raise ValueError(f"rack {rack} out of range [0, {self.leafspine.n_racks})")
        if down:
            self._racks_down.add(rack)
        else:
            self._racks_down.discard(rack)
        self.leaf_up[rack].set_down(down)
        self.leaf_down[rack].set_down(down)
        for s in range(self.n_servers):
            if self.server_rack(s) == rack:
                self.server_ports[s].set_down(down)
        for c, port in self._client_ports.items():
            if self.client_rack(c) == rack:
                port.set_down(down)
        if self._fluid_engine is not None:
            self._fluid_engine.mark_dirty()

    # -- ideal-path arithmetic ----------------------------------------
    def request_cost_s(self, nbytes: int) -> float:
        """Uncontended server-side cost: RPC overhead + link serialization."""
        return self.rpc_latency_s + self.server_link.transfer_s(nbytes)

    # -- simulation processes -----------------------------------------
    def client_xfer(self, client: int, nbytes: int):
        """Serialize ``nbytes`` onto the client's host NIC (both modes)."""
        nic = self.client_nic(client)
        grant = yield Acquire(nic)
        yield Timeout(self.client_link.transfer_s(nbytes))
        nic.release(grant)

    def _route(self, dst_port: SwitchPort, dst_rack: int, src_rack: Optional[int]) -> list[SwitchPort]:
        """Hops a flow crosses to reach ``dst_port``.

        Flat topology, unknown source, or same-rack: just the
        destination edge port (exactly the historical single-hop path).
        Cross-rack: source leaf uplink → destination leaf downlink →
        destination edge port.
        """
        if self.leafspine is None or src_rack is None or src_rack == dst_rack:
            return [dst_port]
        return [self.leaf_up[src_rack], self.leaf_down[dst_rack], dst_port]

    def to_server(
        self, server: int, nbytes: int, parent_span=None, cwnd_cap=None, ctx=None,
        src_client: Optional[int] = None,
    ):
        """Move a request payload through the server's switch output port.

        ``src_client`` names the originating client so leaf/spine
        fabrics can route cross-rack flows over the spine; omitted (or
        under a flat topology) the flow crosses only the destination
        edge port — the historical behaviour, bit-identical.
        """
        src_rack = None if src_client is None else self.client_rack(src_client)
        path = self._route(
            self.server_ports[server], self.server_rack(server), src_rack
        )
        yield from self._xfer(path, nbytes, parent_span, cwnd_cap, ctx)

    def to_client(
        self, client: int, nbytes: int, parent_span=None, cwnd_cap=None, ctx=None,
        src_server: Optional[int] = None,
    ):
        """Move a reply through the client's switch output port (incast path).

        ``src_server`` names the replying server for leaf/spine routing,
        same contract as :meth:`to_server`'s ``src_client``.
        """
        src_rack = None if src_server is None else self.server_rack(src_server)
        path = self._route(self.client_port(client), self.client_rack(client), src_rack)
        yield from self._xfer(path, nbytes, parent_span, cwnd_cap, ctx)

    def server_to_server(
        self, src_server: int, dst_server: int, nbytes: int,
        parent_span=None, cwnd_cap=None, ctx=None,
    ):
        """Move a payload from one server to another (rebuild traffic).

        Scrub/rebuild share collection uses this path: a replacement
        server pulls surviving shares from their homes.  Same-rack (or
        flat-topology) transfers cross only the destination edge port;
        cross-rack transfers ride the source leaf's spine uplink and the
        destination leaf's downlink — so a rebuild storm contends with
        foreground traffic exactly where real ones do.
        """
        path = self._route(
            self.server_ports[dst_server],
            self.server_rack(dst_server),
            self.server_rack(src_server),
        )
        yield from self._xfer(path, nbytes, parent_span, cwnd_cap, ctx)

    def to_port(self, port: SwitchPort, nbytes: int, parent_span=None, cwnd_cap=None, ctx=None):
        """Move a payload through one explicit port (e.g. a named funnel)."""
        yield from self._xfer([port], nbytes, parent_span, cwnd_cap, ctx)

    def _xfer(self, path: list[SwitchPort], nbytes: int, parent_span=None, cwnd_cap=None, ctx=None):
        """Mode dispatch: the exact windowed engine or the fluid engine."""
        if self._fluid_engine is not None:
            return self._fluid(path, nbytes, parent_span, cwnd_cap, ctx)
        return self._windowed(path, nbytes, parent_span, cwnd_cap, ctx)

    def fluid_stats(self) -> Optional[dict]:
        """Fluid-engine totals (epochs, probes, stalls); None in exact mode."""
        return self._fluid_engine.stats() if self._fluid_engine is not None else None

    # -- flight recorder: one span rule for both engines -----------------
    def _flow_span(self, path: list[SwitchPort], nbytes: int, parent_span, ctx):
        """The ``fabric.xfer`` span of a flow entering the fabric now.

        A flow that carries a ``ctx`` or a ``parent_span`` is reachable
        from a request query and gets a span of its own.  An *anonymous*
        flow is not, so it joins the cohort span of every anonymous flow
        with the same hop count entering at this simulated instant:
        ``n_flows`` members, ``nbytes`` summed, closed by the last member
        to finish (see :meth:`_flow_done`).  Only called under a bundle.
        """
        now = self.sim.now
        hops = len(path)
        anonymous = ctx is None and parent_span is None
        if anonymous:
            cohort = self._cohorts.get((now, hops))
            if cohort is not None:
                span = cohort[0]
                span.attrs["n_flows"] += 1
                span.attrs["nbytes"] += nbytes
                cohort[1] += 1
                return span
            attrs = {"n_flows": 1}
        else:
            attrs = ctx.span_attrs() if ctx is not None else {}
        span = self.obs.tracer.start(
            "fabric.xfer", parent=parent_span, at=now,
            port=path[-1].name, nbytes=nbytes, hops=hops, **attrs,
        )
        if anonymous:
            self._cohorts[(now, hops)] = [span, 1]  # [span, members in flight]
        return span

    def _flow_done(self, span, path: list[SwitchPort]) -> None:
        """A flow finished: time it, and close its span if it is the last.

        Every flow lands in ``net.fabric.xfer_s{hops=}``, so the duration
        distribution survives cohort aggregation.  A cohort span ends
        with its last member and names that straggler's destination as
        ``port``.
        """
        now = self.sim.now
        hops = len(path)
        self._h_xfer[hops].observe(now - span.start)
        if "n_flows" in span.attrs:
            key = (span.start, hops)
            cohort = self._cohorts[key]
            cohort[1] -= 1
            if cohort[1]:
                return
            del self._cohorts[key]
            span.attrs["port"] = path[-1].name
        span.finish(at=now)

    def _fluid(self, path: list[SwitchPort], nbytes: int, parent_span=None, cwnd_cap=None, ctx=None):
        """One flow through the fluid engine (``FabricParams.mode="fluid"``).

        The engine time-shares each hop's line rate among concurrent
        flows (max-min fair) and stall-probes synchronized bursts
        against the destination buffer; this generator then charges the
        closed-form *latency surcharge* — the ack rounds of the exact
        window ramp plus store-and-forward serialization on the
        non-bottleneck hops — so an uncontended fluid flow finishes at
        exactly the uncontended exact-mode instant (see
        :mod:`repro.net.fluid`).  ``cwnd_cap`` tightens the round count
        like it tightens exact-mode window growth; ``ctx`` receives
        drop/RTO attribution from the stall probe.
        """
        if nbytes <= 0:
            return
        fab = self.fabric
        span = None
        if self.obs is not None:
            span = self._flow_span(path, nbytes, parent_span, ctx)
        max_w = fab.max_cwnd if cwnd_cap is None else max(1, min(fab.max_cwnd, cwnd_cap))
        npkts = -(-nbytes // fab.pkt_bytes)  # ceil
        t0 = self.sim.now
        ev = self._fluid_engine.start_flow(path, npkts, max_w, ctx)
        yield ev
        tail_s = self._fluid_engine.pop_tail_s(ev)
        self.sim.recycle_event(ev)
        # The uncontended exact-mode finish instant is a latency *floor*:
        # every packet serializes at every store-and-forward hop and every
        # window round costs one RTT ack.  The engine drain already spent
        # bottleneck serialization (plus any queueing/stall time); under
        # contention those ack gaps overlap other flows' transmissions,
        # so only the part of the floor the drain hasn't covered is
        # charged — uncontended this is exactly rounds*rtt + the
        # non-bottleneck hop serialization, making fluid == exact there.
        pkt_times = [p.pkt_time_s for p in path]
        rounds = windowed_rounds(npkts, min(fab.init_cwnd, max_w), max_w)
        t_floor = t0 + npkts * sum(pkt_times) + rounds * fab.rtt_s
        # The exact engine ends *every* round — including the last — with
        # an RTT ack wait.  A clean synchronized cohort stays in lockstep,
        # so each round's RTT goes unoverlapped except for what the other
        # members' transmissions cover (the engine precomputed that
        # gap-sum, see ``lockstep_tail_s``); a lossy/desynchronized flow
        # keeps only the final RTT.  Uncontended the solo floor already
        # contains the full ack tail (rounds >= 1), so this only bites
        # when contention pushed the drain past the solo floor.
        t_floor = max(t_floor, self.sim.now + tail_s)
        if t_floor > self.sim.now:
            yield Timeout(t_floor - self.sim.now)
        for p in path:
            p.record_bytes(nbytes)
        if span is not None:
            self._flow_done(span, path)

    def _windowed(self, path: list[SwitchPort], nbytes: int, parent_span=None, cwnd_cap=None, ctx=None):
        """One flow's windowed injection through a *path* of finite buffers.

        Each round: inject up to ``cwnd`` packets.  Admission is gated
        by the tightest hop on the path (``min`` of every hop's free
        buffer); what fits is admitted at **every** hop in order and
        drained by each hop's link (a shared capacity-1 resource);
        overflow is tail-dropped, attributed to the bottleneck hop.
        Partial loss halves the window (fast retransmit); a
        *full*-window loss has nothing in flight to trigger it, so the
        flow sits out a (min-)RTO.  One RTT elapses per round for the
        acknowledgement regardless of hop count (the hops pipeline).
        A single-element path is operation-for-operation the historical
        single-port behaviour — goldens pin it bit-identical.

        ``cwnd_cap`` (packets) clamps window growth below the fabric's
        ``max_cwnd`` — application-level pacing.  A cooperating fan-in
        (the collective shuffle) caps each flow at its share of the port
        buffer so the concurrent windows fit the buffer *at once*; TCP
        left alone grows past it and tail-drops.

        ``ctx`` (a :class:`repro.obs.RequestContext`) attributes the
        flow's damage to its request: drops and RTOs bump the context's
        counters in-line, and — with a bundle active — per-tenant
        ``net.fabric.tenant.*{tenant=}`` counters.  Attribution never
        changes simulated time.
        """
        if nbytes <= 0:
            return
        fab = self.fabric
        span = None
        t_drops = t_rtos = None
        if self.obs is not None:
            span = self._flow_span(path, nbytes, parent_span, ctx)
            if ctx is not None:
                m = self.obs.metrics
                t_drops = m.counter("net.fabric.tenant.drops_pkts", tenant=ctx.tenant)
                t_rtos = m.counter("net.fabric.tenant.rtos", tenant=ctx.tenant)
        max_w = fab.max_cwnd if cwnd_cap is None else max(1, min(fab.max_cwnd, cwnd_cap))
        total = -(-nbytes // fab.pkt_bytes)  # ceil
        cwnd = min(fab.init_cwnd, max_w)
        done = 0
        while done < total:
            want = min(cwnd, total - done)
            # admission is gated by the tightest hop; ties go to the
            # earliest hop so drop attribution is deterministic
            bottleneck = path[0]
            free = bottleneck.free_pkts()
            for p in path[1:]:
                f = p.free_pkts()
                if f < free:
                    free, bottleneck = f, p
            admit = min(want, free)
            if admit <= 0:
                # full-window loss: no ack, no dup-acks — wait out the RTO
                bottleneck.record_drops(want)
                bottleneck.record_timeouts(1)
                if ctx is not None:
                    ctx.drops_pkts += want
                    ctx.rtos += 1
                    if t_drops is not None:
                        t_drops.inc(want)
                        t_rtos.inc()
                yield Timeout(fab.rto_s(self.rng))
                cwnd = min(fab.init_cwnd, max_w)
                continue
            if admit < want:
                # partial loss: triple-dup-ack fast retransmit, window halves
                bottleneck.record_drops(want - admit)
                bottleneck.record_retransmit(1)
                if ctx is not None:
                    ctx.drops_pkts += want - admit
                    if t_drops is not None:
                        t_drops.inc(want - admit)
                cwnd = max(1, cwnd // 2)
            else:
                cwnd = min(cwnd + 1, max_w)
            for p in path:
                p.admit(admit)
                grant = yield Acquire(p.res)
                yield Timeout(admit * p.pkt_time_s)
                p.res.release(grant)
                p.drain(admit)
            done += admit
            yield Timeout(fab.rtt_s)  # the round's acknowledgement
        for p in path:
            p.record_bytes(nbytes)
        if span is not None:
            self._flow_done(span, path)


# -- the round-based synchronized fan-in engine (incast) ---------------

@dataclass
class FaninResult:
    """Aggregate outcome of a synchronized fan-in run."""

    n_flows: int
    total_bytes: int
    elapsed_s: float
    timeouts: int
    repeat_timeouts: int   # timeouts of flows that already timed out within
                           # the same block — retransmission-storm collisions,
                           # the thing RTO jitter removes
    n_blocks: int

    @property
    def goodput_Bps(self) -> float:
        return self.total_bytes / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def block_time_s(self) -> float:
        return self.elapsed_s / self.n_blocks if self.n_blocks else 0.0


def synchronized_fanin(
    link: Link,
    fabric: FabricParams,
    n_flows: int,
    sru_bytes: int,
    rng: np.random.Generator,
    n_blocks: int = 20,
    port: Optional[SwitchPort] = None,
) -> FaninResult:
    """Fetch ``n_blocks`` striped blocks from ``n_flows`` synchronized senders.

    The round-based model (one round = one RTT) from the incast study:
    each active flow injects its window; injected packets beyond the
    port's service+buffer capacity for the round are dropped uniformly
    at random; full-window loss → timeout with the configured minimum
    RTO (optionally jittered); partial loss → window halves (fast
    retransmit).  Coarse, but it contains exactly the three mechanisms
    the published fix manipulates.

    ``port`` (optional, simulator-less) receives per-port drop/timeout
    accounting so the run shows up in ``repro.obs`` job reports.
    """
    if n_flows < 1:
        raise ValueError("need at least one flow")
    if fabric.buffer_pkts is None:
        raise ValueError("synchronized_fanin needs a finite buffer_pkts")
    if port is None:
        port = SwitchPort(link, fabric, name=fabric.name)
    pkt_time = port.pkt_time_s
    sru_pkts = max(1, sru_bytes // fabric.pkt_bytes)
    cap = port.round_capacity_pkts  # deliverable per round
    total_bytes = 0
    t = 0.0
    timeouts = 0
    repeat_timeouts = 0
    for _ in range(n_blocks):
        remaining = np.full(n_flows, sru_pkts, dtype=np.int64)
        cwnd = np.full(n_flows, fabric.init_cwnd, dtype=np.int64)
        wake = np.zeros(n_flows)  # timeout expiry per flow
        timed_out_before = np.zeros(n_flows, dtype=bool)
        while remaining.any():
            active = (remaining > 0) & (wake <= t)
            if not active.any():
                t = wake[remaining > 0].min()
                continue
            send = np.where(active, np.minimum(cwnd, remaining), 0)
            injected = int(send.sum())
            if injected <= cap:
                remaining -= send
                cwnd[active] = np.minimum(cwnd[active] + 1, fabric.max_cwnd)
                t += max(fabric.rtt_s, injected * pkt_time)
                continue
            # overflow: drop (injected - cap) packets uniformly at random
            drops = injected - cap
            flat = np.repeat(np.arange(n_flows), send)
            dropped_idx = rng.choice(injected, size=drops, replace=False)
            lost = np.bincount(flat[dropped_idx], minlength=n_flows)
            delivered = send - lost
            remaining -= delivered
            port.record_drops(drops)
            full_loss = active & (send > 0) & (delivered == 0) & (remaining > 0)
            partial = active & (delivered > 0)
            cwnd[partial] = np.maximum(cwnd[partial] // 2, 1)
            port.record_retransmit(int(partial.sum()))
            n_to = int(full_loss.sum())
            if n_to:
                timeouts += n_to
                repeat_timeouts += int((full_loss & timed_out_before).sum())
                timed_out_before |= full_loss
                base = max(fabric.min_rto_s, 2.0 * fabric.rtt_s)
                if fabric.rto_jitter:
                    rto = base * (0.5 + rng.random(n_to))
                else:
                    rto = np.full(n_to, base)
                wake[full_loss] = t + rto
                cwnd[full_loss] = fabric.init_cwnd
                port.record_timeouts(n_to)
            t += max(fabric.rtt_s, cap * pkt_time)
        total_bytes += n_flows * sru_pkts * fabric.pkt_bytes
    port.record_bytes(total_bytes)
    return FaninResult(
        n_flows=n_flows,
        total_bytes=total_bytes,
        elapsed_s=t,
        timeouts=timeouts,
        repeat_timeouts=repeat_timeouts,
        n_blocks=n_blocks,
    )
