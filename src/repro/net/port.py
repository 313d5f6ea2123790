"""One switch output port: a link, a finite shared buffer, always-on totals."""

from __future__ import annotations

from typing import Optional

from repro.net.params import FabricParams, Link
from repro.sim import Resource, Simulator

#: Occupancy histogram bucket edges (packets queued at a port).
OCCUPANCY_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)


class SwitchPort:
    """One switch output port: a link plus a finite shared output buffer.

    Tracks occupancy (packets admitted but not yet drained) and exposes
    per-port ``repro.obs`` metrics.  With ``sim`` given on an exact-mode
    fabric, the port also owns a capacity-1 :class:`~repro.sim.Resource`
    modelling the output link, so
    :meth:`repro.net.fabric.Topology._windowed` transfers serialize
    through it.  A fluid-mode port has no link resource (``res is
    None``): the fluid engine shares line rate by computed rates and
    never queues on one.  Without a simulator the port is geometry and
    accounting only — what :meth:`safe_fanin` sizing and the feedback
    tests need.  Ports are ``__slots__`` objects, about 280 B each in
    fluid mode, because a 10⁶-client fabric builds two per client.

    **Label scheme / authority.**  :attr:`occupancy_pkts` and the
    ``total_*`` attributes (:attr:`total_drops_pkts`,
    :attr:`total_timeouts`, :attr:`total_retransmits`,
    :attr:`total_bytes`, :attr:`total_blackouts`) are the
    *authoritative* always-on state: plain ints, present with or
    without a metrics bundle, snapshot via :meth:`stats`, and the only
    thing the model itself ever reads.  When a bundle is attached the
    single ``record_*`` write points mirror every bump into the registry
    under one consistent scheme — ``net.fabric.<what>{port=<name>}`` for
    counters (``drops_pkts``, ``timeouts``, ``retransmits``, ``bytes``,
    ``blackouts``) — so the two views cannot drift, and
    :meth:`admit`/:meth:`drain` mirror occupancy
    (``net.fabric.occupancy_pkts`` gauge + ``.hist`` histogram).
    Per-tenant damage attribution lives under
    ``net.fabric.tenant.<what>{tenant=}`` (recorded by
    :meth:`repro.net.fabric.Topology._windowed` from the request
    context).

    **Series on first use.**  Construction keeps only the registry
    handle.  A series is registered by the first ``record_*`` with a
    non-zero amount (or the first :meth:`admit`, for occupancy), so a
    port's series exists iff something was recorded in it and a series
    that exists equals the matching ``total_*``: a 64,000-port fabric
    with one hot port costs one port's worth of registry.
    """

    __slots__ = (
        "link", "fabric", "pkt_time_s", "name", "occupancy_pkts", "down",
        "total_drops_pkts", "total_timeouts", "total_retransmits",
        "total_bytes", "total_blackouts", "res", "_metrics",
        "_c_drops", "_c_timeouts", "_c_retransmits", "_c_bytes",
        "_c_blackouts", "_g_occupancy", "_h_occupancy",
    )

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
        # Link and FabricParams are frozen, so this never goes stale
        self.pkt_time_s = fabric.pkt_bytes / link.bandwidth_Bps
        self.name = name
        self.occupancy_pkts = 0
        self.down = False  # fault injection: blacked-out port delivers nothing
        # always-on local totals (mirrored into obs when a registry is
        # attached) so consumers — congestion feedback, aggregator
        # selection, benchmarks — read per-port damage off the port
        self.total_drops_pkts = 0
        self.total_timeouts = 0
        self.total_retransmits = 0
        self.total_bytes = 0
        self.total_blackouts = 0
        # only the exact engine queues on the link; fluid flows never do
        self.res: Optional[Resource] = (
            Resource(sim, capacity=1, name=f"{name}.link")
            if sim is not None and fabric.mode == "exact" else None
        )
        # only the registry handle is kept here; each series is resolved
        # by the first record_*/admit that has something to put in it
        self._metrics = obs.metrics if obs is not None else None
        self._c_drops = self._c_timeouts = self._c_retransmits = None
        self._c_bytes = self._c_blackouts = None
        self._g_occupancy = self._h_occupancy = None

    # -- geometry ------------------------------------------------------
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

        ``cost`` (e.g. a :class:`~repro.net.feedback.FabricFeedback`
        EWMA congestion cost for this port) discounts the headroom: a
        port already carrying background traffic has ``buffer/(1+cost)``
        free packets to offer a new synchronized burst.

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
