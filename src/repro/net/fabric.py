"""The shared network fabric: client NICs → switch ports → server NICs.

The PDSI report treats the network as a first-class part of the storage
stack — its incast study (Phanishayee et al., FAST'08) shows *switch
output-buffer overflow*, not disks, capping striped-read goodput.
:class:`Topology` is the one place the reproduction drives that
network, as :class:`repro.sim.Simulator` processes: used by
:class:`repro.pfs.SimPFS` for every client→server request and
server→client reply, by :mod:`repro.dfs` for remote chunk reads, by
:mod:`repro.pnfs` for NFS/pNFS writes, and by :mod:`repro.collective`
for the phase-1 shuffle.  Its parts live beside it:
configuration in :mod:`repro.net.params`, the port in
:mod:`repro.net.port`, congestion sensing in :mod:`repro.net.feedback`,
the fluid engine in :mod:`repro.net.fluid`.  On a leaf/spine fabric a
cross-rack flow traverses a *path* of ports — source leaf uplink →
destination leaf downlink → destination edge port — each with its own
finite buffer, drops, RTOs, blackouts, and tenant attribution.

Two drive modes share the same :class:`SwitchPort` semantics:

=============  =======================================================
exact mode     :meth:`Topology.to_server` / :meth:`Topology.to_client`
               return generators; admitted packets occupy the port buffer
               until the port's link (a capacity-1 resource) drains
               them; a flow finding the buffer full suffers a full-
               window loss and sits out a (min-)RTO before retrying.
               This is ``FabricParams.mode="exact"``, the default,
               pinned bit-identical by the goldens; Fig 9's incast
               study (:mod:`repro.net.incast`) rides it too.
fluid mode     ``FabricParams.mode="fluid"`` routes the same
               :meth:`Topology.to_server` / :meth:`~Topology.to_client`
               calls through :class:`repro.net.fluid.FluidEngine`:
               flows are max-min fair bandwidth *shares* over their hop
               path, recomputed at tick intervals, with synchronized
               bursts stall-probed through the window dynamics.  ~100×
               fewer simulator events; matches exact-mode curves within
               the tolerance stated in ``docs/performance.md``.
=============  =======================================================

Drops are deterministic tail drops; the only randomness is RTO jitter,
drawn from the topology's ``numpy.random.Generator`` seeded from
``FabricParams.seed``, so two same-seed runs are identical.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.net.fluid import FluidEngine, windowed_rounds
from repro.net.params import IDEAL_FABRIC, FabricParams, LeafSpineParams, Link
from repro.net.port import SwitchPort
from repro.obs.metrics import HeldSeries
from repro.sim import Acquire, Resource, Simulator, Timeout


class Topology:
    """Client NICs → switch → server NICs, driven as simulation processes.

    Transfers route through per-destination :class:`SwitchPort` objects
    via :meth:`to_server` (request payload converging on a server),
    :meth:`to_client` (read replies converging on a client — the incast
    path) and :meth:`to_port` (one explicit port): windowed injection,
    tail drops, fast retransmit, full-window-loss RTOs.  An infinite
    buffer changes no formula; it only means no drops.

    Two scalar helpers serve ``SimPFS``: :meth:`client_xfer` holds the
    client's host NIC for ``client_link.transfer_s(nbytes)``, and
    :meth:`request_cost_s` is the ``rpc_latency + server-link
    serialization`` of its flat ideal-fabric server path.

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
        :data:`IDEAL_FABRIC` — infinite buffers, no drops).
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
            self._port(server_link, f"server{i}") for i in range(n_servers)
        ]
        self._fluid_engine: Optional[FluidEngine] = (
            FluidEngine(sim, fabric) if fabric.fluid else None
        )
        self.leafspine: Optional[LeafSpineParams] = fabric.leafspine
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
                self.leaf_up.append(self._port(uplink, f"leaf{r}.up"))
                self.leaf_down.append(self._port(uplink, f"leaf{r}.down"))

    # -- rack geometry (leaf/spine only; flat answers are degenerate) --
    @property
    def n_racks(self) -> int:
        """Rack count; 1 under the flat topology."""
        return self.leafspine.n_racks if self.leafspine is not None else 1

    def server_rack(self, server: int) -> int:
        """Rack of a server: contiguous blocks (0 under flat)."""
        if self.leafspine is None:
            return 0
        return self.leafspine.server_rack(server, self.n_servers)

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

    # -- endpoints -----------------------------------------------------
    def _port(self, link: Link, name: str) -> SwitchPort:
        """A new port on this fabric's simulator and recorder."""
        return SwitchPort(link, self.fabric, sim=self.sim, obs=self.obs, name=name)

    def client_nic(self, client: int) -> Resource:
        nic = self._client_nics.get(client)
        if nic is None:
            nic = Resource(self.sim, capacity=1, name=f"client{client}.nic")
            self._client_nics[client] = nic
        return nic

    def client_port(self, client: int) -> SwitchPort:
        port = self._client_ports.get(client)
        if port is None:
            port = self._port(self.client_link, f"client{client}")
            if self.client_rack(client) in self._racks_down:
                port.set_down(True)
            self._client_ports[client] = port
        return port

    def named_port(self, name: str, link: Link) -> SwitchPort:
        """A memoized extra port (e.g. an NFS server's single nfsd funnel)."""
        port = self._named_ports.get(name)
        if port is None:
            port = self._port(link, name)
            self._named_ports[name] = port
        return port

    # -- fault injection ----------------------------------------------
    def set_port_down(self, server: int, down: bool) -> None:
        """Blackout/restore a *server* switch port (fault injection).

        A windowed flow finds ``free_pkts() == 0`` and RTO-loops until
        the port restores.  On the ideal fabric ``SimPFS`` and
        ``GigaService`` requests never touch the switch ports, so there
        a blackout records the transition (metrics) but costs nothing —
        crash the server itself to model unreachability.

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
        return self._xfer(path, nbytes, parent_span, cwnd_cap, ctx)

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
        return self._xfer(path, nbytes, parent_span, cwnd_cap, ctx)

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
        return self._xfer(path, nbytes, parent_span, cwnd_cap, ctx)

    def to_port(self, port: SwitchPort, nbytes: int, parent_span=None, cwnd_cap=None, ctx=None):
        """Move a payload through one explicit port (e.g. a named funnel)."""
        return self._xfer([port], nbytes, parent_span, cwnd_cap, ctx)

    def _xfer(self, path: list[SwitchPort], nbytes: int, parent_span=None, cwnd_cap=None, ctx=None):
        """Mode dispatch: the exact windowed engine or the fluid engine.

        The four public movers route when called and hand back this
        engine generator itself, so a resumed flow runs one frame deep.
        """
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
        rounds = windowed_rounds(npkts, min(fab.init_cwnd, max_w), max_w)
        t_floor = t0 + npkts * sum([p.pkt_time_s for p in path]) + rounds * fab.rtt_s
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
