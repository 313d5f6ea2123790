"""The simulated parallel file system: servers, MDS, client operations.

All operations are simulation processes (generators for
:class:`repro.sim.Simulator`).  A typical experiment spawns one process per
application rank that performs metadata and data operations through
:class:`SimPFS` and measures the makespan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.devices.disk import Disk
from repro.erasure.reedsolomon import ReedSolomon
from repro.faults.errors import FaultError, OpTimeout, RetriesExhausted, ServerDown
from repro.faults.resilience import NO_RETRIES, RedundancySpec, ResilienceParams
from repro.faults.server import FaultableServer
from repro.net.fabric import Topology
from repro.net.params import Link
from repro.obs.metrics import HeldSeries
from repro.pfs.layout import Extent, PlacedLayout, StripeLayout
from repro.placement.congestion import build_placement
from repro.pfs.locks import BlockLockManager
from repro.pfs.params import PFSParams
from repro.pfs.security import NO_SECURITY, SecurityPolicy
from repro.scrub.ledger import StripeLedger
from repro.sim import Acquire, Event, Resource, SimulationError, Simulator, Store, Timeout, Wait
from repro.sim.stats import Counter


@dataclass
class FileHandle:
    """Namespace entry for one file.

    ``shift`` rotates the file's starting server (file-id round-robin), as
    real deployments do so that many small files spread across servers.
    ``lock_service`` serializes lock migrations: DLM ping-pong is a serial
    conversation per file, not a parallel one.
    """

    path: str
    file_id: int
    size: int = 0
    locks: Optional[BlockLockManager] = None
    lock_service: Optional[Resource] = None

    @property
    def shift(self) -> int:
        return self.file_id


@dataclass
class _ServerRequest:
    file_id: int
    client: int
    extents: list[Extent]
    nbytes: int
    write: bool
    done: Event
    parent_span: object = None  # obs span of the issuing client op, if any
    ctx: object = None          # RequestContext of the issuing client op, if any
    # rebuild flavors (both default off; the defaults keep every historical
    # request operation-for-operation identical):
    dest_server: object = None  # read whose payload flows to another *server*
    local: bool = False         # write whose payload is already resident here


class _StorageServer(FaultableServer):
    """One storage server: FIFO request queue, a fabric port, and a disk.

    Availability and slowdown state is the shared
    :class:`~repro.faults.server.FaultableServer` contract (all opt-in; a
    server that is never crashed behaves — bit for bit — like the
    historical always-up server).  A rejected request's ``done`` fails
    with :class:`~repro.faults.errors.ServerDown`; ``slowdown`` multiplies
    disk service time.
    """

    def __init__(
        self, sim: Simulator, index: int, params: PFSParams, topology: Topology
    ) -> None:
        obs = sim.obs
        # one source of truth for per-server accounting: the component
        # counters mirror straight into the obs registry (labelled by server)
        super().__init__(
            sim, index, f"osd{index}",
            Counter(
                registry=obs.metrics if obs is not None else None,
                prefix="pfs.server.",
                labels={"server": index},
            ),
        )
        self.params = params
        self.topology = topology
        self.disk = Disk(params.disk, name=f"osd{index}.disk")
        self.queue: Store = Store(sim, name=f"osd{index}.q")
        # server-local space allocation: (file_id, chunk) -> disk offset
        self._alloc: dict[tuple[int, int], int] = {}
        self._alloc_next = 0
        if obs is not None:
            self._h_service = obs.metrics.histogram("pfs.server.service_s", server=index)
            self._tracer = obs.tracer
        else:
            self._h_service = None
            self._tracer = None
        sim.spawn(self._serve(), name=f"osd{index}")

    def _disk_offset(self, file_id: int, server_offset: int) -> int:
        unit = self.params.stripe_unit
        chunk = server_offset // unit
        within = server_offset - chunk * unit
        key = (file_id, chunk)
        base = self._alloc.get(key)
        if base is None:
            base = self._alloc_next
            self._alloc[key] = base
            self._alloc_next += unit
        return base + within

    def _serve(self):
        p = self.params
        fab = self.topology
        ideal = fab.fabric.ideal
        while True:
            req: _ServerRequest = yield self.queue.get()
            if not self.up and not (yield from self._parked_until_up()):
                req.done.fail(ServerDown(self.index, self.sim.now))
                continue
            t0 = self.sim.now
            span = None
            if self._tracer is not None:
                span = self._tracer.start(
                    "pfs.server.request",
                    parent=req.parent_span,
                    at=t0,
                    server=self.index,
                    nbytes=req.nbytes,
                )
            if ideal:
                # uncontended: RPC + link serialization + disk, one interval
                # (kept as a single accumulation so results stay bit-stable
                # with the historical inline NIC arithmetic; slowdown 1.0 is
                # an exact float no-op).  A local write's payload is already
                # resident (rebuild decode output), so it skips the link.
                t = p.rpc_latency_s if req.local else fab.request_cost_s(req.nbytes)
                for ext in req.extents:
                    off = self._disk_offset(req.file_id, ext.server_offset)
                    t += self.disk.access(off, ext.length, write=req.write) * self.slowdown
                yield Timeout(t)
            else:
                disk_s = 0.0
                for ext in req.extents:
                    off = self._disk_offset(req.file_id, ext.server_offset)
                    disk_s += self.disk.access(off, ext.length, write=req.write) * self.slowdown
                if req.write:
                    if req.local:
                        # rebuild re-placement: the share was decoded on this
                        # server, so only the disk write costs anything
                        yield Timeout(p.rpc_latency_s + disk_s)
                    else:
                        # request payload converges on this server's switch
                        # port (src_client routes cross-rack flows over the
                        # spine on a leaf/spine fabric; a no-op under the
                        # flat topology)
                        yield Timeout(p.rpc_latency_s)
                        yield from fab.to_server(
                            self.index, req.nbytes, parent_span=span, ctx=req.ctx,
                            src_client=req.client,
                        )
                        yield Timeout(disk_s)
                else:
                    yield Timeout(p.rpc_latency_s + disk_s)
                    if req.dest_server is not None:
                        # rebuild share collection: the payload flows to the
                        # pulling *server* (cross-rack over the spine when
                        # racks differ — rebuild storms contend there)
                        yield from fab.server_to_server(
                            self.index, req.dest_server, req.nbytes,
                            parent_span=span, ctx=req.ctx,
                        )
                    else:
                        # striped-read replies converge on the *client's*
                        # switch port — the incast path
                        yield from fab.to_client(
                            req.client, req.nbytes, parent_span=span, ctx=req.ctx,
                            src_server=self.index,
                        )
            # record once, after service completes, from one source of truth
            elapsed = self.sim.now - t0
            self.counters.add("requests")
            self.counters.add("bytes_written" if req.write else "bytes_read", req.nbytes)
            if self._h_service is not None:
                self._h_service.observe(elapsed)
            if span is not None:
                span.finish(at=self.sim.now)
            req.done.succeed(elapsed)


class SimPFS:
    """Facade for experiments: namespace + data path over N servers."""

    def __init__(
        self,
        sim: Simulator,
        params: PFSParams = PFSParams(),
        security: SecurityPolicy = NO_SECURITY,
    ) -> None:
        self.sim = sim
        self.params = params
        self.security = security
        self.layout = StripeLayout(params.n_servers, params.stripe_unit)
        if params.fabric.ideal and params.fabric.leafspine is not None:
            raise ValueError(
                "SimPFS prices an infinite-buffer exact fabric flat, so the "
                "leaf/spine shape would be ignored: set buffer_pkts or mode='fluid'"
            )
        # the network fabric: every client→server request and server→client
        # reply crosses it; ideal (default) reproduces flat NIC arithmetic
        self.topology = Topology(
            sim,
            n_servers=params.n_servers,
            client_link=Link(params.client_nic_Bps),
            server_link=Link(params.server_nic_Bps),
            rpc_latency_s=params.rpc_latency_s,
            fabric=params.fabric,
        )
        self.servers = [
            _StorageServer(sim, i, params, self.topology)
            for i in range(params.n_servers)
        ]
        # pluggable stripe/server selection: None keeps the historical
        # shifted round-robin StripeLayout path, bit for bit (the golden
        # makespans in tests/test_fabric_equivalence.py pin this)
        self.placement: Optional[PlacedLayout] = None
        if params.placement is not None:
            strategy = build_placement(params.placement, self.topology)
            self.placement = PlacedLayout(strategy, params.stripe_unit)
        # metadata service: one or several independent servers; paths hash
        # across them (PLFS follow-on #1 / GIGA+-style distribution)
        self.mds_servers = [
            Resource(sim, capacity=1, name=f"mds{i}")
            for i in range(max(1, params.n_mds))
        ]
        self.mds = self.mds_servers[0]
        self._files: dict[str, FileHandle] = {}
        self._next_id = 0
        # degraded-mode machinery: redundancy is opt-in; every request runs
        # under a ResilienceParams — the one given, a default one when
        # redundancy is set, else NO_RETRIES (one attempt, no timer)
        red = self.redundancy = RedundancySpec.parse(params.redundancy)
        self.resilience: ResilienceParams = params.resilience or (
            ResilienceParams() if red is not None else NO_RETRIES
        )
        self._rs_codec: Optional[ReedSolomon] = None
        # stripe-health ledger: which share lives where, what is lost.
        # Pure bookkeeping (no sim time), recorded by the resilient write
        # path, consumed by repro.scrub; absent without redundancy, so the
        # historical paths carry no ledger branches at all
        self.ledger: Optional[StripeLedger] = None
        if red is not None:
            if params.n_servers < red.min_servers:
                raise ValueError(
                    f"redundancy {red} needs >= {red.min_servers} "
                    f"servers, have {params.n_servers}"
                )
            self.ledger = StripeLedger(red)
            if red.kind == "rs":
                self._rs_codec = ReedSolomon(red.k, red.m)
        self._ft_rng = np.random.default_rng(self.resilience.seed)
        # parity-share space allocation per (file_id, server)
        self._parity_off: dict[tuple[int, int], int] = {}
        self.obs = sim.obs
        m = self.obs.metrics if self.obs else None
        self.counters = Counter(registry=m, prefix="pfs.")
        # recorder series, resolved on first use and then held; only
        # touched under a bundle
        self._c_client = HeldSeries(
            lambda key: m.counter(f"pfs.client.{key[0]}", client=key[1])
        )
        self._c_faults = HeldSeries(
            lambda key: m.counter(f"faults.{key[0]}", **dict(key[1:]))
        )
        self._h_faults = HeldSeries(lambda name: m.histogram(f"faults.{name}"))
        # cost of a read-modify-write merge of one lock block (served remotely)
        p = params
        self._rmw_read_s = (
            p.rpc_latency_s
            + p.lock_granularity / p.server_nic_Bps
            + Disk(p.disk).service_time(p.disk.capacity_bytes // 2, p.lock_granularity)
        )

    # -- helpers --------------------------------------------------------
    def _issue(self, name: str, server: int, file_id: int, client: int,
               extents: list[Extent], nbytes: int, write: bool,
               parent_span=None, ctx=None, parity: bool = False,
               dest_server: Optional[int] = None, local: bool = False) -> Event:
        """Queue one request on ``server``; returns its completion event.

        Every server request (client data, redundancy, scrub) is built
        here.  ``parity`` files the extents under the file's shadow
        id, so redundancy and rebuilt shares never alias data chunks in
        the server's allocation map.
        """
        done = self.sim.event(name)
        self.servers[server].queue.put(
            _ServerRequest(
                -(file_id + 1) if parity else file_id, client, extents, nbytes, write,
                done, parent_span=parent_span, ctx=ctx, dest_server=dest_server, local=local,
            )
        )
        return done

    def _by_server(self, fh: FileHandle, offset: int, nbytes: int):
        """Group a request's extents (under the active layout policy) by
        server, paying the security attach cost per server request."""
        if self.placement is not None:
            exts = self.placement.merged_extents(fh.file_id, offset, nbytes)
        else:
            exts = self.layout.merged_extents(offset, nbytes, shift=fh.shift)
        by_server: dict[int, list[Extent]] = {}
        for ext in exts:
            by_server.setdefault(ext.server, []).append(ext)
        sec = self.security.per_io_s * len(by_server)
        if sec:
            yield Timeout(sec)
        return by_server

    def lookup(self, path: str) -> FileHandle:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    def exists(self, path: str) -> bool:
        return path in self._files

    # -- metadata operations (simulation processes) -----------------------
    def _mds_for(self, path: str) -> Resource:
        if len(self.mds_servers) == 1:
            return self.mds_servers[0]
        h = sum(ord(ch) * 131 for ch in path)
        return self.mds_servers[h % len(self.mds_servers)]

    def _mds_op(self, n_ops: int = 1, extra_s: float = 0.0, path: str = ""):
        mds = self._mds_for(path)
        grant = yield Acquire(mds)
        yield Timeout(n_ops * self.params.mds_op_s + extra_s)
        mds.release(grant)
        self.counters.add("mds_ops", n_ops)

    def op_create(self, client: int, path: str):
        """Create (and implicitly open) a file."""
        yield from self._mds_op(1, extra_s=self.security.per_open_s, path=path)
        if path not in self._files:
            self._files[path] = FileHandle(
                path=path,
                file_id=self._next_id,
                locks=BlockLockManager(self.params.lock_granularity),
                lock_service=Resource(self.sim, capacity=1, name=f"dlm:{path}"),
            )
            self._next_id += 1
        return self._files[path]

    def op_open(self, client: int, path: str):
        yield from self._mds_op(1, extra_s=self.security.per_open_s, path=path)
        return self.lookup(path)

    # -- POSIX HEC extensions (report §2.2) ---------------------------------
    def op_group_open(self, clients: Sequence[int], path: str):
        """``openg``/``openfh``: one rank resolves the file at the MDS and
        shares a portable handle with the group — O(1) metadata load for an
        N-rank open storm instead of N serialized MDS operations."""
        yield from self._mds_op(1, extra_s=self.security.per_open_s, path=path)
        # handle distribution piggybacks on the app's collective network:
        # one broadcast latency, not an MDS visit per rank
        yield Timeout(self.params.rpc_latency_s)
        self.counters.add("group_opens")
        return self.lookup(path)

    def op_stat_layout(self, client: int, path: str):
        """The accepted HEC extension: query a file's physical layout so
        middleware can align its I/O (used by layout-aware collective
        buffering, Hadoop-style locality scheduling, ...)."""
        yield from self._mds_op(1, path=path)
        fh = self.lookup(path)
        return {
            "stripe_unit": self.params.stripe_unit,
            "n_servers": self.params.n_servers,
            "start_shift": fh.shift,
            "lock_granularity": self.params.lock_granularity,
        }

    # -- client-op bookkeeping shared by op_write / op_read -----------------
    def _begin_op(self, op: str, client: int, nbytes: int, parent_span, ctx):
        """Open the op's ``pfs.<op>`` span; returns ``(span, ctx)``.

        With a bundle active and no context supplied, this client edge
        mints one (so every op is request-addressable in the trace).
        """
        obs = self.obs
        if obs is None:
            return None, ctx
        if ctx is None:
            ctx = obs.request_context(op=op, origin="pfs")
        sp = obs.tracer.start(
            f"pfs.{op}", parent=parent_span, at=self.sim.now, client=client,
            nbytes=nbytes, **ctx.span_attrs(),
        )
        return sp, ctx

    def _client_xfer(self, client: int, nbytes: int, sp):
        """The op's payload crosses the client's host link (``pfs.xfer``)."""
        xsp = None
        if sp is not None:
            xsp = self.obs.tracer.start("pfs.xfer", parent=sp, at=self.sim.now, client=client)
        yield from self.topology.client_xfer(client, nbytes)
        if xsp is not None:
            xsp.finish(at=self.sim.now)

    def _end_op(self, what: str, client: int, nbytes: int, sp) -> None:
        """Count the finished op's bytes (globally and per client), close ``sp``."""
        self.counters.add(what, nbytes)
        if sp is not None:
            self._c_client[(what, client)].inc(nbytes)
            sp.finish(at=self.sim.now)

    # -- fault-aware data path -----------------------------------------------
    # Every op_write/op_read request runs through these: one child per
    # server, raced against the op timeout, retried per self.resilience,
    # redirected or reconstructed when redundancy allows.  See docs/faults.md.

    def _fcount(self, name: str, amount: float = 1.0, **labels) -> None:
        if self.obs is not None:
            self._c_faults[(name, *labels.items())].inc(amount)

    def _note_fault(self, exc: FaultError) -> None:
        if isinstance(exc, OpTimeout):
            self._fcount("op_timeouts")
        elif isinstance(exc, ServerDown):
            self._fcount("server_down_errors")

    def _down_servers(self) -> int:
        return sum(1 for s in self.servers if not s.up)

    def _up_ring(self, server: int) -> list[int]:
        """The up servers after ``server``, in ring order."""
        n = self.params.n_servers
        ring = ((server + j) % n for j in range(1, n))
        return [cand for cand in ring if self.servers[cand].up]

    def _redirect_target(self, server: int, group) -> Optional[int]:
        """Where a degraded write redirects a share bound for ``server``.

        With a ledger group in hand, prefer the first up server in ring
        order that neither holds a live share of the group nor is the
        claimed target of one of its sibling writes — stacking two shares
        on one server would quietly shrink the group's failure tolerance.
        When every up server is taken (stripe as wide as the cluster),
        fall back to the plain group-blind ring successor.
        """
        ring = self._up_ring(server)
        if group is not None:
            avoid = {sh.server for sh in group.shares if not sh.lost} | group.claims
            ring = [cand for cand in ring if cand not in avoid] or ring
        return ring[0] if ring else None

    def _parity_extents(self, file_id: int, server: int, nbytes: int) -> list[Extent]:
        """Allocate parity-share space on ``server`` (own append-only region)."""
        key = (file_id, server)
        off = self._parity_off.get(key, 0)
        self._parity_off[key] = off + nbytes
        return [Extent(server=server, server_offset=off, logical_offset=off, length=nbytes)]

    def _server_wiped(self, server: int) -> bool:
        """Did ``server`` lose shares that nothing has rebuilt yet?

        Coarse by design (per-server, not per-extent): after a
        ``disk_loss`` every read targeting the server reconstructs from
        redundancy until the scrubber has relocated the last lost share,
        at which point the server serves reads normally again.
        """
        return self.ledger is not None and self.ledger.server_has_lost_shares(server)

    def lose_disk(self, server: int) -> None:
        """Apply the ``disk_loss`` fault: ``server``'s stored shares are gone.

        Availability is untouched (crash/recover is a separate fault);
        durability is not — every share the ledger placed on the server
        is marked lost, groups past the redundancy tolerance are recorded
        as permanent data loss, and the scrub counters pick up the damage.
        """
        self.servers[server].counters.add("disk_losses")
        if self.ledger is None:
            return
        summary = self.ledger.mark_server_lost(server, now=self.sim.now)
        if self.obs is not None:
            m = self.obs.metrics
            m.counter("scrub.shares_lost").inc(summary["shares_lost"])
            if summary["groups_unrecoverable"]:
                m.counter("scrub.stripes_unrecoverable").inc(
                    summary["groups_unrecoverable"]
                )

    # -- scrub/rebuild server requests (issued by repro.scrub.Scrubber) ----
    def scrub_fetch_share(self, file_id: int, src: int, dst: int, nbytes: int,
                          parent_span=None, ctx=None) -> Event:
        """Queue a share read on ``src`` whose payload flows to server ``dst``.

        The read waits in ``src``'s FIFO behind foreground requests and
        pays disk time there; the transfer crosses the fabric server-to-
        server (the spine, when racks differ).  Returns the completion
        event; callers race it against their op timeout.
        """
        return self._issue(
            f"scrub:r:{file_id}@{src}", src, file_id, 0,
            [Extent(server=src, server_offset=0, logical_offset=0, length=nbytes)],
            nbytes, False, parent_span, ctx, parity=True, dest_server=dst,
        )

    def scrub_store_share(self, file_id: int, dst: int, nbytes: int,
                          parent_span=None, ctx=None) -> Event:
        """Queue the re-placement write of a rebuilt share on ``dst``.

        The share was decoded on ``dst`` (the puller), so the write is
        local: FIFO queueing plus disk time, no fabric transfer.
        """
        return self._issue(
            f"scrub:w:{file_id}@{dst}", dst, file_id, 0,
            self._parity_extents(file_id, dst, nbytes),
            nbytes, True, parent_span, ctx, parity=True, local=True,
        )

    def _parity_targets(self, by_server: dict, nbytes: int) -> list[tuple[int, int]]:
        """(server, nbytes) redundancy writes for one striped request.

        ``mirror:c`` replicates each per-server request on the next c-1
        servers in ring order; ``rs:k+m`` adds m parity shares of
        ``ceil(nbytes/k)`` bytes each, placed on non-data servers first.
        """
        red = self.redundancy
        n = self.params.n_servers
        if red.kind == "mirror":
            out = []
            for server, sexts in sorted(by_server.items()):
                sbytes = sum(e.length for e in sexts)
                for j in range(1, red.m + 1):
                    out.append(((server + j) % n, sbytes))
            return out
        share = -(-nbytes // red.k)
        start = (max(by_server) + 1) % n
        ring = [(start + i) % n for i in range(n)]
        order = [s for s in ring if s not in by_server] + [s for s in ring if s in by_server]
        return [(order[j % len(order)], share) for j in range(red.m)]

    def _ft_race(self, ev: Event, server: int) -> Event:
        """Race ``ev`` against the per-op timeout (``resilience.op_timeout_s``).

        Returns an event that succeeds/fails with ``ev``'s outcome, or fails
        with :class:`OpTimeout` if the deadline fires first.  An infinite
        timeout has no race: ``ev`` itself comes back, with no timer and no
        waiter.  Simulator timers cannot be cancelled, so a won finite race
        leaves a no-op callback pending — callers must therefore measure
        makespans from process finish times, not the final ``sim.now``.
        """
        sim = self.sim
        timeout_s = self.resilience.op_timeout_s
        if timeout_s == math.inf:
            return ev
        race = sim.event(f"ft.race@{server}")

        def waiter():
            try:
                value = yield Wait(ev)
            except FaultError as exc:
                if not race.triggered:
                    race.fail(exc)
                return
            if not race.triggered:
                race.succeed(value)

        sim.spawn(waiter(), name=f"ft.wait@{server}")

        def expire():
            if not race.triggered:
                race.fail(OpTimeout(server, sim.now, timeout_s))

        sim.call_after(timeout_s, expire)
        return race

    def _ft_backoff(self, exc: FaultError, server: int, attempts: int, ctx):
        """Account one failed attempt on ``server``, then back off.

        Returns :class:`RetriesExhausted` at once when the retry budget is
        spent; otherwise charges the retry to its request/tenant, sleeps
        the jittered backoff delay and returns None.
        """
        ft = self.resilience
        self._note_fault(exc)
        if attempts >= ft.max_retries:
            self._fcount("retries_exhausted")
            return RetriesExhausted(server, self.sim.now, attempts + 1, exc)
        delay = ft.backoff_s(attempts, self._ft_rng)
        self._fcount("retries")
        if ctx is not None:
            ctx.retries += 1
            self._fcount("tenant.retries", tenant=ctx.tenant)
        if self.obs is not None:
            self._h_faults["backoff_s"].observe(delay)
        yield Timeout(delay)

    def _ft_write_child(self, fh, client, server, sexts, sbytes, parent_span,
                        parity=False, ctx=None, group=None):
        """Resilient single-server write: retries, backoff, failover.

        Returns ``("ok", nbytes)`` or ``("err", RetriesExhausted)`` so the
        parent — not the simulator crash path — decides how to fail.
        ``group`` is the write's :class:`repro.scrub.ledger.StripeGroup`;
        a successful child records its share at the *actual* target, so
        the ledger sees redirected placements, not intended ones.
        """
        red = self.redundancy
        attempts = 0
        target = server
        while True:
            srv = self.servers[target]
            if (
                not srv.up
                and red is not None
                and self._down_servers() <= red.tolerance
            ):
                # degraded write: redirect this request to the next up server
                # (ledger-aware: avoid servers already carrying a share of
                # this group, so a redirect never stacks shares)
                alt = self._redirect_target(target, group)
                if alt is not None:
                    self._fcount("redirected_requests")
                    self._fcount("redirected_bytes", sbytes)
                    target = alt
                    if group is not None:
                        group.claims.add(alt)
                    continue
            shadow = parity or target != server
            exts = self._parity_extents(fh.file_id, target, sbytes) if shadow else sexts
            ev = self._issue(f"ft:w:{fh.file_id}@{target}", target, fh.file_id, client,
                             exts, sbytes, True, parent_span, ctx, parity=shadow)
            try:
                yield Wait(self._ft_race(ev, target))
                if group is not None:
                    self.ledger.record_share(group, target, sbytes, parity=parity)
                return ("ok", sbytes)
            except FaultError as exc:
                err = yield from self._ft_backoff(exc, target, attempts, ctx)
                if err is not None:
                    return ("err", err)
                attempts += 1

    def _ft_read_child(self, fh, client, server, sexts, sbytes, parent_span, ctx=None):
        """Resilient single-server read; fails over to reconstruction."""
        red = self.redundancy
        attempts = 0
        while True:
            srv = self.servers[server]
            try:
                if (
                    (not srv.up or self._server_wiped(server))
                    and red is not None
                    and self._down_servers() <= red.tolerance
                ):
                    ok = yield from self._ft_reconstruct(
                        fh, client, server, sbytes, parent_span, ctx=ctx
                    )
                    if ok:
                        return ("ok", sbytes)
                    # not enough surviving sources right now — retry later
                    raise ServerDown(server, self.sim.now)
                ev = self._issue(f"ft:r:{fh.file_id}@{server}", server, fh.file_id, client,
                                 sexts, sbytes, False, parent_span, ctx)
                yield Wait(self._ft_race(ev, server))
                return ("ok", sbytes)
            except FaultError as exc:
                err = yield from self._ft_backoff(exc, server, attempts, ctx)
                if err is not None:
                    return ("err", err)
                attempts += 1

    def _ft_reconstruct(self, fh, client, server, sbytes, parent_span, ctx=None):
        """Rebuild ``sbytes`` lost on a dead server from surviving shares.

        RS reads ``sbytes`` from each of k surviving servers and pays a
        decode cost; mirroring reads the single surviving copy.  Returns
        False when too few sources are up (caller backs off and retries);
        raises FaultError if a source itself fails mid-read.
        """
        red = self.redundancy
        ft = self.resilience
        need = red.reconstruct_read_shares
        sources = [s for s in self._up_ring(server) if not self._server_wiped(s)][:need]
        if len(sources) < need:
            return False
        span = None
        if self.obs is not None:
            span = self.obs.tracer.start(
                "faults.reconstruct",
                parent=parent_span,
                at=self.sim.now,
                server=server,
                nbytes=sbytes,
                kind=red.kind,
            )
        self._fcount("reconstructions")
        self._fcount("reconstructed_bytes", sbytes)
        if ctx is not None:
            ctx.reconstructions += 1
            self._fcount("tenant.reconstructions", tenant=ctx.tenant)
        events = [
            self._issue(
                f"ft:r:{fh.file_id}@{src}", src, fh.file_id, client,
                [Extent(server=src, server_offset=0, logical_offset=0, length=sbytes)],
                sbytes, False, span if span is not None else parent_span, ctx,
                parity=True,
            )
            for src in sources
        ]
        try:
            for src, ev in zip(sources, events):
                yield Wait(self._ft_race(ev, src))
        except FaultError:
            if span is not None:
                span.finish(at=self.sim.now)
            raise
        if red.kind == "rs":
            yield Timeout(sbytes * red.k / ft.decode_Bps)
            self._rs_selfcheck(sbytes)
        if span is not None:
            span.finish(at=self.sim.now)
        return True

    def _rs_selfcheck(self, sbytes: int) -> None:
        """Round-trip a real Reed-Solomon decode for this reconstruction.

        A small synthetic payload keeps it cheap while making the degraded
        path genuinely exercise :mod:`repro.erasure.reedsolomon` — a decode
        bug fails the simulation instead of silently charging fantasy costs.
        """
        rs = self._rs_codec
        payload = bytes((7 * i + 13) & 0xFF for i in range(min(max(sbytes, 1), 1024)))
        shares = rs.encode(payload)
        # always drop at least one *data* share: reconstruction is also
        # triggered by disk_loss on a server that is still up, and shares
        # 0..k-1 of a systematic code decode through the identity
        n_lost = max(1, min(self._down_servers(), rs.m))
        available = {i: shares[i] for i in range(rs.n) if i >= n_lost}
        decoded = rs.decode(available, len(payload))
        if decoded != payload:
            raise SimulationError(
                f"Reed-Solomon self-check failed during reconstruction at "
                f"t={self.sim.now:.6f}s (k={rs.k}, m={rs.m})"
            )

    def _ft_gather(self, procs):
        """Await child processes; raise the first error after all finish."""
        first_err = None
        for proc in procs:
            status, payload = yield proc
            if status == "err" and first_err is None:
                first_err = payload
        if first_err is not None:
            raise first_err

    # -- data operations ----------------------------------------------------
    def op_write(self, client: int, path: str, offset: int, nbytes: int,
                 parent_span=None, ctx=None):
        """Write process: locks, client NIC, fan-out to servers, wait all.

        ``ctx`` is an optional :class:`repro.obs.RequestContext`; with a
        bundle active and no context supplied, this client edge mints one
        (so every write is request-addressable in the trace).
        """
        fh = self.lookup(path)
        p = self.params
        if nbytes <= 0:
            return 0.0
        start = self.sim.now
        obs = self.obs
        sp, ctx = self._begin_op("write", client, nbytes, parent_span, ctx)
        # 1. coherence charges — lock migrations serialize through the
        #    file's lock service (DLM conversations are not parallel)
        charge = fh.locks.charge_write(client, offset, nbytes)
        lock_cost = charge.cost_s(p.lock_latency_s, self._rmw_read_s)
        if lock_cost > 0.0:
            lsp = None
            if sp is not None:
                lsp = obs.tracer.start("pfs.lock", parent=sp, at=self.sim.now, client=client)
            dlm = yield Acquire(fh.lock_service)
            yield Timeout(lock_cost)
            fh.lock_service.release(dlm)
            if lsp is not None:
                lsp.finish(at=self.sim.now)
        # 2. security attach cost per server request
        by_server = yield from self._by_server(fh, offset, nbytes)
        # 3. client NIC serialization (through the fabric's host link)
        yield from self._client_xfer(client, nbytes, sp)
        # 4. one retrying child per target server, plus redundancy writes
        #    (mirror copies / RS parity shares); wait for all.  With
        #    redundancy the write (re-)places one stripe group in the
        #    health ledger; children record their shares where they land.
        # One path has a price: a child per request is two kernel events
        # (spawn, join) more than queueing it inline.  32 clients x 32 x
        # 1 MiB write + read-back on 16 servers, ideal fabric: 102,512 ->
        # 168,048 events, 0.86 -> 1.05 s median wall (64-pkt fabric: +7 %
        # events, +6 % wall); makespans bit-identical.  Issuing first
        # attempts inline, with a child only after a failure, wins it back.
        group, ptargets = None, []
        if self.redundancy is not None:
            group = self.ledger.begin_group(fh.file_id, offset)
            ptargets = self._parity_targets(by_server, nbytes)
            # claim every intended landing up front: a child that
            # redirects must not collide with a sibling that has not
            # started yet
            group.claims.update(by_server.keys())
            group.claims.update(s for s, _ in ptargets)
        procs = []
        for server, sexts in by_server.items():
            sbytes = sum(e.length for e in sexts)
            procs.append(
                self.sim.spawn(
                    self._ft_write_child(fh, client, server, sexts, sbytes, sp,
                                         ctx=ctx, group=group),
                    name=f"ftw:{fh.file_id}@{server}",
                )
            )
        pbytes = sum(b for _, b in ptargets)
        if pbytes:
            # redundant bytes also cross the client's host link
            yield from self.topology.client_xfer(client, pbytes)
        for pserver, pb in ptargets:
            procs.append(
                self.sim.spawn(
                    self._ft_write_child(fh, client, pserver, None, pb, sp,
                                         parity=True, ctx=ctx, group=group),
                    name=f"ftp:{fh.file_id}@{pserver}",
                )
            )
        yield from self._ft_gather(procs)
        fh.size = max(fh.size, offset + nbytes)
        self._end_op("bytes_written", client, nbytes, sp)
        return self.sim.now - start

    def op_read(self, client: int, path: str, offset: int, nbytes: int,
                parent_span=None, ctx=None):
        """Read process (no coherence charges for concurrent readers).

        ``ctx`` as in :meth:`op_write`: optional request context, minted
        here when absent and a bundle is active.
        """
        fh = self.lookup(path)
        nbytes = max(0, min(nbytes, fh.size - offset))
        if nbytes <= 0:
            return 0.0
        start = self.sim.now
        sp, ctx = self._begin_op("read", client, nbytes, parent_span, ctx)
        by_server = yield from self._by_server(fh, offset, nbytes)
        # one retrying child per server; a child whose server is down
        # fails over to erasure-coded / mirrored reconstruction
        procs = [
            self.sim.spawn(
                self._ft_read_child(
                    fh, client, server, sexts, sum(e.length for e in sexts), sp,
                    ctx=ctx,
                ),
                name=f"ftr:{fh.file_id}@{server}",
            )
            for server, sexts in by_server.items()
        ]
        yield from self._ft_gather(procs)
        yield from self._client_xfer(client, nbytes, sp)
        self._end_op("bytes_read", client, nbytes, sp)
        return self.sim.now - start

    # -- reporting ------------------------------------------------------------
    def server_stats(self) -> list[dict]:
        return [
            {
                **s.disk.stats(),
                **s.counters.as_dict(),
                "server": s.index,
                "up": s.up,
                "downtime_s": s.downtime_s(),
                "requests_rejected": s.counters["requests_rejected"],
            }
            for s in self.servers
        ]

    def total_seeks(self) -> int:
        return sum(s.disk.seeks for s in self.servers)

    def total_lock_migrations(self) -> int:
        return sum(
            fh.locks.total_migrations for fh in self._files.values() if fh.locks
        )
