"""Two-phase collective write: naive, layout-aware, or fabric-aware.

Three file-domain schemes share one engine (see docs/collective.md):

* ``"naive-even"`` — stock ROMIO: even byte partition, oblivious to
  striping and to the network;
* ``"layout-aware"`` — domain boundaries snap to stripe units, so no
  lock block or server request is ever split between aggregators
  (the report's ≥24% win), but the network stays invisible;
* ``"fabric-aware"`` — :mod:`repro.collective.aggsel` chooses the
  aggregator count and server-column placement against
  :class:`repro.net.params.FabricParams`, and the phase-1 shuffle is
  throttled to the per-port safe fan-in so it cannot trigger the
  incast RTO path.

Under the default ideal fabric, phase 1 is the historical flat
``nbytes / shuffle_Bps`` timeout and results are bit-identical with the
pre-fabric engine (pinned by goldens in
``benchmarks/test_x17_fabric_collective.py``).  Under a finite-buffer
fabric, phase 1 becomes real rank→aggregator flows through each
aggregator's switch port and phase 2 rides the existing
:class:`repro.pfs.system.SimPFS` fabric path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.collective.aggsel import AggregatorPlan, select_aggregators, shuffle_matrix
from repro.pfs.params import PFSParams
from repro.pfs.system import SimPFS
from repro.sim import Acquire, Resource, Simulator, Timeout
from repro.workloads.patterns import Pattern, n1_strided

#: Supported file-domain schemes, least to most infrastructure-aware.
SCHEMES = ("naive-even", "layout-aware", "fabric-aware")


@dataclass(frozen=True)
class CollectiveConfig:
    """One collective-write experiment.

    Attributes
    ----------
    n_ranks: application processes (default 16).
    n_aggregators: requested aggregator count (default 4); the
        fabric-aware scheme treats this as a hint and may choose fewer.
    record_bytes: bytes per rank per step (default ``37 KiB`` —
        deliberately unaligned with every stripe unit).
    steps: write steps per rank (default 4).
    shuffle_Bps: flat phase-1 interconnect bandwidth in B/s used by the
        ideal-fabric path (default 125 MB/s, 1GE); a finite-buffer
        fabric replaces this scalar with real per-port flows.
    """

    n_ranks: int = 16
    n_aggregators: int = 4
    record_bytes: int = 37 * 1024     # unaligned on purpose
    steps: int = 4
    shuffle_Bps: float = 1e9 / 8      # phase-1 interconnect bandwidth

    def pattern(self) -> Pattern:
        return n1_strided(self.n_ranks, self.record_bytes, self.steps)

    @property
    def total_bytes(self) -> int:
        return self.n_ranks * self.record_bytes * self.steps


def even_domains(total_bytes: int, n_aggregators: int) -> list[tuple[int, int]]:
    """Stock ROMIO: even byte partition, oblivious to striping.

    Zero-width domains (``n_aggregators > total_bytes`` rounds the even
    share to 0) are filtered out rather than emitted — a zero-byte
    domain would spawn a no-op aggregator, skewing aggregator counts
    and per-aggregator statistics.
    """
    if n_aggregators < 1:
        raise ValueError("need at least one aggregator")
    size = total_bytes // n_aggregators
    domains = []
    start = 0
    for i in range(n_aggregators):
        end = total_bytes if i == n_aggregators - 1 else start + size
        if end > start:
            domains.append((start, end))
        start = end
    return domains


def aligned_domains(
    total_bytes: int, n_aggregators: int, stripe_unit: int
) -> list[tuple[int, int]]:
    """Layout-aware: domain boundaries snap to stripe-unit multiples, so no
    two aggregators ever share a lock block or split a server request."""
    if n_aggregators < 1 or stripe_unit < 1:
        raise ValueError("bad aggregator count or stripe unit")
    n_units = (total_bytes + stripe_unit - 1) // stripe_unit
    per = max(1, n_units // n_aggregators)
    domains = []
    start_unit = 0
    for i in range(n_aggregators):
        end_unit = n_units if i == n_aggregators - 1 else min(start_unit + per, n_units)
        s = start_unit * stripe_unit
        e = min(end_unit * stripe_unit, total_bytes)
        if e > s:
            domains.append((s, e))
        start_unit = end_unit
    return domains


@dataclass
class CollectiveResult:
    """Outcome of one collective write (all times in simulated seconds)."""

    scheme: str
    makespan_s: float
    total_bytes: int
    lock_migrations: int
    server_requests: int
    n_aggregators: int = 0
    phase1_s: float = 0.0            # last aggregator's shuffle completion
    shuffle_drops_pkts: int = 0      # tail drops at aggregator ports (phase 1)
    shuffle_rtos: int = 0            # full-window losses at aggregator ports
    fanin_cap: int = 0               # phase-1 throttle (0 = unthrottled)
    plan: AggregatorPlan | None = field(default=None, repr=False)

    @property
    def bandwidth_MBps(self) -> float:
        return self.total_bytes / self.makespan_s / 1e6 if self.makespan_s else 0.0


def run_collective_write(
    config: CollectiveConfig,
    params: PFSParams,
    path: str = "/out",
    *,
    scheme: str = "naive-even",
    feedback=None,
    tenant: str = "default",
) -> CollectiveResult:
    """Simulate phase-1 shuffle + phase-2 aggregator writes.

    ``scheme`` selects among :data:`SCHEMES`.

    Phase 1: with the (default) ideal fabric each aggregator absorbs its
    domain's bytes in one flat ``nbytes / shuffle_Bps`` interval — the
    historical arithmetic, bit for bit.  With finite ``fabric.
    buffer_pkts`` every rank→aggregator transfer is a real windowed flow
    converging on the aggregator's switch port; the fabric-aware scheme
    additionally throttles concurrent senders per port to the plan's
    safe fan-in, while fabric-blind schemes launch all ranks at once
    (the incast).

    Phase 2: each aggregator writes its file domain in collective-
    buffer-sized chunks through :class:`~repro.pfs.system.SimPFS` —
    which routes through the same fabric.  The naive scheme's unaligned
    boundaries additionally cause lock migrations between neighbouring
    aggregators and split server requests.

    ``feedback`` (a :class:`repro.net.feedback.FabricFeedback`) lets the
    fabric-aware selection discount port headroom by measured
    congestion; the other schemes ignore it.

    With a ``repro.obs`` bundle active the whole collective runs as ONE
    request: a :class:`~repro.obs.RequestContext` (tagged ``tenant``) is
    minted at this edge, stamped on the root ``collective.write`` span,
    and threaded through the shuffle flows and every phase-2 PFS write —
    so fabric drops and RTOs anywhere underneath attribute back to it,
    and ``critical_path(tracer)`` over the resulting span tree sums to
    the measured makespan.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    sim = Simulator()
    pfs = SimPFS(sim, params)
    sim.spawn(pfs.op_create(0, path))
    sim.run()
    total = config.total_bytes
    fab = params.fabric
    plan: AggregatorPlan | None = None
    if scheme == "fabric-aware":
        plan = select_aggregators(
            total,
            config.n_ranks,
            params,
            pattern=config.pattern(),
            requested=config.n_aggregators,
            feedback=feedback,
            shift=pfs.lookup(path).shift,
            topology=pfs.topology,
        )
        domains: list[tuple[tuple[int, int], ...]] = list(plan.domains)
        cap = plan.phase1_fanin_cap
    else:
        if scheme == "layout-aware":
            flat = aligned_domains(total, config.n_aggregators, params.stripe_unit)
        else:
            flat = even_domains(total, config.n_aggregators)
        domains = [((lo, hi),) for lo, hi in flat]
        cap = 0  # unthrottled: all ranks converge at once
    n_agg = len(domains)
    # on a leaf/spine topology the plan co-racks each aggregator with its
    # server group; flat topologies keep the historical "aggregator g is
    # client g" identity
    if plan is not None and plan.aggregator_clients is not None:
        agg_clients = list(plan.aggregator_clients)
    else:
        agg_clients = list(range(n_agg))
    sends = None if fab.ideal else shuffle_matrix(config.pattern(), domains)
    obs = sim.obs
    root = ctx = None
    if obs is not None:
        ctx = obs.request_context(op="collective_write", tenant=tenant, origin="collective")
        root = obs.tracer.start(
            "collective.write", at=sim.now,
            scheme=scheme, aggregators=n_agg, ranks=config.n_ranks,
            **ctx.span_attrs(),
        )
        obs.metrics.gauge("collective.aggregators").set(n_agg)
        # every aggregator bumps both; resolve them once, not per aggregator
        c_shuffle = obs.metrics.counter("collective.shuffle_bytes")
        c_written = obs.metrics.counter("collective.written_bytes")
        if cap:
            obs.metrics.gauge("collective.fanin_cap").set(cap)
    start = sim.now
    phase1_end = [start] * n_agg
    topo = pfs.topology

    def aggregator(g: int, extents: tuple[tuple[int, int], ...]):
        nbytes = sum(hi - lo for lo, hi in extents)
        cid = agg_clients[g]
        asp = p1 = p2 = None
        if obs is not None:
            asp = obs.tracer.start(
                "collective.aggregator", parent=root, at=sim.now,
                aggregator=g, client=cid, nbytes=nbytes,
            )
            p1 = obs.tracer.start("collective.phase1", parent=asp, at=sim.now)
        # phase 1: gather the domain's bytes from the ranks
        if fab.ideal:
            yield Timeout(nbytes / config.shuffle_Bps)
        elif sends[g]:
            limit = min(cap, len(sends[g])) if cap else len(sends[g])
            # pace each admitted flow to its share of the port buffer so
            # the concurrent windows fit the buffer at once — without
            # this, admission control alone still tail-drops as soon as
            # TCP grows the windows past init_cwnd
            win = max(1, fab.buffer_pkts // limit) if cap else None
            sem = Resource(sim, capacity=limit, name=f"agg{g}.shuffle")

            def sender(nb: int):
                grant = yield Acquire(sem)
                yield from topo.to_client(cid, nb, cwnd_cap=win, parent_span=p1, ctx=ctx)
                sem.release(grant)

            senders = [sim.spawn(sender(nb), name=f"shuffle:{r}->{g}")
                       for r, nb in sends[g]]
            for proc in senders:
                yield proc
        phase1_end[g] = sim.now
        if obs is not None:
            p1.finish(at=sim.now)
            c_shuffle.inc(nbytes)
            p2 = obs.tracer.start("collective.phase2", parent=asp, at=sim.now)
        # phase 2: write the domain in collective-buffer-sized chunks
        buf = params.write_buffer_bytes
        for lo, hi in extents:
            pos = lo
            while pos < hi:
                take = min(buf, hi - pos)
                yield from pfs.op_write(cid, path, pos, take, parent_span=p2, ctx=ctx)
                pos += take
        if obs is not None:
            p2.finish(at=sim.now)
            c_written.inc(nbytes)
            asp.finish(at=sim.now)

    for g, extents in enumerate(domains):
        sim.spawn(aggregator(g, extents), name=f"agg{g}")
    sim.run()
    drops = rtos = 0
    if not fab.ideal:
        for g in range(n_agg):
            port = topo.client_port(agg_clients[g])
            drops += port.total_drops_pkts
            rtos += port.total_timeouts
    if root is not None:
        root.finish(at=sim.now)
    return CollectiveResult(
        scheme=scheme,
        makespan_s=sim.now - start,
        total_bytes=total,
        lock_migrations=pfs.total_lock_migrations(),
        server_requests=int(sum(s.counters["requests"] for s in pfs.servers)),
        n_aggregators=n_agg,
        phase1_s=max(phase1_end) - start,
        shuffle_drops_pkts=drops,
        shuffle_rtos=rtos,
        fanin_cap=cap,
        plan=plan,
    )
