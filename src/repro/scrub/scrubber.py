"""The background scrubber: scan stripe health, rebuild lost shares.

One :class:`Scrubber` owns three kinds of simulator processes:

* a **scan loop** that wakes every ``scan_interval_s``, folds fresh
  server-crash telemetry into the flap scores, and queues every lost
  share of every recoverable degraded group (exactly once — a share
  already queued or in flight is skipped, and a healthy stripe is never
  touched);
* ``workers`` **rebuild workers** draining that queue.  Each rebuild is
  throttled by a byte-rate token bucket (``rebuild_Bps`` across all
  workers — repair bandwidth is the knob operators actually set), picks
  a replacement server through :class:`repro.placement.rebuild.
  RebuildPlacement` (ring successor unless a less-flappy candidate wins
  by the hysteresis margin), pulls the surviving shares over the fabric
  (``SimPFS.scrub_fetch_share`` — FIFO behind foreground requests at
  each source, cross-rack over the spine when racks differ), pays the
  Reed-Solomon decode, and writes the share at its new home
  (``SimPFS.scrub_store_share``).

Every rebuild is tagged with a ``tenant="scrub"`` request context, so
rebuild traffic shows up in the flight recorder and in the per-tenant
fabric damage counters next to the foreground tenants it contends with.
A rebuild whose source or destination fails mid-flight is *deferred*:
the share goes back to "lost, unqueued" and the next scan retries it.

Determinism: scans fire at fixed intervals, queues are FIFO, placement
is pure arithmetic — two same-seed runs produce identical rebuild
sequences and identical ``scrub.*`` metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.errors import FaultError
from repro.obs.metrics import HeldSeries
from repro.placement.rebuild import FlapStats, RebuildPlacement
from repro.sim import Process, Simulator, Store, Timeout, Wait


@dataclass(frozen=True)
class ScrubParams:
    """Scrubber knobs.

    ``rebuild_Bps`` is the aggregate repair-bandwidth budget: rebuild
    admissions are spaced so at most that many share-bytes per second
    enter rebuild, however many workers run.  ``hysteresis`` and
    ``flap_decay_s`` parameterize the fault-aware re-placement
    (:mod:`repro.placement.rebuild`).
    """

    scan_interval_s: float = 0.5
    rebuild_Bps: float = 100e6
    workers: int = 2
    hysteresis: float = 0.5
    flap_decay_s: float = 60.0
    tenant: str = "scrub"

    def __post_init__(self) -> None:
        if self.scan_interval_s <= 0:
            raise ValueError(f"scan_interval_s must be > 0, got {self.scan_interval_s}")
        if self.rebuild_Bps <= 0:
            raise ValueError(f"rebuild_Bps must be > 0, got {self.rebuild_Bps}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


class Scrubber:
    """Background scrub/rebuild process bundle over one :class:`SimPFS`."""

    def __init__(self, sim: Simulator, pfs, params: ScrubParams = ScrubParams()) -> None:
        if pfs.ledger is None:
            raise ValueError(
                "scrubbing needs a stripe ledger; set PFSParams.redundancy"
            )
        self.sim = sim
        self.pfs = pfs
        self.params = params
        self.obs = sim.obs
        n = pfs.params.n_servers
        self.flaps = FlapStats(n, decay_s=params.flap_decay_s)
        self.placement = RebuildPlacement(n, self.flaps, hysteresis=params.hysteresis)
        self.queue: Store = Store(sim, name="scrub.q")
        self._pending: set[tuple[int, int]] = set()   # (gid, share) queued/in flight
        self._reserved: dict[int, set[int]] = {}      # gid -> in-flight dst servers
        self._counted: set[int] = set()               # gids counted degraded
        self._crash_seen = [0.0] * n
        self._next_free_t = 0.0                       # throttle token bucket
        self._busy_s = 0.0
        self._t0 = sim.now
        #: sim-seconds from first share lost to group fully healthy again —
        #: the measured MTTR the X21 MTTDL comparison plugs into the
        #: closed-form models
        self.repair_times: list[float] = []
        # local counters (mirrored into obs when a bundle is active)
        self.counts = {
            "stripes_degraded": 0,
            "stripes_rebuilt": 0,
            "shares_queued": 0,
            "shares_rebuilt": 0,
            "rebuild_bytes": 0,
            "deferred": 0,
            "rebuild_failures": 0,
        }
        self._procs: list[Process] = []
        # recorder series, resolved on first use and then held
        m = self.obs.metrics if self.obs is not None else None
        self._c_obs = HeldSeries(lambda name: m.counter(f"scrub.{name}"))
        self._g_obs = HeldSeries(lambda name: m.gauge(f"scrub.{name}"))
        self._h_obs = HeldSeries(lambda name: m.histogram(f"scrub.{name}"))

    # -- metrics --------------------------------------------------------
    def _count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount
        if self.obs is not None:
            self._c_obs[name].inc(amount)

    def throttle_occupancy(self) -> float:
        """Fraction of the repair-bandwidth budget spent since start()."""
        elapsed = self.sim.now - self._t0
        if elapsed <= 0.0:
            return 0.0
        return self._busy_s / elapsed

    def _gauges(self) -> None:
        if self.obs is not None:
            self._g_obs["queue_depth"].set(len(self._pending))
            self._g_obs["throttle_occupancy"].set(self.throttle_occupancy())

    def stats(self) -> dict:
        return {
            **self.counts,
            "diversions": self.placement.diversions,
            "throttle_occupancy": self.throttle_occupancy(),
            "pending": len(self._pending),
        }

    # -- processes ------------------------------------------------------
    def start(self, until_s: float) -> list[Process]:
        """Spawn the scan loop (running to ``until_s``) and the workers.

        The scan loop stops at the horizon so the simulation can drain;
        workers finish whatever is queued, then block forever on the
        empty queue (idle processes hold no timers).
        """
        self._t0 = self.sim.now
        self._procs = [
            self.sim.spawn(self._scan_loop(until_s), name="scrub.scan")
        ]
        self._procs += [
            self.sim.spawn(self._worker(), name=f"scrub.w{w}")
            for w in range(self.params.workers)
        ]
        return self._procs

    def _scan_loop(self, until_s: float):
        while True:
            remaining = until_s - self.sim.now
            if remaining <= 0.0:
                break
            yield Timeout(min(self.params.scan_interval_s, remaining))
            self.scan()

    def scan(self) -> int:
        """One scan pass: update flap telemetry, queue lost shares.

        Returns the number of shares newly queued.  Also callable
        directly (tests, drivers) — the scan itself costs no sim time.
        """
        now = self.sim.now
        for srv in self.pfs.servers:
            crashes = srv.counters["crashes"]
            fresh = crashes - self._crash_seen[srv.index]
            if fresh:
                self.flaps.record(srv.index, fresh, now)
                self._crash_seen[srv.index] = crashes
        queued = 0
        for group in self.pfs.ledger.degraded_groups():
            for idx in group.lost_shares():
                key = (group.gid, idx)
                if key in self._pending:
                    continue
                self._pending.add(key)
                self.queue.put(key)
                self._count("shares_queued")
                queued += 1
            if group.gid not in self._counted:
                self._counted.add(group.gid)
                self._count("stripes_degraded")
        self._gauges()
        return queued

    def _worker(self):
        while True:
            gid, idx = yield self.queue.get()
            yield from self._rebuild_one(gid, idx)

    def _defer(self, key: tuple[int, int]) -> None:
        self._pending.discard(key)
        self._count("deferred")

    def _rebuild_one(self, gid: int, idx: int):
        pfs = self.pfs
        sim = self.sim
        ledger = pfs.ledger
        red = pfs.redundancy
        ft = pfs.resilience
        key = (gid, idx)
        group = ledger.group(gid)
        if gid in ledger.unrecoverable or idx >= len(group.shares):
            self._pending.discard(key)
            return
        share = group.shares[idx]
        if not share.lost:
            # healed by an overwrite (or racing state): never rewrite a
            # healthy share
            self._pending.discard(key)
            return
        nbytes = share.nbytes
        # fault-aware re-placement: up, no live share of this group, no
        # other rebuild of this group already bound for it, not mid-wipe;
        # flap hysteresis steers off recently-crashy servers.  Feasibility
        # is checked *before* throttle admission so deferrals burn no
        # repair-bandwidth budget.
        live = set(group.live_servers())
        reserved = self._reserved.get(gid, set())

        def ok(s: int) -> bool:
            return (
                pfs.servers[s].up
                and s not in live
                and s not in reserved
                and not pfs._server_wiped(s)
            )

        dst = self.placement.choose(share.server, ok, now=sim.now)
        # share collection: k surviving *shares* for RS (fewer for padded
        # narrow groups whose remaining codeword shares are known-zero),
        # the one surviving copy for mirroring.  Counted per share, not
        # per server — a redirected write can co-locate two shares.
        need = min(red.reconstruct_read_shares, max(1, len(group.shares) - red.m))
        sources = [
            sh.server for sh in group.shares
            if not sh.lost and pfs.servers[sh.server].up
        ][:need]
        if dst is None or len(sources) < need:
            self._defer(key)
            return
        self._reserved.setdefault(gid, set()).add(dst)
        try:
            # throttle: admissions spaced to the aggregate repair bandwidth
            busy = nbytes / self.params.rebuild_Bps
            start_at = max(sim.now, self._next_free_t)
            self._next_free_t = start_at + busy
            self._busy_s += busy
            if start_at > sim.now:
                yield Timeout(start_at - sim.now)
            ctx = span = None
            if self.obs is not None:
                ctx = self.obs.request_context(
                    op="rebuild", tenant=self.params.tenant, origin="scrub"
                )
                span = self.obs.tracer.start(
                    "scrub.rebuild", at=sim.now, gid=gid, share=idx, dst=dst,
                    nbytes=nbytes, **ctx.span_attrs(),
                )
            try:
                fetches = [
                    (src, pfs.scrub_fetch_share(group.file_id, src, dst, nbytes,
                                                parent_span=span, ctx=ctx))
                    for src in sources
                ]
                for src, ev in fetches:
                    yield Wait(pfs._ft_race(ev, src))
                if red.kind == "rs":
                    yield Timeout(nbytes * red.k / ft.decode_Bps)
                store = pfs.scrub_store_share(group.file_id, dst, nbytes,
                                              parent_span=span, ctx=ctx)
                yield Wait(pfs._ft_race(store, dst))
            except FaultError:
                # a source or the destination died mid-rebuild; hand the
                # share back to the next scan
                self._count("rebuild_failures")
                self._defer(key)
                if span is not None:
                    span.finish(at=sim.now)
                return
        finally:
            held = self._reserved.get(gid)
            if held is not None:
                held.discard(dst)
                if not held:
                    self._reserved.pop(gid, None)
        # commit: the share lives at dst now (guard against a foreground
        # overwrite having re-placed the group while we were in flight,
        # and against dst having gained a live share of this group)
        if (
            idx < len(group.shares)
            and group.shares[idx] is share
            and share.lost
            and dst not in set(group.live_servers())
        ):
            degraded_since = group.degraded_since
            ledger.relocate(group, idx, dst)
            self._count("shares_rebuilt")
            self._count("rebuild_bytes", nbytes)
            if not group.lost_shares():
                self._count("stripes_rebuilt")
                self._counted.discard(gid)
                if degraded_since is not None:
                    repair_s = sim.now - degraded_since
                    self.repair_times.append(repair_s)
                    if self.obs is not None:
                        self._h_obs["repair_time_s"].observe(repair_s)
        self._pending.discard(key)
        self._gauges()
        if span is not None:
            span.finish(at=sim.now)
