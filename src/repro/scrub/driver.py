"""X21 driver: correlated ``disk_loss`` bursts with and without scrubbing.

One run builds an rs:k+m file population on a leaf/spine fabric, then
replays a LANL-style correlated burst trace: every ~``burst_gap_s`` a
rack suffers a domain burst (leaf blackout + ``burst_servers`` servers
crash *and lose their disks*), racks rotating so damage accumulates
across domains.  Each individual burst destroys at most ``m`` shares of
any stripe group — recoverable.  What decides survival is what happens
*between* bursts:

* scrubber **on** — lost shares are rebuilt to healthy servers before
  the next burst lands, so no group ever accumulates more than ``m``
  lost shares: zero data loss, full redundancy restored;
* scrubber **off** — losses accumulate silently (reconstruction is
  read-path-only), and with rack rotation at least six distinct servers
  are wiped across four bursts, so some group provably crosses the
  tolerance: permanent data loss.

A light foreground writer runs through the burst window, so rebuild
traffic genuinely contends with foreground flows on the spine uplinks.
Everything is seeded; two same-seed runs are identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.failure.traces import InterruptTrace
from repro.faults import FaultSchedule
from repro.faults.errors import FaultError
from repro.faults.resilience import ResilienceParams
from repro.net.params import FabricParams, LeafSpineParams
from repro.obs import Observability
from repro import obs as obs_mod
from repro.pfs import PFSParams, SimPFS
from repro.scrub.scrubber import ScrubParams, Scrubber
from repro.sim import Simulator, Timeout

K, M = 4, 2
STRIPE_UNIT = 64 * 1024
REGION_BYTES = K * STRIPE_UNIT      # one region == one full-width k+m group


@dataclass(frozen=True)
class ScrubRunParams:
    """One X21 configuration (defaults sized for CI)."""

    n_servers: int = 12
    n_racks: int = 3
    n_files: int = 12                # shifts cover every ring position
    regions_per_file: int = 2
    n_bursts: int = 4
    burst_servers: int = 2           # <= m: each burst alone is survivable
    burst_gap_s: float = 30.0
    burst_jitter_s: float = 5.0
    blackout_s: float = 2.0
    downtime_s: float = 5.0
    tail_s: float = 40.0             # quiet time after the last burst
    foreground_interval_s: float = 2.0
    scrub: ScrubParams = field(
        default_factory=lambda: ScrubParams(scan_interval_s=0.5, rebuild_Bps=50e6)
    )


@dataclass
class ScrubRunResult:
    """Everything X21 asserts on."""

    seed: int
    scrub_on: bool
    makespan_s: float
    groups: int
    data_loss: bool
    unrecoverable: int
    degraded_end: int
    degraded_at_burst: list[float]   # sampled just before each burst lands
    stripes_rebuilt: float
    rebuild_bytes: float
    deferred: float
    rebuild_failures: float
    diversions: int
    throttle_occupancy: float
    repair_times_s: list[float]
    total_disk_losses: int
    horizon_s: float
    spine_bytes: int
    foreground_writes: int
    foreground_failures: int
    rebuild_spans: int


def build_burst_schedule(
    seed: int, p: ScrubRunParams, start_s: float, horizon_s: float
) -> FaultSchedule:
    """The correlated burst trace, mapped through ``from_interrupt_trace``.

    Burst times sit on a ``burst_gap_s`` grid (seeded jitter on top) so
    the repair window between bursts is bounded; racks rotate so wiped
    servers accumulate across domains.
    """
    rng = np.random.default_rng(seed)
    times = (
        start_s
        + p.burst_gap_s * np.arange(p.n_bursts)
        + rng.uniform(0.0, p.burst_jitter_s, size=p.n_bursts)
    )
    trace = InterruptTrace(
        system="x21-bursts",
        n_chips=p.n_servers,
        years=float(horizon_s),     # identity mapping under times_in_seconds
        interrupt_times=np.sort(times),
    )
    return FaultSchedule.from_interrupt_trace(
        trace,
        horizon_s=horizon_s,
        kind="domain_burst",
        n_servers=p.n_servers,
        n_racks=p.n_racks,
        burst_servers=p.burst_servers,
        downtime_s=p.downtime_s,
        blackout_s=p.blackout_s,
        lose_disks=True,
        racks=[i % p.n_racks for i in range(p.n_bursts)],
        seed=seed,
        name=f"x21-seed{seed}",
    )


def run_scrub_rebuild(
    seed: int = 0,
    scrub_on: bool = True,
    p: ScrubRunParams = ScrubRunParams(),
    obs: Optional[Observability] = None,
) -> ScrubRunResult:
    """One full X21 run; see the module docstring for the scenario."""
    own_obs = obs is None
    if own_obs:
        obs = Observability(name=f"x21-seed{seed}-{'scrub' if scrub_on else 'noscrub'}")
    with obs_mod.use(obs):
        sim = Simulator(obs=obs)
        params = PFSParams(
            name="x21",
            n_servers=p.n_servers,
            stripe_unit=STRIPE_UNIT,
            redundancy=f"rs:{K}+{M}",
            resilience=ResilienceParams(op_timeout_s=2.0, seed=seed),
            fabric=FabricParams(
                name="x21-leafspine",
                buffer_pkts=64,
                min_rto_s=0.05,
                seed=seed,
                leafspine=LeafSpineParams(n_racks=p.n_racks, oversubscription=4.0),
            ),
        )
        pfs = SimPFS(sim, params)

        # -- phase 1: build the protected population --------------------
        def populate():
            for f in range(p.n_files):
                path = f"/data/f{f}"
                yield from pfs.op_create(f % p.n_racks, path)
                for r in range(p.regions_per_file):
                    yield from pfs.op_write(
                        f % p.n_racks, path, r * REGION_BYTES, REGION_BYTES
                    )

        sim.spawn(populate(), name="populate")
        sim.run()
        assert pfs.ledger is not None
        groups = pfs.ledger.health()["groups"]

        # -- phase 2: bursts, scrubbing, foreground ---------------------
        start_s = sim.now + 5.0
        horizon_s = (
            start_s + p.burst_gap_s * (p.n_bursts - 1) + p.burst_jitter_s + p.tail_s
        )
        sched = build_burst_schedule(seed, p, start_s, horizon_s)
        sched.inject(sim, pfs)

        # sample stripe health just before each burst lands: "redundancy
        # fully restored between bursts" is an assertion on these
        burst_times = sorted(
            ev.at_s for ev in sched if ev.kind == "leaf_blackout"
        )
        degraded_at_burst: list[float] = []
        for t in burst_times:
            sim.call_at(
                t - 1e-6,
                lambda: degraded_at_burst.append(pfs.ledger.health()["degraded"]),
            )

        scrubber = None
        if scrub_on:
            scrubber = Scrubber(sim, pfs, p.scrub)
            scrubber.start(until_s=horizon_s)

        fg = {"writes": 0, "failures": 0}

        def foreground():
            # a writer tenant streaming fresh regions through the burst
            # window, so rebuild storms have someone to contend with
            path = "/data/fg"
            yield from pfs.op_create(0, path)
            r = 0
            while sim.now < horizon_s - p.foreground_interval_s:
                yield Timeout(p.foreground_interval_s)
                ctx = obs.request_context(op="write", tenant="app", origin="x21")
                try:
                    yield from pfs.op_write(
                        0, path, r * REGION_BYTES, REGION_BYTES, ctx=ctx
                    )
                    fg["writes"] += 1
                except FaultError:
                    fg["failures"] += 1
                r += 1

        sim.spawn(foreground(), name="x21-foreground")
        makespan = sim.run()

        health = pfs.ledger.health()
        stats = scrubber.stats() if scrubber is not None else {}
        spine_bytes = sum(
            port.stats()["bytes"]
            for port in list(pfs.topology.leaf_up) + list(pfs.topology.leaf_down)
        )
        rebuild_spans = sum(
            1 for sp in obs.tracer.spans if sp.name == "scrub.rebuild"
        )
        total_losses = sum(1 for ev in sched if ev.kind == "disk_loss")
        return ScrubRunResult(
            seed=seed,
            scrub_on=scrub_on,
            makespan_s=makespan,
            groups=groups,
            data_loss=health["unrecoverable"] > 0,
            unrecoverable=health["unrecoverable"],
            degraded_end=health["degraded"],
            degraded_at_burst=degraded_at_burst,
            stripes_rebuilt=stats.get("stripes_rebuilt", 0.0),
            rebuild_bytes=stats.get("rebuild_bytes", 0.0),
            deferred=stats.get("deferred", 0.0),
            rebuild_failures=stats.get("rebuild_failures", 0.0),
            diversions=stats.get("diversions", 0),
            throttle_occupancy=stats.get("throttle_occupancy", 0.0),
            repair_times_s=list(scrubber.repair_times) if scrubber else [],
            total_disk_losses=total_losses,
            horizon_s=horizon_s,
            spine_bytes=spine_bytes,
            foreground_writes=fg["writes"],
            foreground_failures=fg["failures"],
            rebuild_spans=rebuild_spans,
        )
