"""Fluid-vs-exact fabric equivalence: the tolerance contract, enforced.

``FabricParams.mode="fluid"`` replaces the per-packet windowed engine
with tick-interval max-min fair sharing plus a closed-form latency
model (:mod:`repro.net.fluid`).  Its contract, stated in
``docs/performance.md``:

* **uncontended flows are bit-identical** to exact mode (the latency
  floor reproduces the windowed ramp exactly);
* the **x14 stripe-collapse** and **x20 metadata-storm** curves match
  exact mode within 10% on goodput/makespan ratios;
* **delivered bytes are conserved** — every port records the same
  ``total_bytes`` in both modes;
* fluid mode dispatches **far fewer simulator events** — that is the
  entire point.

These tests pin each clause on small, fast instances; the scale
demonstration lives in ``benchmarks/test_x22_fluid_scale.py``.
(Uncontended "identical" means to float precision — the exact engine
sums thousands of Timeouts where the fluid floor is one closed form,
so the last ulp can differ.)
"""

import hashlib
from dataclasses import replace

import pytest

from repro.giga import ServiceParams, run_storm
from repro.net import FabricParams, LeafSpineParams, Link, Topology
from repro.obs import RequestContext
from repro.pfs.params import PFSParams
from repro.pfs.system import SimPFS
from repro.sim import Simulator, Timeout

#: the x14 fabrics: the historical 200 ms min-RTO and the tuned one
LEGACY = FabricParams(name="legacy", buffer_pkts=64, min_rto_s=0.2, seed=7)
FIXED = FabricParams(name="fixed", buffer_pkts=64, min_rto_s=1e-3, seed=7)

TOTAL, OP = 4 << 20, 1 << 20


def stripe_goodput(fabric: FabricParams, width: int):
    """One x14 point: checkpoint write then read over *width* servers."""
    params = PFSParams(n_servers=width, stripe_unit=64 * 1024, fabric=fabric)
    sim = Simulator()
    pfs = SimPFS(sim, params)

    def write():
        yield from pfs.op_create(0, "/ckpt")
        pos = 0
        while pos < TOTAL:
            yield from pfs.op_write(0, "/ckpt", pos, OP)
            pos += OP

    sim.spawn(write())
    sim.run()
    t0 = sim.now

    def read():
        pos = 0
        while pos < TOTAL:
            yield from pfs.op_read(1, "/ckpt", pos, OP)
            pos += OP

    sim.spawn(read())
    sim.run()
    return TOTAL / (sim.now - t0), sim.event_stats()["events_dispatched"]


def test_uncontended_flows_bit_identical():
    """Solo flows: the fluid latency floor reproduces exact mode exactly."""
    for nbytes in (1500, 65536, 1 << 20):
        finish = {}
        for mode in ("exact", "fluid"):
            fab = FabricParams(name="solo", buffer_pkts=64, mode=mode)
            sim = Simulator()
            topo = Topology(sim, 4, Link(112e6), Link(112e6), fabric=fab)
            sim.spawn(topo.to_server(0, nbytes, src_client=0))
            sim.run()
            finish[mode] = sim.now
        assert finish["fluid"] == pytest.approx(finish["exact"], rel=1e-9), nbytes


def test_uncontended_capped_window_bit_identical():
    """cwnd_cap tightens the round count identically in both modes."""
    finish = {}
    for mode in ("exact", "fluid"):
        fab = FabricParams(name="cap", buffer_pkts=64, mode=mode)
        sim = Simulator()
        topo = Topology(sim, 4, Link(112e6), Link(112e6), fabric=fab)
        sim.spawn(topo.to_server(0, 65536, src_client=0, cwnd_cap=4))
        sim.run()
        finish[mode] = sim.now
    assert finish["fluid"] == pytest.approx(finish["exact"], rel=1e-9)


@pytest.mark.parametrize("fabric", [LEGACY, FIXED], ids=["legacy", "fixed"])
@pytest.mark.parametrize("width", [2, 8, 16])
def test_x14_stripe_curve_within_tolerance(fabric, width):
    """The stripe-collapse goodput curve: fluid within 10% of exact."""
    exact, ev_exact = stripe_goodput(fabric, width)
    fluid, ev_fluid = stripe_goodput(replace(fabric, mode="fluid"), width)
    assert abs(fluid / exact - 1.0) <= 0.10, (width, exact, fluid)
    # the speedup mechanism: collapsing per-packet rounds into fluid
    # epochs must slash the event count, not just match the curve
    assert ev_fluid < ev_exact / 2, (ev_exact, ev_fluid)


def test_x20_metadata_storm_within_tolerance():
    """The GIGA+ metadata storm: fluid makespan within 10% of exact."""
    res = {}
    for mode in ("exact", "fluid"):
        params = ServiceParams(fabric=replace(LEGACY, mode=mode))
        res[mode] = run_storm(8, 32, 100, params=params)
    ratio = res["fluid"].makespan_s / res["exact"].makespan_s
    assert abs(ratio - 1.0) <= 0.10, ratio
    assert res["fluid"].creates == res["exact"].creates
    assert res["fluid"].lookups == res["exact"].lookups


def test_contended_bytes_conserved():
    """Every port delivers identical total_bytes in both modes."""
    per_mode = {}
    for mode in ("exact", "fluid"):
        fab = FabricParams(name="bytes", buffer_pkts=64, min_rto_s=0.2,
                           seed=7, mode=mode)
        sim = Simulator()
        topo = Topology(sim, 8, Link(112e6), Link(112e6), fabric=fab)
        for c in range(8):
            sim.spawn(topo.to_server(0, 64 * 1024, src_client=c))
        sim.run()
        per_mode[mode] = {
            p.name: p.total_bytes for p in topo.server_ports if p.total_bytes
        }
    assert per_mode["fluid"] == per_mode["exact"]


def test_fluid_stats_surface():
    """fluid_stats(): engine counters in fluid mode, None in exact."""
    fab = FabricParams(name="stats", buffer_pkts=64, min_rto_s=0.2,
                       seed=7, mode="fluid")
    sim = Simulator()
    topo = Topology(sim, 8, Link(112e6), Link(112e6), fabric=fab)
    for c in range(8):
        sim.spawn(topo.to_server(0, 64 * 1024, src_client=c))
    sim.run()
    stats = topo.fluid_stats()
    assert stats["flows_started"] == 8
    assert stats["flows_completed"] == 8
    assert stats["flows_active"] == 0
    assert stats["probes"] >= 1  # the synchronized cohort was probed
    ev = sim.event_stats()
    assert ev["wakeups_coalesced"] > 0  # arrivals batched per timestamp
    # a second wave on the same simulator reuses the recycled done-events
    sim.spawn(topo.to_server(1, 1500, src_client=0))
    sim.run()
    assert sim.event_stats()["events_pooled"] > 0

    sim2 = Simulator()
    topo2 = Topology(sim2, 8, Link(112e6), Link(112e6),
                     fabric=replace(fab, mode="exact"))
    assert topo2.fluid_stats() is None


def _cohort_mix(ctx_every: int):
    """Synchronized fluid cohorts on a 4-rack leaf/spine fabric.

    At t=0: 600 flows into server 2 (above the 512-flow staggered-probe
    limit, so the generational model runs) from every rack — rack-1
    clients cross one hop, the rest cross ``leaf{r}.up -> leaf1.down ->
    server2``, so the 3-hop paths share their last hop but not their
    first — 40 flows into server 5 (the staggered replay, lossy), four
    into server 7 (a clean cohort: the lockstep tail) and one lone flow
    into server 0.  At t=0.1 a 30-flow wave joins server 2 while
    the first wave's tail still sits out its RTO.  Every ``ctx_every``-th
    flow carries a :class:`RequestContext`.  Returns the per-flow
    completion instants, the ports, the contexts and the topology.
    """
    fab = FabricParams(
        name="cohorts", buffer_pkts=64, min_rto_s=0.2, seed=5, mode="fluid",
        leafspine=LeafSpineParams(n_racks=4, oversubscription=2.0),
    )
    sim = Simulator()
    topo = Topology(sim, 8, Link(1.25e9), Link(1.25e9), fabric=fab)
    pkt = fab.pkt_bytes
    flows = [(2, c, (1 + (7 * c) % 13) * pkt - (c % 3) * 100,
              8 if c % 5 == 0 else None) for c in range(600)]
    flows += [(5, 1000 + k, (20 + (11 * k) % 59) * pkt, None) for k in range(40)]
    flows += [(7, 2000 + k, (3 + k) * pkt, None) for k in range(4)]
    flows += [(0, 2100, 300 * pkt, None)]
    late = [(2, 3000 + k, (1 + k % 4) * pkt, None) for k in range(30)]
    done: dict[int, float] = {}
    ctxs: list = []

    def flow(i, server, client, nbytes, cap):
        ctx = None
        if i % ctx_every == 0:
            ctx = RequestContext(i)
            ctxs.append(ctx)
        yield from topo.to_server(server, nbytes, src_client=client,
                                  cwnd_cap=cap, ctx=ctx)
        done[i] = sim.now

    def second_wave():
        yield Timeout(0.1)
        for j, f in enumerate(late):
            sim.spawn(flow(len(flows) + j, *f))

    for i, f in enumerate(flows):
        sim.spawn(flow(i, *f))
    sim.spawn(second_wave())
    sim.run()
    assert len(done) == len(flows) + len(late)
    ports = topo.server_ports + topo.leaf_up + topo.leaf_down
    return done, ports, ctxs, topo


#: sha256 of the completion instants, port stats, engine stats and
#: per-context damage of ``_cohort_mix``, by ``ctx_every``
COHORT_PINS = {
    1: "2f6b3d16dc021b447f952937d056de832da463ca6c56ba7df2135b6620a6cb0e",
    3: "ee6d6de8fbcd41cd3a0c94875218046a8808f62a9d78c4af6ea3d703e2b5c99b",
}


@pytest.mark.parametrize("ctx_every", sorted(COHORT_PINS))
def test_cohort_probe_pinned(ctx_every):
    """Multi-destination cohorts: completions and port totals pinned.

    Pins the burst probe's grouping by destination hop, its per-flow
    stall release and its drop/RTO attribution to ports and request
    contexts, bit for bit.
    """
    done, ports, ctxs, topo = _cohort_mix(ctx_every)
    stats = topo.fluid_stats()
    assert stats["probes"] == 4  # server 2 twice, servers 5 and 7 once
    assert stats["stalled_flows"] > 0
    blob = repr((
        sorted(done.items()),
        [p.stats() for p in ports],
        stats,
        [(c.request_id, c.drops_pkts, c.rtos) for c in ctxs],
    ))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == COHORT_PINS[ctx_every]
    if ctx_every == 1:
        assert sum(c.drops_pkts for c in ctxs) == sum(p.total_drops_pkts for p in ports)
        assert sum(c.rtos for c in ctxs) == sum(p.total_timeouts for p in ports)
