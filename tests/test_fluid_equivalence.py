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

from dataclasses import replace

import pytest

from repro.giga import ServiceParams, run_storm
from repro.net import FabricParams, Link, Topology
from repro.pfs.params import PFSParams
from repro.pfs.system import SimPFS
from repro.sim import Simulator

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
