"""Unit tests for the shared network fabric (links, ports, topologies)."""

import math

import numpy as np
import pytest

from repro import obs as obs_mod
from repro.net import (
    FabricParams,
    IDEAL_FABRIC,
    IncastConfig,
    Link,
    SwitchPort,
    Topology,
    simulate_incast,
)
from repro.sim import Simulator


# -- Link ---------------------------------------------------------------

def test_link_transfer_math():
    link = Link(bandwidth_Bps=100e6, latency_s=1e-3)
    assert link.transfer_s(50e6) == pytest.approx(1e-3 + 0.5)
    assert Link(bandwidth_Bps=1e9).transfer_s(0) == 0.0


def test_link_infinite_bandwidth_is_latency_only():
    link = Link(bandwidth_Bps=math.inf, latency_s=2e-3)
    assert link.transfer_s(1 << 30) == 2e-3


def test_link_validation():
    with pytest.raises(ValueError):
        Link(bandwidth_Bps=0.0)
    with pytest.raises(ValueError):
        Link(bandwidth_Bps=1e9, latency_s=-1.0)


# -- FabricParams -------------------------------------------------------

def test_ideal_flag_and_validation():
    assert IDEAL_FABRIC.ideal
    assert not FabricParams(buffer_pkts=64).ideal
    with pytest.raises(ValueError):
        FabricParams(buffer_pkts=0)
    with pytest.raises(ValueError):
        FabricParams(init_cwnd=4, max_cwnd=2)


def test_only_two_servers_read_the_ideal_flag():
    """One network path per subsystem: outside ``SimPFS``'s storage
    servers and ``GigaService``'s RPCs, no module reads
    ``FabricParams.ideal``, so dfs, pNFS and the collective shuffle move
    every byte through ``Topology`` whatever the buffer size."""
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    readers = {
        path.relative_to(root).as_posix()
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "ideal"
    }
    assert readers == {"pfs/system.py", "giga/service.py"}


def test_rto_jitter_threads_rng():
    fab = FabricParams(buffer_pkts=8, min_rto_s=1e-3, rto_jitter=True)
    rng = np.random.default_rng(0)
    values = {fab.rto_s(rng) for _ in range(8)}
    assert len(values) > 1
    base = max(fab.min_rto_s, 2 * fab.rtt_s)
    assert all(0.5 * base <= v <= 1.5 * base for v in values)
    # jitter off: deterministic scalar, rng untouched
    assert FabricParams(buffer_pkts=8, min_rto_s=1e-3).rto_s(rng) == 1e-3


# -- SwitchPort ---------------------------------------------------------

def test_port_buffer_accounting():
    port = SwitchPort(Link(125e6), FabricParams(buffer_pkts=10))
    assert port.free_pkts() == 10
    port.admit(7)
    assert port.free_pkts() == 3
    port.drain(5)
    assert port.free_pkts() == 8
    assert port.occupancy_pkts == 2


def test_port_round_capacity_matches_incast_model():
    fab = FabricParams(buffer_pkts=64, pkt_bytes=1500, rtt_s=100e-6)
    port = SwitchPort(Link(125e6), fab)
    # service+buffer per RTT round: buffer + line-rate packets per RTT
    assert port.pkts_per_rtt == max(1, int(100e-6 / (1500 / 125e6)))
    assert port.round_capacity_pkts == 64 + port.pkts_per_rtt


def test_ideal_port_has_no_round_capacity():
    with pytest.raises(ValueError):
        SwitchPort(Link(125e6), IDEAL_FABRIC).round_capacity_pkts


def test_safe_fanin_bound():
    # 32-pkt buffer / 2-pkt initial windows: 16 synchronized flows fit
    fab = FabricParams(buffer_pkts=32, init_cwnd=2)
    port = SwitchPort(Link(125e6), fab)
    assert port.safe_fanin() == 16
    # feedback cost discounts the headroom; floor is always 1
    assert port.safe_fanin(cost=1.0) == 8
    assert port.safe_fanin(cost=1e9) == 1
    assert SwitchPort(Link(125e6), IDEAL_FABRIC).safe_fanin() == 1 << 30


def test_port_total_counters_without_obs():
    port = SwitchPort(Link(125e6), FabricParams(buffer_pkts=4))
    port.record_drops(5)
    port.record_timeouts(2)
    port.record_retransmit()
    port.record_bytes(1500)
    assert port.total_drops_pkts == 5
    assert port.total_timeouts == 2
    assert port.total_retransmits == 1
    assert port.total_bytes == 1500


def test_port_metrics_registered():
    with obs_mod.use() as o:
        port = SwitchPort(Link(125e6), FabricParams(buffer_pkts=4), obs=o, name="p0")
        port.admit(3)
        port.record_drops(5)
        port.record_timeouts(2)
        port.record_bytes(1500)
        snap = o.metrics.snapshot()
        assert snap["counters"]["net.fabric.drops_pkts{port=p0}"] == 5
        assert snap["counters"]["net.fabric.timeouts{port=p0}"] == 2
        assert snap["counters"]["net.fabric.bytes{port=p0}"] == 1500
        assert snap["gauges"]["net.fabric.occupancy_pkts{port=p0}"] == 3


# -- Topology: ideal arithmetic ----------------------------------------

def make_topology(fabric=IDEAL_FABRIC, n_servers=4, bw=112.5e6, rpc=300e-6):
    sim = Simulator()
    topo = Topology(
        sim,
        n_servers=n_servers,
        client_link=Link(bw),
        server_link=Link(bw),
        rpc_latency_s=rpc,
        fabric=fabric,
    )
    return sim, topo


def test_ideal_request_cost_is_flat_arithmetic():
    sim, topo = make_topology()
    nbytes = 1 << 20
    assert topo.request_cost_s(nbytes) == 300e-6 + nbytes / 112.5e6


def test_client_xfer_serializes_on_host_nic():
    sim, topo = make_topology()
    nbytes = 1 << 20
    done = []

    def job(i):
        yield from topo.client_xfer(7, nbytes)
        done.append((i, sim.now))

    sim.spawn(job(0))
    sim.spawn(job(1))
    sim.run()
    per = nbytes / 112.5e6
    assert done[0][1] == pytest.approx(per)
    assert done[1][1] == pytest.approx(2 * per)  # same client NIC: serialized
    assert topo.client_nic(7) is topo.client_nic(7)  # cached


def test_windowed_transfer_uncontended_completes():
    fab = FabricParams(buffer_pkts=64, min_rto_s=0.2, seed=1)
    sim, topo = make_topology(fabric=fab)

    def job():
        yield from topo.to_server(0, 64 * 1024)

    sim.spawn(job())
    t = sim.run()
    port = topo.server_ports[0]
    assert port.occupancy_pkts == 0                # fully drained
    assert t > (64 * 1024) / 112.5e6               # serialization + RTT rounds
    assert t < 0.1                                 # but no RTO stall


def test_windowed_transfer_contention_causes_drops_and_timeouts():
    fab = FabricParams(buffer_pkts=8, min_rto_s=0.2, seed=1)
    with obs_mod.use() as o:
        sim, topo = make_topology(fabric=fab, n_servers=1)

        def job(i):
            yield from topo.to_server(0, 256 * 1024)

        for i in range(16):
            sim.spawn(job(i))
        t = sim.run()
        snap = o.metrics.snapshot()
        drops = snap["counters"].get("net.fabric.drops_pkts{port=server0}", 0)
        timeouts = snap["counters"].get("net.fabric.timeouts{port=server0}", 0)
        assert drops > 0
        assert timeouts > 0
        assert t > fab.min_rto_s  # at least one flow sat out an RTO


def test_windowed_transfer_deterministic_same_seed():
    def run(seed):
        fab = FabricParams(buffer_pkts=8, min_rto_s=1e-3, rto_jitter=True, seed=seed)
        sim, topo = make_topology(fabric=fab, n_servers=1)
        ends = []

        def job(i):
            yield from topo.to_server(0, 128 * 1024)
            ends.append((i, sim.now))

        for i in range(12):
            sim.spawn(job(i))
        sim.run()
        return ends

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_windowed_cwnd_cap_prevents_overflow():
    """16 flows each paced to buffer/16 = 2 packets: windows fit the
    buffer at once, so a synchronized fan-in loses nothing."""
    fab = FabricParams(buffer_pkts=32, min_rto_s=0.2, seed=1)
    sim, topo = make_topology(fabric=fab, n_servers=1)

    def job(i):
        yield from topo.to_server(0, 64 * 1024, cwnd_cap=2)

    for i in range(16):
        sim.spawn(job(i))
    t = sim.run()
    port = topo.server_ports[0]
    assert port.total_drops_pkts == 0
    assert port.total_timeouts == 0
    assert t < fab.min_rto_s  # nobody sat out an RTO


def test_zero_byte_transfer_is_free():
    fab = FabricParams(buffer_pkts=8)
    sim, topo = make_topology(fabric=fab)

    def job():
        yield from topo.to_client(3, 0)
        yield from topo.to_server(0, 1500)

    sim.spawn(job())
    sim.run()
    assert topo.client_port(3).occupancy_pkts == 0


# -- synchronized fan-in on one shared port -----------------------------

def test_fanin_collapse_and_fix():
    legacy = IncastConfig(buffer_pkts=64, min_rto_s=0.2)
    fixed = IncastConfig(buffer_pkts=64, min_rto_s=1e-3)
    small = simulate_incast(legacy, 4, n_blocks=10)
    big = simulate_incast(legacy, 64, n_blocks=10)
    cured = simulate_incast(fixed, 64, n_blocks=10)
    assert big.timeouts > 0
    assert big.goodput_Bps < small.goodput_Bps / 10.0
    assert cured.goodput_Bps > 10.0 * big.goodput_Bps


def test_fanin_bytes_conserved():
    cfg = IncastConfig(name="c", buffer_pkts=64, sru_bytes=32 * 1024)
    with obs_mod.use() as o:
        res = simulate_incast(cfg, 8, n_blocks=3)
        port_bytes = o.metrics.snapshot()["counters"]["net.fabric.bytes{port=incast.c.8}"]
    sru_pkts = (32 * 1024) // cfg.pkt_bytes
    assert port_bytes == 3 * 8 * sru_pkts * cfg.pkt_bytes
    assert res.goodput_Bps * res.block_time_s * 3 == pytest.approx(port_bytes)

