"""Leaf/spine topology unit tests: rack geometry, routing, multi-hop flows.

The two-tier :class:`~repro.net.fabric.Topology` places endpoints in
racks behind leaf switches joined by spine uplinks whose bandwidth is
the rack's aggregate edge bandwidth divided by the oversubscription
ratio.  These tests pin the geometry (rack assignment, uplink sizing,
route construction), the windowed multi-hop transfer edge cases
(zero-byte, single-packet, ``cwnd_cap=1``), the hierarchy-aware
:class:`~repro.net.feedback.FabricFeedback` costs, and the rack-aligned
aggregator grouping that keeps phase-2 collective writes off the spine.
"""

import math

import pytest

from repro.collective.aggsel import rack_aligned_groups, select_aggregators
from repro.net import (
    FabricFeedback,
    FabricParams,
    LeafSpineParams,
    Link,
    Topology,
    fluid_shared_Bps,
)
from repro.pfs.params import PFSParams
from repro.sim import Simulator

NIC = 112.5e6  # ~1GE at 90% efficiency, the repo's canonical edge rate


def _topo(
    sim,
    n_servers=8,
    n_racks=2,
    oversubscription=4.0,
    buffer_pkts=32,
    clients_per_rack=None,
    **fab_kw,
):
    fab = FabricParams(
        name="ls-test",
        buffer_pkts=buffer_pkts,
        seed=1,
        leafspine=LeafSpineParams(
            n_racks=n_racks,
            oversubscription=oversubscription,
            clients_per_rack=clients_per_rack,
        ),
        **fab_kw,
    )
    return Topology(
        sim, n_servers=n_servers, client_link=Link(NIC), server_link=Link(NIC),
        fabric=fab,
    )


def _run_flow(sim, gen):
    sim.spawn(gen, name="flow")
    return sim.run()


# -- parameter validation ----------------------------------------------

def test_leafspine_params_validation():
    with pytest.raises(ValueError):
        LeafSpineParams(n_racks=0)
    with pytest.raises(ValueError):
        LeafSpineParams(oversubscription=0.5)
    with pytest.raises(ValueError):
        LeafSpineParams(clients_per_rack=0)
    assert LeafSpineParams().oversubscription == 1.0  # non-blocking default


def test_fluid_shared_Bps_regimes():
    # edge-bound until the sharers oversubscribe the aggregate
    assert fluid_shared_Bps(112e6, 640e6, 1) == 112e6
    assert fluid_shared_Bps(112e6, 640e6, 4) == 112e6
    assert fluid_shared_Bps(112e6, 640e6, 8) == 80e6
    assert fluid_shared_Bps(112e6, 640e6, 0) == 112e6  # max(1, n) guard


# -- rack geometry ------------------------------------------------------

def test_server_racks_are_contiguous_blocks():
    topo = _topo(Simulator(), n_servers=8, n_racks=2)
    assert [topo.server_rack(s) for s in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]
    topo3 = _topo(Simulator(), n_servers=8, n_racks=3)
    racks = [topo3.server_rack(s) for s in range(8)]
    assert racks == sorted(racks) and set(racks) == {0, 1, 2}


def test_client_racks_round_robin_and_blocks():
    topo = _topo(Simulator(), n_racks=2)
    assert [topo.client_rack(c) for c in range(4)] == [0, 1, 0, 1]
    blocked = _topo(Simulator(), n_racks=2, clients_per_rack=4)
    assert [blocked.client_rack(c) for c in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]


@pytest.mark.parametrize("clients_per_rack", [None, 3])
def test_client_for_rack_inverts_client_rack(clients_per_rack):
    topo = _topo(Simulator(), n_racks=3, clients_per_rack=clients_per_rack)
    seen = set()
    for rack in range(3):
        for k in range(3):
            c = topo.client_for_rack(rack, k)
            assert topo.client_rack(c) == rack
            seen.add(c)
    assert len(seen) == 9  # distinct ids, no collisions


def test_flat_topology_geometry_is_degenerate():
    topo = Topology(Simulator(), n_servers=4, client_link=Link(NIC),
                    server_link=Link(NIC))
    assert topo.n_racks == 1
    assert topo.server_rack(3) == 0 and topo.client_rack(7) == 0
    assert topo.client_for_rack(0, 5) == 5
    assert topo.leaf_up == [] and topo.leaf_down == []
    with pytest.raises(ValueError):
        topo.set_leaf_down(0, True)


def test_uplink_bandwidth_derives_from_oversubscription():
    topo = _topo(Simulator(), n_servers=8, n_racks=2, oversubscription=4.0)
    # 4 edge links per rack at NIC rate, 4:1 oversubscribed
    expected = 4 * NIC / 4.0
    assert topo.leaf_up[0].link.bandwidth_Bps == expected
    assert topo.leaf_down[1].link.bandwidth_Bps == expected
    nonblocking = _topo(Simulator(), n_servers=8, n_racks=2, oversubscription=1.0)
    assert nonblocking.leaf_up[0].link.bandwidth_Bps == 4 * NIC
    assert topo.leaf_down[topo.server_rack(0)].name == "leaf0.down"
    assert topo.leaf_down[topo.server_rack(7)].name == "leaf1.down"


# -- routing ------------------------------------------------------------

def test_route_same_rack_is_single_hop():
    topo = _topo(Simulator(), n_servers=8, n_racks=2)
    # server 1 lives in rack 0; client 0 (round-robin) also rack 0
    path = topo._route(topo.server_ports[1], topo.server_rack(1),
                       topo.client_rack(0))
    assert path == [topo.server_ports[1]]


def test_route_cross_rack_is_three_hops():
    topo = _topo(Simulator(), n_servers=8, n_racks=2)
    # client 1 lives in rack 1; server 0 in rack 0
    path = topo._route(topo.server_ports[0], topo.server_rack(0),
                       topo.client_rack(1))
    assert path == [topo.leaf_up[1], topo.leaf_down[0], topo.server_ports[0]]


def test_route_unknown_source_stays_single_hop():
    topo = _topo(Simulator(), n_servers=8, n_racks=2)
    path = topo._route(topo.server_ports[0], 0, None)
    assert path == [topo.server_ports[0]]


def test_cross_rack_flow_touches_every_hop():
    sim = Simulator()
    topo = _topo(sim, n_servers=8, n_racks=2)
    nbytes = 6000  # 4 packets
    _run_flow(sim, topo.to_server(4, nbytes, src_client=0))  # rack 0 -> rack 1
    assert topo.leaf_up[0].total_bytes == nbytes
    assert topo.leaf_down[1].total_bytes == nbytes
    assert topo.server_ports[4].total_bytes == nbytes
    assert topo.leaf_up[1].total_bytes == 0  # reverse direction untouched
    assert topo.leaf_down[0].total_bytes == 0


def test_same_rack_flow_skips_the_spine():
    sim = Simulator()
    topo = _topo(sim, n_servers=8, n_racks=2)
    _run_flow(sim, topo.to_server(0, 6000, src_client=0))  # both rack 0
    assert topo.server_ports[0].total_bytes == 6000
    assert topo.leaf_up[0].total_bytes == 0
    assert topo.leaf_down[0].total_bytes == 0


# -- windowed multi-hop edge cases --------------------------------------

def test_windowed_zero_bytes_is_free():
    sim = Simulator()
    topo = _topo(sim)
    assert _run_flow(sim, topo.to_server(4, 0, src_client=0)) == 0.0
    assert topo.server_ports[4].total_bytes == 0
    assert topo.leaf_up[0].total_bytes == 0


def test_windowed_single_packet_multi_hop_time():
    sim = Simulator()
    topo = _topo(sim, oversubscription=4.0)
    fab = topo.fabric
    elapsed = _run_flow(sim, topo.to_server(4, 100, src_client=0))
    # one packet crosses each hop in sequence, then one RTT for the ack
    hop_time = sum(
        p.pkt_time_s
        for p in (topo.leaf_up[0], topo.leaf_down[1], topo.server_ports[4])
    )
    assert elapsed == pytest.approx(hop_time + fab.rtt_s)
    for p in (topo.leaf_up[0], topo.leaf_down[1], topo.server_ports[4]):
        assert p.total_drops_pkts == 0 and p.occupancy_pkts == 0


def test_windowed_cwnd_cap_one_multi_hop():
    sim = Simulator()
    topo = _topo(sim, oversubscription=4.0)
    fab = topo.fabric
    n_pkts = 5
    nbytes = n_pkts * fab.pkt_bytes
    elapsed = _run_flow(sim, topo.to_server(4, nbytes, src_client=0, cwnd_cap=1))
    per_round = sum(
        p.pkt_time_s
        for p in (topo.leaf_up[0], topo.leaf_down[1], topo.server_ports[4])
    ) + fab.rtt_s
    assert elapsed == pytest.approx(n_pkts * per_round)
    # paced one packet per round: the buffers never overflow
    assert topo.server_ports[4].total_drops_pkts == 0
    assert topo.leaf_up[0].total_timeouts == 0


def test_windowed_ideal_leafspine_costs_nothing_extra():
    """Infinite buffers: routing metadata exists but consumers on the
    ideal path never call to_server, and a direct call still drains."""
    sim = Simulator()
    fab = FabricParams(leafspine=LeafSpineParams(n_racks=2))
    topo = Topology(sim, n_servers=4, client_link=Link(NIC),
                    server_link=Link(NIC), fabric=fab)
    assert fab.ideal and topo.n_racks == 2
    elapsed = _run_flow(sim, topo.to_server(2, 3000, src_client=0))
    assert elapsed > 0.0 and topo.server_ports[2].total_drops_pkts == 0


def test_oversubscribed_uplink_is_the_bottleneck():
    """Concurrent cross-rack flows drop at the spine, not the edge."""
    sim = Simulator()
    topo = _topo(sim, n_servers=8, n_racks=2, oversubscription=8.0,
                 buffer_pkts=8, min_rto_s=2e-3)
    nbytes = 64 * topo.fabric.pkt_bytes
    # four rack-0 clients blast four distinct rack-1 servers: per-edge
    # fan-in is 1, but all four flows share leaf0.up
    for i, srv in enumerate((4, 5, 6, 7)):
        sim.spawn(topo.to_server(srv, nbytes, src_client=2 * i), name=f"f{i}")
    sim.run()
    spine_drops = topo.leaf_up[0].total_drops_pkts
    edge_drops = sum(topo.server_ports[s].total_drops_pkts for s in (4, 5, 6, 7))
    assert spine_drops > 0
    assert spine_drops > edge_drops


# -- hierarchy-aware feedback -------------------------------------------

def test_feedback_uplink_cost_charges_every_server_behind_it():
    topo = _topo(Simulator(), n_servers=4, n_racks=2, buffer_pkts=64)
    # no clock: every costs() call is one sampling interval
    fb = FabricFeedback(
        topo.server_ports,
        hops=[topo.leaf_down[topo.server_rack(s)] for s in range(4)],
        buffer_norm=64.0,
    )
    topo.leaf_down[1].admit(32)
    base = fb.costs()
    assert base[0] == base[1] == 0.0
    assert base[2] == base[3] == pytest.approx(0.5)
    # edge heat stacks on top of the shared hop cost (one EWMA fold of
    # the 16/64 instant edge reading)
    topo.server_ports[2].admit(16)
    costs = fb.costs()
    assert costs[2] == pytest.approx(costs[3] + fb.alpha * 16.0 / 64.0)
    assert fb.hop_costs()["leaf1.down"] > fb.hop_costs()["leaf0.down"]


def test_feedback_uplink_names_validation_and_flat_default():
    """The per-server uplink hops: one per server or none at all."""
    topo = _topo(Simulator(), n_servers=4, n_racks=2)
    with pytest.raises(ValueError):
        FabricFeedback(topo.server_ports, hops=[topo.leaf_down[0]])
    flat = FabricFeedback(topo.server_ports[:2])
    assert flat.costs() == [0.0, 0.0]
    assert flat.hop_costs() == {}
    assert set(FabricFeedback.for_topology(topo).hop_costs()) == {
        "leaf0.down", "leaf1.down"
    }


# -- rack-aligned aggregator grouping -----------------------------------

def test_rack_aligned_groups_never_straddle_racks():
    topo = _topo(Simulator(), n_servers=8, n_racks=3)
    for n_groups in range(1, 9):
        groups = rack_aligned_groups(8, n_groups, topo)
        assert sorted(s for g in groups for s in g) == list(range(8))
        for g in groups:
            assert len({topo.server_rack(s) for s in g}) == 1
        # every rack keeps at least one group
        assert {topo.server_rack(g[0]) for g in groups} == {0, 1, 2}


def test_rack_aligned_groups_respect_quota_and_determinism():
    topo = _topo(Simulator(), n_servers=8, n_racks=2)
    groups4 = rack_aligned_groups(8, 4, topo)
    assert groups4 == [(0, 1), (2, 3), (4, 5), (6, 7)]
    assert rack_aligned_groups(8, 4, topo) == groups4  # deterministic
    # more groups than servers clamps to one server per group
    assert len(rack_aligned_groups(8, 99, topo)) == 8


def test_select_aggregators_floor_is_rack_count_and_clients_coracked():
    sim = Simulator()
    topo = _topo(sim, n_servers=8, n_racks=2, oversubscription=4.0,
                 buffer_pkts=64)
    params = PFSParams(n_servers=8, stripe_unit=1024, fabric=topo.fabric)
    # a write this thin collapses to one aggregator on a flat fabric;
    # the rack floor keeps one aggregator per rack
    flat = PFSParams(n_servers=8, stripe_unit=1024,
                     fabric=FabricParams(buffer_pkts=64))
    assert select_aggregators(16 << 10, n_ranks=8, params=flat).n_aggregators == 1
    plan = select_aggregators(16 << 10, n_ranks=8, params=params, topology=topo)
    assert plan.n_aggregators >= topo.n_racks
    assert plan.aggregator_clients is not None
    assert len(plan.aggregator_clients) == plan.n_aggregators
    for cid, group in zip(plan.aggregator_clients, plan.server_groups):
        assert topo.client_rack(cid) == topo.server_rack(group[0])
        assert len({topo.server_rack(s) for s in group}) == 1
    assert len(set(plan.aggregator_clients)) == plan.n_aggregators


def test_select_aggregators_flat_plan_has_no_client_ids():
    params = PFSParams(n_servers=8, fabric=FabricParams(buffer_pkts=64))
    plan = select_aggregators(64 << 20, n_ranks=8, params=params)
    assert plan.aggregator_clients is None


# -- whole-leaf blackout via the topology API ---------------------------

def test_set_leaf_down_covers_lazy_client_ports():
    sim = Simulator()
    topo = _topo(sim, n_servers=8, n_racks=2)
    topo.set_leaf_down(1, True)
    assert topo.leaf_up[1].down and topo.leaf_down[1].down
    assert topo.server_ports[4].down and not topo.server_ports[0].down
    # a client port created *while* the leaf is down starts dark
    assert topo.client_port(1).down        # rack 1 (round-robin)
    assert not topo.client_port(0).down    # rack 0
    topo.set_leaf_down(1, False)
    assert not topo.client_port(1).down
    assert not topo.server_ports[4].down
    with pytest.raises(ValueError):
        topo.set_leaf_down(5, True)


def test_blacked_out_leaf_stalls_cross_rack_flow_until_restore():
    sim = Simulator()
    topo = _topo(sim, n_servers=8, n_racks=2, buffer_pkts=16, min_rto_s=5e-3)
    topo.set_leaf_down(0, True)

    def _restore():
        from repro.sim import Timeout
        yield Timeout(0.02)
        topo.set_leaf_down(0, False)

    sim.spawn(_restore(), name="restore")
    sim.spawn(topo.to_server(4, 3000, src_client=0), name="flow")
    elapsed = sim.run()
    # the flow RTO-looped against the dark uplink until t=0.02
    assert elapsed > 0.02
    assert topo.leaf_up[0].total_timeouts >= 1
    assert topo.leaf_up[0].total_bytes == 3000


def test_single_rack_leafspine_is_all_local():
    sim = Simulator()
    topo = _topo(sim, n_servers=4, n_racks=1)
    assert topo.server_rack(3) == 0 == topo.client_rack(9)
    path = topo._route(topo.server_ports[2], 0, 0)
    assert path == [topo.server_ports[2]]
    assert math.isclose(
        topo.leaf_up[0].link.bandwidth_Bps, 4 * NIC / 4.0
    )
