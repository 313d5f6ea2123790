"""X19 — cross-rack collapse on an oversubscribed leaf/spine fabric.

The flat incast study (Fig 9, X14) blames a *single* switch output
buffer.  Real petascale machines add a second failure surface: racks of
edge links funnel into spine uplinks provisioned at a fraction of the
rack's aggregate bandwidth — 4:1 was the canonical 2008 datacenter
ratio.  A rack-blind workload whose flows all cross the spine then
collapses even though every *edge* port has fan-in 1: the shared uplink
buffer overflows, whole windows are lost, and each victim sits out a
min-RTO while the uplink idles.

The experiment drives the same total byte volume through the same
two-rack, 4:1-oversubscribed :class:`repro.net.fabric.Topology` under
two placements:

* **rack-blind** — every client streams to a server in the *other*
  rack, so all flows share the source leaf's spine uplink;
* **rack-aware** — every client streams to a server in its own rack,
  so flows cross only their destination edge ports (what the
  congestion-aware placement and rack-aligned aggregator selection buy
  at the system layers).

The per-hop counters identify the mechanism, not just the symptom: the
blind run's drops and timeouts concentrate on the ``leaf*.up`` spine
ports while the edge ports stay clean, and the aware run never touches
the spine at all.
"""

from benchmarks.conftest import print_table
from repro.net import FabricParams, LeafSpineParams, Link, Topology
from repro.sim import Simulator

N_RACKS = 2
N_SERVERS = 8          # 4 per rack
FLOWS_PER_RACK = 4
NBYTES = 4 << 20       # per flow
NIC_BPS = 1e9 / 8 * 0.9
BUFFER_PKTS = 32
OVERSUBSCRIPTION = 4.0


def _fabric():
    return FabricParams(
        name=f"leafspine-{int(OVERSUBSCRIPTION)}to1",
        buffer_pkts=BUFFER_PKTS,
        min_rto_s=0.2,  # the historical 200 ms floor — collapse hurts
        leafspine=LeafSpineParams(
            n_racks=N_RACKS, oversubscription=OVERSUBSCRIPTION
        ),
    )


def _run_placement(rack_aware: bool) -> dict:
    sim = Simulator()
    topo = Topology(
        sim, n_servers=N_SERVERS, client_link=Link(NIC_BPS),
        server_link=Link(NIC_BPS), fabric=_fabric(), name="x19",
    )
    n_flows = 0
    for rack in range(N_RACKS):
        for k in range(FLOWS_PER_RACK):
            client = topo.client_for_rack(rack, k)
            dst_rack = rack if rack_aware else (rack + 1) % N_RACKS
            # one distinct server per flow: edge fan-in stays at 1, so
            # any congestion is the spine's doing
            server = dst_rack * (N_SERVERS // N_RACKS) + k
            assert topo.server_rack(server) == dst_rack
            sim.spawn(
                topo.to_server(server, NBYTES, src_client=client),
                name=f"flow-r{rack}-k{k}",
            )
            n_flows += 1
    makespan = sim.run()
    total = n_flows * NBYTES
    spine = [topo.leaf_up[r].stats() for r in range(N_RACKS)]
    down = [topo.leaf_down[r].stats() for r in range(N_RACKS)]
    edges = [topo.server_ports[s].stats() for s in range(N_SERVERS)]
    return {
        "makespan_s": makespan,
        "goodput_MBps": total / makespan / 1e6,
        "spine_drops": sum(p["drops_pkts"] for p in spine),
        "spine_timeouts": sum(p["timeouts"] for p in spine),
        "downlink_drops": sum(p["drops_pkts"] for p in down),
        "edge_drops": sum(p["drops_pkts"] for p in edges),
        "edge_timeouts": sum(p["timeouts"] for p in edges),
        "spine_bytes": sum(p["bytes"] for p in spine),
    }


def run_x19():
    return {
        "rack-blind": _run_placement(rack_aware=False),
        "rack-aware": _run_placement(rack_aware=True),
    }


def test_x19_leafspine_cross_rack_collapse(run_once):
    res = run_once(run_x19)
    rows = [
        [
            name, f"{r['makespan_s']:.3f}", f"{r['goodput_MBps']:.1f}",
            r["spine_drops"], r["spine_timeouts"],
            r["edge_drops"], r["edge_timeouts"],
        ]
        for name, r in res.items()
    ]
    print_table(
        f"X19: {N_RACKS} racks, {OVERSUBSCRIPTION:.0f}:1 uplinks, "
        f"{BUFFER_PKTS}-pkt buffers, {FLOWS_PER_RACK} flows/rack",
        ["placement", "makespan_s", "MB/s", "sp.drop", "sp.RTO",
         "edge.drop", "edge.RTO"],
        rows,
        widths=[12, 12, 9, 9, 8, 11, 10],
    )
    blind, aware = res["rack-blind"], res["rack-aware"]
    # the headline: rack awareness is >= 1.3x goodput on this fabric
    assert aware["goodput_MBps"] >= 1.3 * blind["goodput_MBps"], (aware, blind)
    # mechanism, per-hop: the blind run collapses *at the spine uplinks*
    # — drops and full-window RTOs land on leaf*.up, not the edge ports
    assert blind["spine_drops"] > 0 and blind["spine_timeouts"] > 0
    assert blind["spine_drops"] > blind["edge_drops"]
    assert blind["spine_timeouts"] > blind["edge_timeouts"]
    # the aware run never crosses the spine and never suffers an RTO —
    # lone edge flows may shed a few fast-retransmit packets as their
    # window probes past the buffer, but no window is ever fully lost
    assert aware["spine_bytes"] == 0
    assert aware["spine_drops"] == 0 and aware["spine_timeouts"] == 0
    assert aware["edge_timeouts"] == 0


def test_x19_lone_cross_rack_flow_degrades_without_collapsing(run_once):
    """Control: a *single* cross-rack flow pays the extra hops (the
    uplink at 4:1 runs at edge rate, and the hops serialize per round)
    but never loses a full window — no RTO, no 200 ms stall.  The
    collapse above is the synchronized *sharing* of the uplink buffer,
    not the hop count."""

    def _run():
        out = {}
        for label, server in (("same-rack", 0), ("cross-rack", 4)):
            sim = Simulator()
            topo = Topology(
                sim, n_servers=N_SERVERS, client_link=Link(NIC_BPS),
                server_link=Link(NIC_BPS), fabric=_fabric(), name="x19c",
            )
            client = topo.client_for_rack(0, 0)
            sim.spawn(
                topo.to_server(server, NBYTES, src_client=client), name="flow"
            )
            makespan = sim.run()
            out[label] = {
                "goodput_MBps": NBYTES / makespan / 1e6,
                "spine_timeouts": sum(
                    topo.leaf_up[r].total_timeouts
                    + topo.leaf_down[r].total_timeouts
                    for r in range(N_RACKS)
                ),
                "spine_bytes": sum(
                    topo.leaf_up[r].total_bytes for r in range(N_RACKS)
                ),
            }
        return out

    res = run_once(_run)
    print_table(
        "X19 control: one flow, same fabric — hops cost bandwidth, not RTOs",
        ["route", "MB/s", "spine RTOs", "spine MB"],
        [[k, f"{r['goodput_MBps']:.1f}", r["spine_timeouts"],
          f"{r['spine_bytes'] / 1e6:.0f}"] for k, r in res.items()],
        widths=[12, 9, 12, 10],
    )
    same, cross = res["same-rack"], res["cross-rack"]
    assert cross["spine_bytes"] > 0 and same["spine_bytes"] == 0
    # orderly degradation: slower than same-rack, but zero full-window
    # losses — nothing like the shared-uplink collapse
    assert cross["spine_timeouts"] == 0
    assert cross["goodput_MBps"] < same["goodput_MBps"]
    assert cross["goodput_MBps"] > 0.2 * same["goodput_MBps"]


if __name__ == "__main__":  # pragma: no cover - manual smoke run
    import json

    print(json.dumps(run_x19(), indent=2))
