"""The recorder observes the model; it never steers it.

Congestion sensing reads the switch ports' own always-on state, so a
simulation that *acts* on congestion — ``placement="congestion"``, the
fabric-aware collective — must produce the same makespan, the same
chunk→server map and the same decisions with a ``repro.obs`` bundle
active and with none.  Both scenarios are the shapes the X15 / X17
benchmarks run, at tier-1 size.
"""

import pytest

from repro import obs as obs_mod
from repro.collective import CollectiveConfig, run_collective_write
from repro.net import FabricFeedback, FabricParams, Link, Topology
from repro.pfs.params import PFSParams
from repro.pfs.system import SimPFS
from repro.sim import Simulator, Timeout

N_SERVERS = 8
HOT_SERVER = 0
N_FILES = 16
FILE_BYTES = 64 * 1024
FABRIC = FabricParams(name="1GE-64pkt", buffer_pkts=64, seed=11)
COLLECTIVE = CollectiveConfig(n_ranks=32, n_aggregators=8)
COLLECTIVE_PFS = PFSParams(n_servers=N_SERVERS, fabric=FABRIC)


def _both_ways(run):
    """``run()`` under an active bundle, then with none."""
    with obs_mod.use(obs_mod.Observability(name="on")):
        recorded = run()
    assert obs_mod.current() is None
    return recorded, run()


def _skewed_write(placement):
    """X15 in small: a foreground client writes new files while two
    background flows keep ``HOT_SERVER``'s switch port saturated."""
    sim = Simulator()
    pfs = SimPFS(
        sim,
        PFSParams(
            n_servers=N_SERVERS, stripe_unit=FILE_BYTES, fabric=FABRIC,
            placement=placement,
        ),
    )
    live = {"bg": True}

    def background():
        while live["bg"]:
            yield from pfs.topology.to_server(HOT_SERVER, 4 << 20)

    def foreground():
        yield Timeout(0.02)  # long enough for the hot port to show
        for i in range(N_FILES):
            yield from pfs.op_create(0, f"/out/f{i}")
            yield from pfs.op_write(0, f"/out/f{i}", 0, FILE_BYTES)
        live["bg"] = False

    for _ in range(2):
        sim.spawn(background())
    sim.spawn(foreground())
    sim.run()
    return sim.now, dict(pfs.placement._chunk_server), pfs.placement.strategy.diversions


@pytest.mark.parametrize("placement", ["congestion"])
def test_congestion_placement_is_recorder_independent(placement):
    recorded, bare = _both_ways(lambda: _skewed_write(placement))
    assert recorded == bare
    makespan, chunk_server, diversions = bare
    # the scenario is live, not vacuous: sensing steered chunks off the hot port
    assert diversions > 0
    assert HOT_SERVER not in chunk_server.values()


def _hot_switch_feedback() -> FabricFeedback:
    """Feedback over a switch whose port 0 is busy with background flows."""
    sim = Simulator()
    topo = Topology(sim, 4, Link(112.5e6), Link(112.5e6), fabric=FABRIC)
    feedback = FabricFeedback.for_topology(topo)
    for _ in range(3):
        sim.spawn(topo.to_server(0, 4 << 20))
    sim.run(until=0.02)
    return feedback


def _collective():
    res = run_collective_write(
        COLLECTIVE, COLLECTIVE_PFS, scheme="fabric-aware", feedback=_hot_switch_feedback()
    )
    return res.makespan_s, res.fanin_cap, res.n_aggregators, res.plan.domains


def test_fabric_aware_collective_is_recorder_independent():
    recorded, bare = _both_ways(_collective)
    assert recorded == bare
    idle = run_collective_write(COLLECTIVE, COLLECTIVE_PFS, scheme="fabric-aware")
    # live, not vacuous: the sensed congestion discounted the fan-in bound
    assert bare[1] < idle.fanin_cap
