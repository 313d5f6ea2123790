"""Congestion-aware placement: feedback unit tests + fault injection.

Covers the sensing half (``FabricFeedback``: EWMA smoothing, interval
gating, stale-telemetry decay), the deciding half
(``CongestionAwarePlacement``: diversion, hysteresis, fallback), the
sticky chunk map (``PlacedLayout``), and the end-to-end ``SimPFS``
wiring behind the ``PFSParams.placement`` knob.

The sensing tests drive simulator-less ``SwitchPort`` objects through
their own accounting API (``admit``/``drain``/``record_drops``): the
feedback reads port state, never the ``repro.obs`` recorder.

The fault-injection scenario pinned here: a switch port whose state
goes *stale* (a stalled switch stops moving its counters) must not
wedge placement — the EWMA decays and the strategy falls back to its
wrapped choice instead of steering forever on a frozen reading.
"""

import pytest

from repro import obs as obs_mod
from repro.net import (
    FabricFeedback,
    FabricParams,
    LeafSpineParams,
    Link,
    SwitchPort,
    Topology,
)
from repro.pfs.layout import PlacedLayout, StripeLayout
from repro.pfs.params import PFSParams
from repro.pfs.system import SimPFS
from repro.placement import (
    CongestionAwarePlacement,
    RoundRobinPlacement,
    build_placement,
)
from repro.sim import Simulator

N = 8


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def _ports(n: int = N) -> list[SwitchPort]:
    fabric = FabricParams(name="t", buffer_pkts=64)
    return [SwitchPort(Link(125e6), fabric, name=f"server{i}") for i in range(n)]


def _feedback(ports, clock, **kw):
    kw.setdefault("interval_s", 1e-3)
    kw.setdefault("alpha", 0.5)
    kw.setdefault("stale_after_s", 5e-3)
    return FabricFeedback(ports, now_fn=clock, **kw)


def _heat(ports, server: int, occupancy: int = 64, drops: int = 0):
    port = ports[server]
    port.drain(port.occupancy_pkts)
    port.admit(occupancy)
    port.record_drops(drops)


def _topology(n_servers: int = N, **fabric_kw) -> Topology:
    return Topology(
        Simulator(), n_servers, Link(125e6), Link(125e6),
        fabric=FabricParams(name="t", **fabric_kw),
    )


# -- FabricFeedback ----------------------------------------------------


def test_feedback_costs_track_occupancy_and_drops():
    ports = _ports()
    clock = FakeClock()
    fb = _feedback(ports, clock, buffer_norm=64.0, drop_weight=0.1)
    fb.costs()  # seed snapshot: all idle
    _heat(ports, 0, occupancy=64)
    _heat(ports, 1, occupancy=8, drops=2)
    clock.t += 2e-3
    costs = fb.costs()
    assert costs[0] > costs[1] > 0.0
    # EWMA fold over 2 idle-seeded steps: instant * (1 - (1-alpha)^2)
    fold = 1.0 - (1.0 - 0.5) ** 2
    assert costs[0] == pytest.approx(1.0 * fold)
    assert costs[1] == pytest.approx((8.0 / 64.0 + 0.1 * 2.0) * fold)
    assert all(c == 0.0 for c in costs[2:])


def test_feedback_interval_gates_refresh():
    ports = _ports()
    clock = FakeClock()
    fb = _feedback(ports, clock)
    fb.costs()
    _heat(ports, 3, occupancy=32)
    clock.t += 0.4e-3  # less than one interval: snapshot not folded yet
    assert fb.costs()[3] == 0.0
    clock.t += 0.7e-3
    assert fb.costs()[3] > 0.0


def test_feedback_ewma_smooths_transient_bursts():
    """One hot snapshot decays geometrically once the port goes quiet —
    placement reacts to sustained heat, not a single burst."""
    ports = _ports()
    clock = FakeClock()
    fb = _feedback(ports, clock, alpha=0.5, stale_after_s=1.0)
    fb.costs()
    _heat(ports, 0, occupancy=64)
    clock.t += 1e-3
    peak = fb.costs()[0]
    assert peak == pytest.approx(0.5)  # one fold toward instant=1.0 at alpha=0.5
    _heat(ports, 0, occupancy=0)  # burst over
    seen = []
    for _ in range(4):
        clock.t += 1e-3
        seen.append(fb.costs()[0])
    assert seen == sorted(seen, reverse=True)
    assert seen[-1] < 0.2 * peak


def test_feedback_sensing_registers_nothing():
    """Reading is not recording: sensing a live fabric's ports under a
    bundle leaves the registry exactly as it found it."""
    with obs_mod.use(obs_mod.Observability()) as o:
        topo = _topology(
            16, buffer_pkts=32, leafspine=LeafSpineParams(n_racks=2)
        )
        before = len(o.metrics)
        fb = FabricFeedback.for_topology(topo)
        assert fb.costs() == [0.0] * 16
        assert len(o.metrics) == before
        # an idle fabric has recorded nothing, so it has no series at all
        assert not o.metrics.find("net.fabric") and not o.metrics.find("sim.resource")


def test_feedback_senses_ports_without_a_registry():
    """No bundle is active (conftest's isolation fixture): the ports'
    own always-on state is all the feedback needs."""
    assert obs_mod.current() is None
    topo = _topology(buffer_pkts=16)
    fb = FabricFeedback.for_topology(topo)
    assert fb.buffer_norm == 16.0
    assert fb.costs() == [0.0] * N  # seeded on the idle fabric at t=0
    hot = topo.server_ports[3]
    hot.admit(16)
    hot.record_drops(5)
    topo.sim.call_at(2e-3, lambda: None)
    topo.sim.run()  # the feedback samples on the topology's own clock
    costs = fb.costs()
    assert costs[3] == pytest.approx((16 / 16.0 + 0.1 * 5) * 0.75)
    assert all(c == 0.0 for i, c in enumerate(costs) if i != 3)
    strat = CongestionAwarePlacement(RoundRobinPlacement(N), feedback=fb)
    assert strat.place(3, 0) != 3 and strat.diversions == 1


def test_feedback_rejects_bad_knobs():
    ports = _ports(4)
    with pytest.raises(ValueError):
        FabricFeedback([])
    with pytest.raises(ValueError):
        FabricFeedback(ports, alpha=0.0)
    with pytest.raises(ValueError):
        FabricFeedback(ports, interval_s=0.0)
    with pytest.raises(ValueError):
        FabricFeedback(ports, hops=ports[:1])


# -- fault injection: stale telemetry ----------------------------------


def test_stale_gauges_decay_and_placement_falls_back():
    """Regression pin: a port whose metrics freeze (simulated switch
    stall) first diverts traffic, then — once the telemetry is stale —
    decays back to the base strategy.  Placement never wedges and never
    raises."""
    ports = _ports()
    clock = FakeClock()
    fb = _feedback(ports, clock, stale_after_s=5e-3)
    base = RoundRobinPlacement(N)
    strat = CongestionAwarePlacement(base, feedback=fb)
    fb.costs()  # seed
    # heat port 0, keep its counters moving so it reads as live
    file_id = 0  # base choice for (0, 0) is server 0
    _heat(ports, 0, occupancy=64, drops=50)
    clock.t += 2e-3
    diverted = strat.place(file_id, 0)
    assert diverted != 0, "live hot port must divert"
    # the switch stalls: gauges/counters stop updating entirely
    for step in range(40):
        clock.t += 1e-3
        choice = strat.place(file_id, 0)  # must never raise, never hang
        assert 0 <= choice < N
    assert fb.stale[0], "frozen telemetry must be flagged stale"
    assert fb.costs()[0] == pytest.approx(0.0, abs=1e-6)
    assert strat.place(file_id, 0) == base.place(file_id, 0), (
        "after the EWMA decays, placement falls back to the wrapped strategy"
    )


def test_stale_port_recovers_when_telemetry_resumes():
    ports = _ports()
    clock = FakeClock()
    fb = _feedback(ports, clock, stale_after_s=5e-3)
    fb.costs()
    _heat(ports, 0, occupancy=64)
    clock.t += 2e-3
    assert fb.costs()[0] > 0.5
    for _ in range(20):  # stall long enough to decay + flag stale
        clock.t += 1e-3
        fb.costs()
    assert fb.stale[0]
    _heat(ports, 0, occupancy=48, drops=10)  # switch comes back
    clock.t += 1e-3
    assert fb.costs()[0] > 0.5
    assert not fb.stale[0]


# -- CongestionAwarePlacement decision logic ---------------------------


def test_diversion_requires_hysteresis_margin():
    ports = _ports()
    clock = FakeClock()
    fb = _feedback(ports, clock)
    strat = CongestionAwarePlacement(
        RoundRobinPlacement(N), feedback=fb, hysteresis=0.5
    )
    fb.costs()
    _heat(ports, 0, occupancy=16)  # cost 0.25 < hysteresis 0.5
    clock.t += 2e-3
    assert strat.place(0, 0) == 0, "sub-hysteresis heat must not divert"
    _heat(ports, 0, occupancy=64)
    clock.t += 2e-3
    assert strat.place(0, 0) != 0


def test_diversion_picks_cheapest_candidate():
    ports = _ports()
    clock = FakeClock()
    fb = _feedback(ports, clock)
    strat = CongestionAwarePlacement(RoundRobinPlacement(N), feedback=fb, fanout=3)
    fb.costs()
    _heat(ports, 0, occupancy=64)
    _heat(ports, 1, occupancy=32)
    clock.t += 2e-3
    # base choice for (0, 0) is 0; candidates are {0, 1, 2}: 2 is coldest
    assert strat.place(0, 0) == 2
    assert strat.diversions == 1


def test_congestion_wrapper_validates_shapes():
    with pytest.raises(ValueError):
        CongestionAwarePlacement(RoundRobinPlacement(4), fanout=0)
    with pytest.raises(ValueError):
        CongestionAwarePlacement(
            RoundRobinPlacement(4), feedback=FabricFeedback(_ports(5))
        )


# -- build_placement spec resolution -----------------------------------


def test_build_placement_specs():
    topo = _topology(buffer_pkts=32)
    assert isinstance(build_placement("round-robin", topo), RoundRobinPlacement)
    cong = build_placement("congestion", topo)
    assert isinstance(cong, CongestionAwarePlacement)
    assert isinstance(cong.base, RoundRobinPlacement)
    assert cong.feedback.n_servers == N
    assert cong.feedback.buffer_norm == 32.0
    ready = RoundRobinPlacement(N)
    assert build_placement(ready, topo) is ready
    with pytest.raises(ValueError):
        build_placement(ready, _topology(N + 1))
    for unknown in ("no-such-strategy", "crush", "congestion:round-robin", 123):
        with pytest.raises(ValueError):
            build_placement(unknown, topo)


# -- PlacedLayout ------------------------------------------------------


def test_placed_layout_is_sticky_under_time_varying_costs():
    """Once a chunk is placed, later cost changes must not move it —
    reads must find the bytes where the write put them."""
    ports = _ports()
    clock = FakeClock()
    fb = _feedback(ports, clock)
    strat = CongestionAwarePlacement(RoundRobinPlacement(N), feedback=fb)
    layout = PlacedLayout(strat, stripe_unit=64 * 1024)
    fb.costs()
    first = layout.server_of(0, 0)
    _heat(ports, first, occupancy=64, drops=100)  # now make it hot
    clock.t += 2e-3
    assert layout.server_of(0, 0) == first  # sticky
    assert layout.server_of(0, 1) != first  # but new chunks divert


def test_placed_layout_server_offsets_pack_per_server():
    layout = PlacedLayout(RoundRobinPlacement(4), stripe_unit=100)
    exts = layout.merged_extents(7, 0, 1000)  # 10 chunks across 4 servers
    assert sum(e.length for e in exts) == 1000
    per_server: dict[int, list] = {}
    for e in exts:
        per_server.setdefault(e.server, []).append(e)
    for server, server_exts in per_server.items():
        offs = sorted(e.server_offset for e in server_exts)
        assert offs == [i * 100 for i in range(len(offs))]


def test_placed_layout_round_robin_matches_stripe_layout_servers():
    """placement='round-robin' chooses the same servers as the legacy
    shifted StripeLayout (the shift is the file id)."""
    unit = 64 * 1024
    legacy = StripeLayout(N, unit)
    layout = PlacedLayout(RoundRobinPlacement(N), stripe_unit=unit)
    for file_id in (0, 3, 11):
        for chunk in range(16):
            assert layout.server_of(file_id, chunk) == legacy.server_of(
                chunk * unit, shift=file_id
            )


def test_placed_layout_rejects_out_of_range_strategy():
    class Broken(RoundRobinPlacement):
        def place(self, file_id, chunk):
            return self.n_servers  # off the end

    layout = PlacedLayout(Broken(4), stripe_unit=10)
    with pytest.raises(ValueError):
        layout.server_of(0, 0)


# -- end-to-end SimPFS wiring ------------------------------------------


def _write_read_roundtrip(params: PFSParams) -> float:
    sim = Simulator()
    pfs = SimPFS(sim, params)

    def work():
        for i in range(4):
            yield from pfs.op_create(0, f"/f{i}")
            yield from pfs.op_write(0, f"/f{i}", 0, 256 * 1024)
        for i in range(4):
            got = yield from pfs.op_read(1, f"/f{i}", 0, 256 * 1024)
            assert got >= 0.0

    sim.spawn(work())
    sim.run()
    for i in range(4):
        assert pfs.lookup(f"/f{i}").size == 256 * 1024
    return sim.now


@pytest.mark.parametrize("placement", [
    None,
    "round-robin",
    pytest.param(RoundRobinPlacement(N), id="instance"),
    "congestion",
])
def test_simpfs_roundtrip_under_each_placement(placement):
    fabric = FabricParams(name="t", buffer_pkts=32, seed=4)
    t = _write_read_roundtrip(
        PFSParams(n_servers=N, fabric=fabric, placement=placement)
    )
    assert t > 0.0


def test_simpfs_congestion_binds_feedback_to_its_topology():
    """With or without a bundle, ``placement="congestion"`` senses the
    deployment's own server ports, normalized by its buffer depth."""
    params = PFSParams(
        n_servers=N, fabric=FabricParams(buffer_pkts=16), placement="congestion"
    )
    with obs_mod.use(obs_mod.Observability(name="bind")):
        recorded = SimPFS(Simulator(), params)
    bare = SimPFS(Simulator(), params)
    for pfs in (recorded, bare):
        strat = pfs.placement.strategy
        assert isinstance(strat, CongestionAwarePlacement)
        assert strat.feedback.buffer_norm == 16.0
        pfs.topology.server_ports[2].admit(16)
        assert strat.feedback.costs()[2] == 1.0  # seeded from the port itself
