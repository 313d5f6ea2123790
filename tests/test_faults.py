"""Unit and integration tests for repro.faults and degraded-mode SimPFS.

Covers the fault schedule (validation, trace mapping, injection), the
storage-server crash/park/slowdown machinery, the resilient client path
(timeouts, backoff, redirected writes, reconstruction), the
``SimulationError`` diagnosis contract for broken schedules, and — in the
style of ``tests/test_obs_isolation.py`` — the determinism pair: one
fault seed, two runs, identical makespans and identical ``faults.*``
counters.
"""

import pytest

import numpy as np

from repro import obs as obs_mod
from repro.failure.traces import synth_interrupt_trace
from repro.faults import (
    FaultableServer,
    FaultEvent,
    FaultSchedule,
    OpTimeout,
    RedundancySpec,
    ResilienceParams,
    RetriesExhausted,
    ServerDown,
)
from repro.giga import GigaService, ServiceParams
from repro.giga.mapping import hash_name
from repro.pfs.layout import Extent
from repro.pfs.params import PFSParams
from repro.pfs.system import SimPFS
from repro.sim import SimulationError, Simulator, Timeout, Wait
from repro.workloads.checkpoint import run_faulted_checkpoint


# -- schedule construction / validation ---------------------------------


def test_fault_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(-1.0, "server_crash")
    with pytest.raises(ValueError):
        FaultEvent(0.0, "voltage_spike")
    with pytest.raises(ValueError):
        FaultEvent(0.0, "disk_slowdown", value=0.0)


def test_schedule_sorts_and_iterates():
    sched = FaultSchedule(
        [
            FaultEvent(5.0, "server_recover", target=1),
            FaultEvent(1.0, "server_crash", target=1),
            FaultEvent(3.0, "disk_slowdown", target=0, value=2.0),
        ]
    )
    assert [ev.at_s for ev in sched] == [1.0, 3.0, 5.0]
    assert len(sched) == 3
    assert len(sched.until(4.0)) == 2


def test_blackout_without_restore_rejected():
    with pytest.raises(ValueError, match="port_restore"):
        FaultSchedule([FaultEvent(1.0, "port_blackout", target=2)])
    # a matched pair is fine
    FaultSchedule(
        [
            FaultEvent(1.0, "port_blackout", target=2),
            FaultEvent(2.0, "port_restore", target=2),
        ]
    )


def test_from_interrupt_trace_is_deterministic():
    rng = np.random.default_rng(3)
    trace = synth_interrupt_trace("t", n_chips=64, years=5.0, rng=rng)
    kw = dict(horizon_s=100.0, n_servers=8, downtime_s=4.0, seed=5)
    a = FaultSchedule.from_interrupt_trace(trace, **kw)
    b = FaultSchedule.from_interrupt_trace(trace, **kw)
    assert a.events == b.events
    assert len(a) == 2 * trace.n_interrupts  # crash + recover per interrupt
    crashes = [ev for ev in a if ev.kind == "server_crash"]
    assert all(0 <= ev.target < 8 for ev in crashes)
    # times scale linearly onto the horizon
    assert max(ev.at_s for ev in crashes) < 100.0


def test_app_interrupt_times():
    rng = np.random.default_rng(3)
    trace = synth_interrupt_trace("t", n_chips=64, years=5.0, rng=rng)
    sched = FaultSchedule.from_interrupt_trace(
        trace, horizon_s=50.0, kind="app_interrupt"
    )
    times = sched.app_interrupt_times()
    assert times == sorted(times)
    assert len(times) == trace.n_interrupts
    np.testing.assert_allclose(times, trace.times_in_seconds(50.0))


def test_redundancy_spec_parse():
    assert RedundancySpec.parse(None) is None
    assert RedundancySpec.parse("none") is None
    rs = RedundancySpec.parse("rs:4+2")
    assert (rs.kind, rs.k, rs.m) == ("rs", 4, 2)
    assert rs.tolerance == 2 and rs.min_servers == 6
    assert rs.reconstruct_read_shares == 4
    mirror = RedundancySpec.parse("mirror:3")
    assert (mirror.kind, mirror.k, mirror.m) == ("mirror", 1, 2)
    assert mirror.reconstruct_read_shares == 1
    assert str(mirror) == "mirror:3"
    for bad in ("raid5", "rs:4", "mirror:1", 17):
        with pytest.raises(ValueError):
            RedundancySpec.parse(bad)


def test_backoff_caps_and_jitters():
    res = ResilienceParams(backoff_base_s=0.01, backoff_max_s=0.08, jitter=False)
    assert res.backoff_s(0) == 0.01
    assert res.backoff_s(2) == 0.04
    assert res.backoff_s(10) == 0.08  # capped
    rng = np.random.default_rng(0)
    jittered = ResilienceParams(backoff_base_s=0.01, backoff_max_s=0.08)
    vals = [jittered.backoff_s(0, rng) for _ in range(50)]
    assert all(0.005 <= v < 0.015 for v in vals)
    assert len(set(vals)) > 1


# -- server crash/recover/slowdown machinery ----------------------------


def _pfs(params=None):
    sim = Simulator()
    return sim, SimPFS(sim, params or PFSParams())


def run_app(sim, gen):
    proc = sim.spawn(gen)
    sim.run()
    return proc.done_event.value


def test_reject_mode_counts_rejections_and_retries_exhaust():
    sim, pfs = _pfs(PFSParams(resilience=ResilienceParams(max_retries=2)))

    def app():
        yield from pfs.op_create(0, "/f")
        yield from pfs.op_write(0, "/f", 0, 64 * 1024)
        pfs.servers[0].crash()  # reject flavor
        with pytest.raises(RetriesExhausted) as exc_info:
            yield from pfs.op_read(0, "/f", 0, 64 * 1024)
        assert isinstance(exc_info.value.last, ServerDown)
        assert exc_info.value.attempts == 3  # first try + 2 retries

    run_app(sim, app())
    stats = pfs.server_stats()[0]
    assert stats["up"] is False
    assert stats["requests_rejected"] == 3
    assert stats["downtime_s"] > 0.0


def test_park_mode_drains_queue_on_recovery():
    sim, pfs = _pfs(
        PFSParams(resilience=ResilienceParams(op_timeout_s=0.05, max_retries=8))
    )

    def app():
        yield from pfs.op_create(0, "/f")
        pfs.servers[0].crash(park=True)
        # recovery lands while the client is timing out / backing off
        sim.call_after(0.5, pfs.servers[0].recover)
        yield from pfs.op_write(0, "/f", 0, 64 * 1024)

    run_app(sim, app())
    stats = pfs.server_stats()[0]
    assert stats["up"] is True
    assert stats["requests_rejected"] == 0  # parked, never rejected
    assert stats["downtime_s"] == pytest.approx(0.5, abs=1e-6)
    assert pfs.lookup("/f").size == 64 * 1024


def test_park_mode_times_out_the_client():
    sim, pfs = _pfs(
        PFSParams(resilience=ResilienceParams(op_timeout_s=0.05, max_retries=1))
    )

    def app():
        yield from pfs.op_create(0, "/f")
        pfs.servers[0].crash(park=True)  # never recovers
        with pytest.raises(RetriesExhausted) as exc_info:
            yield from pfs.op_write(0, "/f", 0, 64 * 1024)
        assert isinstance(exc_info.value.last, OpTimeout)

    run_app(sim, app())


def test_disk_slowdown_stretches_service():
    def makespan(mult):
        sim, pfs = _pfs()
        if mult != 1.0:
            pfs.servers[0].set_disk_slowdown(mult)

        def app():
            yield from pfs.op_create(0, "/f")
            yield from pfs.op_write(0, "/f", 0, 256 * 1024)

        run_app(sim, app())
        return sim.now

    assert makespan(8.0) > makespan(1.0)


# -- the one server fault contract (repro.faults.server) -----------------
# Each bank returns (a FaultableServer, request(tag)): ``request`` is a sim
# process sending one request to that server, returning "ok" or "down".


def _storage_bank(sim):
    pfs = SimPFS(sim, PFSParams())
    exts = [Extent(server=0, server_offset=0, logical_offset=0, length=4096)]

    def request(tag):
        try:
            yield Wait(pfs._issue(f"contract:{tag}", 0, 0, 0, exts, 4096, False))
        except ServerDown:
            return "down"
        return "ok"

    return pfs.servers[0], request


def _metadata_bank(sim):
    # detection never fires in-window, so the ring (and the owner) holds
    service = GigaService(sim, ServiceParams(n_servers=2, failover_detect_s=1e3))
    owner = service.coordinator.map.owner(0)

    def request(tag):
        status, _ = yield from service._serve(owner, "lookup", tag, hash_name(tag))
        return status

    return service.servers[owner], request


@pytest.mark.parametrize("bank", [_storage_bank, _metadata_bank], ids=["storage", "metadata"])
def test_server_fault_contract(bank):
    with obs_mod.use(obs_mod.Observability(name="contract")) as o:
        sim = Simulator()
        srv, request = bank(sim)
        assert isinstance(srv, FaultableServer)
        down_gauge = o.metrics.gauge("faults.servers_down")
        done = []

        def client(tag):
            status = yield from request(tag)
            done.append((tag, status, sim.now))

        # crash/recover are idempotent; a second crash only switches flavor
        srv.recover()  # up already: no-op
        srv.crash()
        srv.crash(park=True)
        assert not srv.up and srv.park
        assert srv.counters["crashes"] == 1 and down_gauge.value == 1.0

        # park: requests wait out the outage, then drain FIFO
        for tag in "abc":
            sim.spawn(client(tag))
        sim.call_after(1.0, srv.recover)
        sim.call_after(1.0, srv.recover)
        sim.run(until=2.0)
        assert [(tag, status) for tag, status, _ in done] == [
            ("a", "ok"), ("b", "ok"), ("c", "ok")
        ]
        times = [t for _, _, t in done]
        assert times[0] >= 1.0 and times == sorted(times)
        assert srv.up and srv.counters["recoveries"] == 1
        assert srv.counters["requests_rejected"] == 0
        assert srv.downtime_s() == pytest.approx(1.0)
        assert down_gauge.value == 0.0

        # reject: a request reaching the down server fails in zero sim time
        srv.crash()
        sim.spawn(client("d"))
        sim.run(until=3.0)
        assert done[-1] == ("d", "down", 2.0)
        assert srv.counters["requests_rejected"] == 1
        assert srv.downtime_s() == pytest.approx(2.0)  # open outage counts
        srv.recover()
        assert down_gauge.value == 0.0
        outages = [sp for sp in o.tracer.spans if sp.name == "faults.server_down"]
        assert [sp.attrs["park"] for sp in outages] == [False, False]
        assert all(sp.finished for sp in outages)

        with pytest.raises(ValueError, match="positive"):
            srv.set_disk_slowdown(0)
        srv.set_disk_slowdown(2.0)
        assert srv.slowdown == 2.0 and srv.counters["slowdowns"] == 1


def test_redundancy_needs_enough_servers():
    with pytest.raises(ValueError, match="servers"):
        SimPFS(Simulator(), PFSParams(n_servers=4, redundancy="rs:4+2"))


def test_default_params_have_no_fault_machinery():
    _, pfs = _pfs()
    assert pfs.resilience is None and pfs.redundancy is None


# -- injection diagnostics (SimulationError contract) --------------------


def test_bad_schedule_wrapped_in_simulation_error():
    sim, pfs = _pfs()
    FaultSchedule([FaultEvent(0.25, "server_crash", target=99)]).inject(sim, pfs)
    with pytest.raises(SimulationError, match=r"t=0\.250000s.*server_crash"):
        sim.run()


def test_injection_counts_into_registry():
    with obs_mod.use(obs_mod.Observability(name="inj")) as o:
        sim, pfs = _pfs()
        FaultSchedule(
            [
                FaultEvent(0.1, "server_crash", target=1),
                FaultEvent(0.2, "server_recover", target=1),
                FaultEvent(0.3, "disk_slowdown", target=0, value=3.0),
            ]
        ).inject(sim, pfs)
        sim.run()
        counters = o.metrics.snapshot()["counters"]
    assert counters["faults.injected{kind=server_crash}"] == 1.0
    assert counters["faults.injected{kind=server_recover}"] == 1.0
    assert counters["faults.injected{kind=disk_slowdown}"] == 1.0


def test_leaf_blackout_without_restore_rejected():
    with pytest.raises(ValueError, match="leaf_restore"):
        FaultSchedule([FaultEvent(1.0, "leaf_blackout", target=0)])


def test_leaf_blackout_downs_whole_rack_and_restores():
    from repro.net.params import FabricParams, LeafSpineParams

    with obs_mod.use(obs_mod.Observability(name="rackdark")) as o:
        sim, pfs = _pfs(
            PFSParams(
                fabric=FabricParams(
                    name="finite", buffer_pkts=32, seed=1,
                    leafspine=LeafSpineParams(n_racks=2, oversubscription=4.0),
                )
            )
        )
        topo = pfs.topology
        # default PFSParams has 8 servers: rack 0 = servers 0-3, rack 1 = 4-7
        FaultSchedule(
            [
                FaultEvent(0.1, "leaf_blackout", target=1),
                FaultEvent(0.2, "leaf_restore", target=1),
            ]
        ).inject(sim, pfs)

        def probe():
            yield Timeout(0.15)
            assert topo.leaf_up[1].down and topo.leaf_down[1].down
            for s in range(4, 8):
                assert topo.server_ports[s].down
                assert topo.server_ports[s].free_pkts() == 0
            for s in range(0, 4):
                assert not topo.server_ports[s].down
            # a client port lazily created while its rack is dark comes up down
            assert topo.client_port(topo.client_for_rack(1, 0)).down
            yield Timeout(0.1)
            assert not topo.leaf_up[1].down
            for s in range(4, 8):
                assert not topo.server_ports[s].down

        sim.spawn(probe())
        sim.run()
        counters = o.metrics.snapshot()["counters"]
    assert counters["faults.injected{kind=leaf_blackout}"] == 1.0
    assert counters["net.fabric.blackouts{port=leaf1.up}"] == 1.0
    assert counters["net.fabric.blackouts{port=server4}"] == 1.0


def test_set_leaf_down_requires_leafspine():
    sim, pfs = _pfs()
    with pytest.raises(ValueError, match="leaf/spine"):
        pfs.topology.set_leaf_down(0, True)


def test_port_blackout_reaches_fabric():
    from repro.net.params import FabricParams

    with obs_mod.use(obs_mod.Observability(name="dark")) as o:
        sim, pfs = _pfs(
            PFSParams(fabric=FabricParams(name="finite", buffer_pkts=32, seed=1))
        )
        FaultSchedule(
            [
                FaultEvent(0.1, "port_blackout", target=2),
                FaultEvent(0.2, "port_restore", target=2),
            ]
        ).inject(sim, pfs)

        def probe():
            yield Timeout(0.15)
            assert pfs.topology.server_ports[2].down
            assert pfs.topology.server_ports[2].free_pkts() == 0
            yield Timeout(0.1)
            assert not pfs.topology.server_ports[2].down

        sim.spawn(probe())
        sim.run()
        counters = o.metrics.snapshot()["counters"]
    assert counters["net.fabric.blackouts{port=server2}"] == 1.0


# -- degraded data path ---------------------------------------------------


def test_degraded_write_redirects_and_completes():
    with obs_mod.use(obs_mod.Observability(name="redir")) as o:
        sim, pfs = _pfs(PFSParams(redundancy="rs:4+2"))

        def app():
            yield from pfs.op_create(0, "/f")
            pfs.servers[2].crash()
            yield from pfs.op_write(0, "/f", 0, 1 << 20)

        run_app(sim, app())
        counters = o.metrics.snapshot()["counters"]
    assert counters.get("faults.redirected_requests", 0) >= 1
    assert pfs.lookup("/f").size == 1 << 20


def test_mirror_degraded_read_has_no_decode_cost_counterpart():
    with obs_mod.use(obs_mod.Observability(name="mirror")) as o:
        sim, pfs = _pfs(PFSParams(redundancy="mirror:2"))

        def app():
            yield from pfs.op_create(0, "/f")
            yield from pfs.op_write(0, "/f", 0, 256 * 1024)
            pfs.servers[1].crash()
            yield from pfs.op_read(0, "/f", 0, 256 * 1024)

        run_app(sim, app())
        counters = o.metrics.snapshot()["counters"]
    assert counters.get("faults.reconstructions", 0) >= 1


def test_too_many_failures_exhaust_even_with_redundancy():
    sim, pfs = _pfs(
        PFSParams(
            redundancy="rs:4+2",
            resilience=ResilienceParams(op_timeout_s=0.05, max_retries=1),
        )
    )

    def app():
        yield from pfs.op_create(0, "/f")
        yield from pfs.op_write(0, "/f", 0, 1 << 20)
        for s in (0, 1, 2):  # three down > m=2 tolerance
            pfs.servers[s].crash()
        with pytest.raises(RetriesExhausted):
            yield from pfs.op_read(0, "/f", 0, 1 << 20)

    run_app(sim, app())


# -- truncation: until() must not strand blackouts ------------------------


def test_until_synthesizes_restore_at_horizon():
    """Regression: truncating between a blackout and its restore used to
    produce an invalid schedule (permanently dark port) — until() now
    synthesizes the missing restore at the horizon."""
    sched = FaultSchedule(
        [
            FaultEvent(1.0, "port_blackout", target=2),
            FaultEvent(10.0, "port_restore", target=2),
            FaultEvent(2.0, "leaf_blackout", target=0),
            FaultEvent(12.0, "leaf_restore", target=0),
        ]
    )
    cut = sched.until(5.0)
    kinds = [(ev.at_s, ev.kind, ev.target) for ev in cut]
    assert (1.0, "port_blackout", 2) in kinds
    assert (5.0, "port_restore", 2) in kinds
    assert (2.0, "leaf_blackout", 0) in kinds
    assert (5.0, "leaf_restore", 0) in kinds
    assert all(ev.at_s <= 5.0 for ev in cut)


def test_until_keeps_closed_pairs_untouched():
    sched = FaultSchedule(
        [
            FaultEvent(1.0, "port_blackout", target=2),
            FaultEvent(2.0, "port_restore", target=2),
            FaultEvent(8.0, "server_crash", target=1),
        ]
    )
    cut = sched.until(5.0)
    assert [(ev.at_s, ev.kind) for ev in cut] == [
        (1.0, "port_blackout"),
        (2.0, "port_restore"),
    ]


# -- correlated domain bursts ---------------------------------------------


def _burst_schedule(**over):
    from repro.failure.traces import InterruptTrace

    trace = InterruptTrace(
        system="bursts",
        n_chips=12,
        years=100.0,
        interrupt_times=np.array([10.0, 40.0, 70.0]),
    )
    kw = dict(
        horizon_s=100.0,
        kind="domain_burst",
        n_servers=12,
        n_racks=3,
        burst_servers=2,
        downtime_s=5.0,
        blackout_s=2.0,
        lose_disks=True,
        seed=7,
    )
    kw.update(over)
    return FaultSchedule.from_interrupt_trace(trace, **kw)


def test_domain_burst_emits_correlated_events():
    sched = _burst_schedule(racks=[0, 1, 2])
    by_kind = {}
    for ev in sched:
        by_kind.setdefault(ev.kind, []).append(ev)
    # one blackout/restore pair per burst, pairing valid by construction
    assert len(by_kind["leaf_blackout"]) == 3
    assert len(by_kind["leaf_restore"]) == 3
    assert [ev.target for ev in by_kind["leaf_blackout"]] == [0, 1, 2]
    # two crashed servers per burst, each with a disk loss and a recovery
    assert len(by_kind["server_crash"]) == 6
    assert len(by_kind["disk_loss"]) == 6
    assert len(by_kind["server_recover"]) == 6
    # crashed servers belong to the burst's rack (Topology.server_rack rule)
    for black in by_kind["leaf_blackout"]:
        crashed = [
            ev.target for ev in by_kind["server_crash"] if ev.at_s == black.at_s
        ]
        assert len(set(crashed)) == 2
        assert all(s * 3 // 12 == black.target for s in crashed)
    # restores trail by the configured intervals
    assert all(
        any(r.at_s == b.at_s + 2.0 and r.target == b.target
            for r in by_kind["leaf_restore"])
        for b in by_kind["leaf_blackout"]
    )
    assert all(
        any(r.at_s == c.at_s + 5.0 and r.target == c.target
            for r in by_kind["server_recover"])
        for c in by_kind["server_crash"]
    )


def test_domain_burst_deterministic_and_validated():
    assert _burst_schedule().events == _burst_schedule().events
    assert _burst_schedule(lose_disks=False).events != _burst_schedule().events
    with pytest.raises(ValueError, match="n_servers and n_racks"):
        _burst_schedule(n_racks=0)
    with pytest.raises(ValueError, match="burst_servers"):
        _burst_schedule(burst_servers=0)
    with pytest.raises(ValueError, match="out of range"):
        _burst_schedule(racks=[5])


def test_disk_loss_event_wipes_shares():
    with obs_mod.use(obs_mod.Observability(name="wipe")) as o:
        sim, pfs = _pfs(PFSParams(redundancy="rs:4+2"))

        def app():
            yield from pfs.op_create(0, "/f")
            yield from pfs.op_write(0, "/f", 0, 1 << 20)

        run_app(sim, app())
        assert pfs.ledger.health()["degraded"] == 0
        FaultSchedule(
            [FaultEvent(0.5, "disk_loss", target=1)], name="wipe"
        ).inject(sim, pfs)
        sim.run()
        counters = o.metrics.snapshot()["counters"]
    health = pfs.ledger.health()
    assert health["degraded"] >= 1
    assert health["unrecoverable"] == 0  # one wiped server <= tolerance
    assert pfs._server_wiped(1)
    assert pfs.servers[1].up  # availability untouched by a durability fault
    assert counters["faults.injected{kind=disk_loss}"] == 1.0
    assert counters["scrub.shares_lost"] >= 1.0


def test_reconstruction_selfcheck_decodes_without_a_data_share(monkeypatch):
    """disk_loss leaves every server up, so "servers down" is 0 — the RS
    self-check must still withhold a data share, or it decodes through
    the identity sub-matrix of the systematic code and checks nothing."""
    sim, pfs = _pfs(PFSParams(redundancy="rs:4+2"))
    decoded_from = []
    real_decode = pfs._rs_codec.decode

    def spy(available, length):
        decoded_from.append(set(available))
        return real_decode(available, length)

    monkeypatch.setattr(pfs._rs_codec, "decode", spy)

    def app():
        yield from pfs.op_create(0, "/f")
        yield from pfs.op_write(0, "/f", 0, 1 << 20)
        pfs.lose_disk(1)
        assert all(s.up for s in pfs.servers)
        yield from pfs.op_read(0, "/f", 0, 1 << 20)

    run_app(sim, app())
    k = pfs.redundancy.k
    assert decoded_from  # the degraded read reconstructed
    for shares in decoded_from:
        assert len(shares) >= k and not set(range(k)) <= shares


# -- determinism pair -----------------------------------------------------


def _one_faulted_run():
    """One fixed-seed faulted checkpoint run under a fresh obs bundle."""
    rng = np.random.default_rng(5)
    trace = synth_interrupt_trace("det", n_chips=10, years=5.0, rng=rng)
    events = list(
        FaultSchedule.from_interrupt_trace(
            trace, horizon_s=400.0, kind="app_interrupt"
        ).events
    )
    events.append(FaultEvent(40.0, "server_crash", target=3))
    events.append(FaultEvent(70.0, "server_recover", target=3))
    sched = FaultSchedule(events, name="det")
    with obs_mod.use(obs_mod.Observability(name="det")) as o:
        res = run_faulted_checkpoint(
            PFSParams(redundancy="rs:4+2"),
            work_s=200.0,
            tau_s=20.0,
            ckpt_bytes=8 << 20,
            n_ranks=4,
            restart_s=2.0,
            faults=sched,
        )
        counters = o.metrics.snapshot()["counters"]
    faults = {k: v for k, v in counters.items() if k.startswith("faults.")}
    return res.makespan_s, faults


def test_same_fault_seed_same_makespan_and_counters():
    """The determinism contract: one seed, two runs, identical outcomes."""
    (makespan_a, faults_a) = _one_faulted_run()
    (makespan_b, faults_b) = _one_faulted_run()
    assert makespan_a == makespan_b
    assert faults_a == faults_b
    assert faults_a  # non-trivial: faults actually fired
    assert any(k.startswith("faults.injected") for k in faults_a)
