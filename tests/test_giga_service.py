"""Fault suite for the sharded GIGA+ metadata service.

Covers the failure modes the service must survive, not the happy path:
a metadata server crashing *mid-split* (the split must abort before its
commit — no lost or doubly-owned partitions), failover reassignment
through the membership registry, the park (silent-hang) crash flavor,
and a same-seed determinism pair asserting byte-identical JSONL traces
for the storm workload.
"""

import io

from repro import obs as obs_mod
from repro.faults import FaultEvent, FaultSchedule
from repro.giga import GigaService, ServiceParams, run_storm
from repro.net.params import FabricParams, LeafSpineParams
from repro.obs import Observability
from repro.sim import Simulator


# -- crash mid-split ----------------------------------------------------
def test_crash_mid_split_aborts_without_losing_partitions():
    """A reject-crash landing inside a split's relocation window aborts
    the split before its commit: no empty sibling, no doubly-owned or
    misfiled entries, and every create still lands exactly once."""
    # per_entry_move_s is huge so the 9th create opens a ~0.2s split
    # window at t≈3.6ms; the crash at 50ms is safely inside it.
    p = ServiceParams(
        n_servers=2, split_threshold=8, per_entry_move_s=0.05,
        failover_detect_s=0.01,
    )
    sim = Simulator()
    service = GigaService(sim, p)
    victim = service.map.owner(0)       # everything starts in partition 0
    client = service.client(0)

    def proc():
        for i in range(30):
            yield from service.client_create(client, f"s.{i}")

    sim.spawn(proc())
    sim.call_after(0.05, service.servers[victim].crash)
    sim.call_after(3.0, service.servers[victim].recover)
    sim.run()
    cnt = service.counters
    assert cnt["splits_aborted"] >= 1          # the mid-split crash bit
    assert cnt["crashes"] == 1 and cnt["recoveries"] == 1
    assert cnt["creates"] == 30                # zero creates lost
    service.check_invariants()                 # no lost/doubly-owned state
    # the overflowed partition eventually re-splits on the survivor
    assert cnt["splits"] >= 1
    names = {n for bucket in service.entries.values() for n in bucket}
    assert names == {f"s.{i}" for i in range(30)}


def test_park_crash_stalls_but_completes_the_split():
    """The park flavor models a hung (not dead) process: the in-flight
    split stalls with its server and commits after recovery — nothing
    aborts, nothing is lost."""
    p = ServiceParams(
        n_servers=1, split_threshold=8, per_entry_move_s=0.05,
        failover_detect_s=10.0,        # detection never fires in-window
    )
    sim = Simulator()
    service = GigaService(sim, p)
    client = service.client(0)

    def proc():
        for i in range(30):
            yield from service.client_create(client, f"s.{i}")

    sim.spawn(proc())
    sim.call_after(0.05, service.servers[0].crash, True)   # park=True
    sim.call_after(1.0, service.servers[0].recover)
    sim.run()
    cnt = service.counters
    assert cnt["splits_aborted"] == 0
    assert cnt["splits"] >= 1
    assert cnt["creates"] == 30
    assert sim.now >= 1.0                     # the storm really stalled
    service.check_invariants()


# -- failover reassignment ---------------------------------------------
def test_failover_reassigns_shards_via_registry():
    """Crash → heartbeat timeout → the registry moves the victim to the
    offline set, bumps the map version, and every partition's owner is
    online; recovery re-admits it the same way."""
    p = ServiceParams(n_servers=4, split_threshold=16, failover_detect_s=0.002)
    sim = Simulator()
    service = GigaService(sim, p)
    clients = [service.client(c) for c in range(4)]

    def proc(c):
        for i in range(60):
            yield from service.client_create(clients[c], f"f.{c}.{i}")

    for c in range(4):
        sim.spawn(proc(c))
    victim = service.map.owner(0)
    v0 = service.map.version
    sim.call_after(0.01, service.servers[victim].crash)
    sim.call_after(0.08, service.servers[victim].recover)
    sim.run()

    coord = service.coordinator
    assert coord.failovers == 1 and coord.rejoins == 1
    assert coord.map.version == v0 + 2             # out + back in
    assert coord.online == set(range(4)) and not coord.offline
    assert service.counters["creates"] == 240      # zero operations lost
    assert service.counters["dead_hops"] > 0       # clients did hit the body
    service.check_invariants()


def test_crash_recover_flip_inside_detection_window_is_noop():
    """A server that bounces back before the heartbeat timeout never
    leaves the ring: no failover, no map churn."""
    p = ServiceParams(n_servers=4, failover_detect_s=0.05)
    sim = Simulator()
    service = GigaService(sim, p)
    sim.call_after(0.01, service.servers[2].crash)
    sim.call_after(0.02, service.servers[2].recover)
    sim.run()
    assert service.coordinator.failovers == 0
    assert service.coordinator.map.version == 0
    assert service.coordinator.online == set(range(4))


def test_storm_rides_out_crash_through_fault_schedule():
    """End to end through repro.faults: the standard injector drives the
    service's crash/recover surface and the storm loses nothing."""
    faults = FaultSchedule([
        FaultEvent(at_s=0.01, kind="server_crash", target=1),
        FaultEvent(at_s=0.06, kind="server_recover", target=1),
    ])
    r = run_storm(4, 8, 40, params=ServiceParams(split_threshold=32),
                  faults=faults)
    assert r.creates == 8 * 40
    assert r.lookups == r.found == 8 * 40          # every lookup hits
    assert r.failovers == 1 and r.rejoins == 1
    assert r.map_version == 2


def test_slowdown_fault_stretches_the_storm():
    faults = FaultSchedule([
        FaultEvent(at_s=0.0, kind="disk_slowdown", target=0, value=8.0),
    ])
    slow = run_storm(2, 4, 30, params=ServiceParams(split_threshold=32),
                     faults=faults)
    fast = run_storm(2, 4, 30, params=ServiceParams(split_threshold=32))
    assert slow.creates == fast.creates == 120
    assert slow.create_phase_s > fast.create_phase_s


# -- fabric placement ---------------------------------------------------
def test_storm_on_finite_leafspine_fabric():
    """On a finite-buffer leaf/spine fabric the RPCs are real windowed
    flows: the storm completes, costs more than ideal, invariants hold."""
    fp = FabricParams(name="ls", buffer_pkts=64, seed=7,
                      leafspine=LeafSpineParams(n_racks=4))
    finite = run_storm(4, 8, 30,
                       params=ServiceParams(split_threshold=32, fabric=fp))
    ideal = run_storm(4, 8, 30, params=ServiceParams(split_threshold=32))
    assert finite.creates == ideal.creates == 240
    assert finite.create_phase_s > ideal.create_phase_s


# -- flight recorder ----------------------------------------------------
def _traced_storm() -> tuple[str, dict]:
    """One storm with crash/failover under a fresh bundle; returns the
    JSONL trace and the attrs of the first create span."""
    with obs_mod.use(Observability(name="giga-det")) as o:
        faults = FaultSchedule([
            FaultEvent(at_s=0.01, kind="server_crash", target=1),
            FaultEvent(at_s=0.05, kind="server_recover", target=1),
        ])
        run_storm(4, 6, 25, params=ServiceParams(split_threshold=16),
                  faults=faults, seed=3)
        buf = io.StringIO()
        o.tracer.export_jsonl(buf)
        first = next(s for s in o.tracer.spans if s.name == "giga.svc.create")
        return buf.getvalue(), dict(first.attrs)


def test_same_seed_storm_traces_byte_identically():
    (a, attrs_a), (b, attrs_b) = _traced_storm(), _traced_storm()
    assert a == b and a                            # byte-for-byte JSONL
    assert attrs_a == attrs_b
    assert attrs_a["rid"] == 1                     # rids restart per bundle


def test_spans_carry_redirect_and_retry_attrs():
    """Redirects and failover retries are visible per request in the
    flight recorder — the observability half of the tentpole."""
    with obs_mod.use(Observability(name="giga-attrs")) as o:
        faults = FaultSchedule([
            FaultEvent(at_s=0.005, kind="server_crash", target=0),
            FaultEvent(at_s=0.05, kind="server_recover", target=0),
        ])
        run_storm(4, 6, 25, params=ServiceParams(split_threshold=16),
                  faults=faults)
        spans = [s for s in o.tracer.spans if s.name.startswith("giga.svc.")]
        assert spans
        assert all(
            {"rid", "hops", "redirects", "retries"} <= set(s.attrs)
            for s in spans
        )
        assert any(s.attrs["redirects"] > 0 for s in spans)   # stale maps
        assert any(s.attrs["retries"] > 0 for s in spans)     # dead hops
