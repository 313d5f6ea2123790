"""Flight-recorder tests: request contexts, critical path, kernel totals.

Covers the three tentpole pillars (docs/observability.md) plus the
ISSUE-6 satellites: span nesting across fabric sim processes,
obs-bundle isolation under request-context propagation (same-seed
determinism pair, byte-identical traces) and report ``--json`` exit
codes.  The x17-style collective test pins the acceptance criterion:
``critical_path`` over a request's span tree sums to the measured
makespan within 1%.
"""

import dataclasses
import io
import json

import pytest

from repro import obs as obs_mod
from repro.obs import (
    Observability,
    PathSegment,
    RequestContext,
    Tracer,
    critical_path,
    critical_path_duration,
    request_spans,
    request_timeline,
)
from repro.sim import Simulator, Timeout


# -- request contexts ---------------------------------------------------
def test_request_ids_are_sequential_per_bundle():
    o = Observability(name="rids")
    c1 = o.request_context(op="write", origin="pfs")
    c2 = o.request_context(op="read", tenant="batch", origin="pfs")
    assert (c1.request_id, c2.request_id) == (1, 2)
    assert c2.tenant == "batch"
    assert o.metrics.counter("obs.requests", tenant="default").value == 1.0
    # a fresh bundle restarts the sequence — same-seed runs trace identically
    assert Observability(name="other").request_context().request_id == 1


def test_request_context_span_attrs_and_dict():
    ctx = RequestContext(7, tenant="t0", op="write", origin="pfs")
    assert ctx.span_attrs() == {"rid": 7, "tenant": "t0"}
    ctx.drops_pkts += 3
    ctx.rtos += 1
    d = dataclasses.asdict(ctx)
    assert d["drops_pkts"] == 3 and d["rtos"] == 1 and d["retries"] == 0


# -- critical path ------------------------------------------------------
def _span(tr, name, t0, t1, parent=None, **attrs):
    s = tr.start(name, parent=parent, at=t0, **attrs)
    s.finish(at=t1)
    return s


def test_critical_path_hand_built_tree():
    """root [0,10]; child a [0,4], child b [2,9]; grandchild c [2,5] under b.

    Backward sweep: root owns [9,10]; b owns [5,9]; c owns [2,5]
    (last-finishing child of b before t=5... actually of b's window);
    then b's remaining [2,2] is empty, and a owns [0,2]... a ends at 4,
    but the cursor continues from b.start=2: a is the last child ending
    in (0, 2]?  a ends at 4 > 2, clamped — root owns [0,2] itself unless
    a child ends within.  The invariant that matters: segments tile
    [0, 10] exactly and are chronological.
    """
    tr = Tracer()
    root = _span(tr, "root", 0.0, 10.0)
    _span(tr, "a", 0.0, 4.0, parent=root)
    b = _span(tr, "b", 2.0, 9.0, parent=root)
    _span(tr, "c", 2.0, 5.0, parent=b)
    segs = critical_path(tr)
    assert segs[0].t0 == 0.0 and segs[-1].t1 == 10.0
    for prev, nxt in zip(segs, segs[1:]):
        assert prev.t1 == nxt.t0  # contiguous tiling, no gaps or overlaps
    assert critical_path_duration(segs) == pytest.approx(10.0)
    names = [s.name for s in segs]
    assert "b" in names and "c" in names and names[-1] == "root"


def test_critical_path_single_span_and_empty():
    tr = Tracer()
    assert critical_path(tr) == []
    _span(tr, "only", 1.0, 3.0)
    segs = critical_path(tr)
    assert segs == [PathSegment(1, "only", 1.0, 3.0)]
    assert segs[0].duration == pytest.approx(2.0)


def test_critical_path_sums_to_root_duration_on_pfs_trace():
    """A real SimPFS write trace: segments tile the edge span exactly."""
    from repro.pfs.params import PFSParams
    from repro.pfs.system import SimPFS

    with obs_mod.use(Observability(name="cp-pfs")) as o:
        sim = Simulator()
        pfs = SimPFS(sim, PFSParams(n_servers=4))

        def writer():
            yield from pfs.op_create(0, "/f")
            yield from pfs.op_write(0, "/f", 0, 1 << 20)

        sim.spawn(writer())
        sim.run()
        root = next(s for s in o.tracer.spans if s.name == "pfs.write")
        segs = critical_path(o.tracer, root=root)
        assert critical_path_duration(segs) == pytest.approx(root.duration)
        # the server leg must appear on the path, not just the edge span
        assert any(seg.name == "pfs.server.request" for seg in segs)


def test_x17_critical_path_within_1pct_of_makespan():
    """Acceptance criterion: on the x17 collective benchmark, the active
    bundle's per-request critical path sums to within 1% of the measured
    makespan."""
    from repro.collective.twophase import CollectiveConfig, run_collective_write
    from repro.net.params import FabricParams
    from repro.pfs.params import PFSParams

    fabric = FabricParams(name="1GE-32pkt", buffer_pkts=32, min_rto_s=0.2, seed=3)
    with obs_mod.use(Observability(name="x17")) as o:
        result = run_collective_write(
            CollectiveConfig(n_ranks=16, n_aggregators=4),
            PFSParams(n_servers=8, stripe_unit=64 * 1024, fabric=fabric),
            scheme="fabric-aware",
        )
        roots = [s for s in o.tracer.spans if s.name == "collective.write"]
        assert len(roots) == 1 and roots[0].attrs["rid"] == 1
        segs = critical_path(o.tracer, root=roots[0])
        total = critical_path_duration(segs)
        assert abs(total - result.makespan_s) <= 0.01 * result.makespan_s
        # every span of the collective belongs to request 1, including
        # fabric transfers and PFS server legs reached via parent chains
        spans = request_spans(o.tracer, 1)
        names = {s.name for s in spans}
        assert {"collective.write", "collective.phase2", "pfs.write"} <= names


def test_request_spans_inherit_through_parent_chain():
    tr = Tracer()
    root = _span(tr, "edge", 0.0, 5.0, rid=3, tenant="t")
    mid = _span(tr, "mid", 1.0, 4.0, parent=root)
    _span(tr, "leaf", 2.0, 3.0, parent=mid)
    _span(tr, "other", 0.0, 1.0, rid=4)
    got = [s.name for s in request_spans(tr, 3)]
    assert got == ["edge", "mid", "leaf"]


def test_request_timeline_bridges_to_cview():
    from repro.tracing.cview import cview_bins

    tr = Tracer()
    root = _span(tr, "pfs.write", 0.0, 4.0, rid=1, tenant="default", client=2)
    _span(tr, "pfs.xfer", 1.0, 2.0, parent=root, client=2)
    log = request_timeline(tr, 1, rank_key="client")
    assert len(log) > 0
    grid = cview_bins(log, n_bins=4)
    assert grid["calls"].shape == (3, 4)  # ranks 0..2 dense, rank 2 present


# -- fabric drop/RTO attribution ---------------------------------------
def test_fabric_drops_attribute_to_request_and_tenant():
    """A fan-in overwhelming a tiny port attributes its drops to the ctx."""
    from repro.net import FabricParams, Link, Topology

    fabric = FabricParams(name="tiny", buffer_pkts=4, min_rto_s=1e-3, seed=1)
    with obs_mod.use(Observability(name="attr")) as o:
        sim = Simulator()
        topo = Topology(sim, 2, Link(125e6), Link(125e6), fabric=fabric)
        ctx = o.request_context(op="write", tenant="acme", origin="test")

        def flow():
            yield from topo.to_server(0, 64 * 1500, ctx=ctx)

        for _ in range(4):
            sim.spawn(flow())
        sim.run()
        assert ctx.drops_pkts > 0
        snap = o.metrics.snapshot()["counters"]
        assert snap["net.fabric.tenant.drops_pkts{tenant=acme}"] == ctx.drops_pkts
        port_drops = snap["net.fabric.drops_pkts{port=server0}"]
        assert port_drops == topo.server_ports[0].total_drops_pkts == ctx.drops_pkts
        if ctx.rtos:
            assert snap["net.fabric.tenant.rtos{tenant=acme}"] == ctx.rtos


def test_switchport_stats_and_blackout_totals():
    from repro.net import FabricParams, Link, SwitchPort

    port = SwitchPort(Link(125e6), FabricParams(buffer_pkts=8), name="p0")
    port.set_down(True)
    port.set_down(True)   # idempotent: still one transition
    port.set_down(False)
    port.set_down(True)
    port.record_drops(5)
    st = port.stats()
    assert st["blackouts"] == port.total_blackouts == 2
    assert st["drops_pkts"] == 5 and st["down"] is True and st["port"] == "p0"


# -- span nesting across fabric sim processes (satellite) ---------------
def test_span_nesting_spans_fabric_processes():
    """pfs.write → pfs.server.request → fabric.xfer nest across the
    client process, the server process, and the windowed flow."""
    from repro.net.params import FabricParams
    from repro.pfs.params import PFSParams
    from repro.pfs.system import SimPFS

    fabric = FabricParams(name="t", buffer_pkts=32, min_rto_s=1e-3, seed=5)
    with obs_mod.use(Observability(name="nest")) as o:
        sim = Simulator()
        pfs = SimPFS(sim, PFSParams(n_servers=4, fabric=fabric))

        def writer():
            yield from pfs.op_create(0, "/n")
            yield from pfs.op_write(0, "/n", 0, 1 << 20)

        sim.spawn(writer())
        sim.run()
        by_id = {s.span_id: s for s in o.tracer.spans}
        xfers = [s for s in o.tracer.spans if s.name == "fabric.xfer"]
        assert xfers, "finite fabric must trace transfers"
        chain = []
        cur = xfers[0]
        while cur is not None:
            chain.append(cur.name)
            cur = by_id.get(cur.parent_id) if cur.parent_id is not None else None
        assert chain == ["fabric.xfer", "pfs.server.request", "pfs.write"]
        assert o.tracer.nesting_depth() >= 3


# -- obs-bundle isolation + same-seed determinism (satellite) -----------
def _traced_run() -> tuple[str, int]:
    """One seeded finite-fabric PFS run; returns (JSONL trace, first rid)."""
    from repro.net.params import FabricParams
    from repro.pfs.params import PFSParams
    from repro.pfs.system import SimPFS

    fabric = FabricParams(name="d", buffer_pkts=16, min_rto_s=1e-3, seed=13)
    with obs_mod.use(Observability(name="det")) as o:
        sim = Simulator()
        pfs = SimPFS(sim, PFSParams(n_servers=4, fabric=fabric))

        def writer(c):
            yield from pfs.op_create(c, f"/d{c}")
            yield from pfs.op_write(c, f"/d{c}", 0, 256 * 1024)

        for c in range(3):
            sim.spawn(writer(c))
        sim.run()
        buf = io.StringIO()
        o.tracer.export_jsonl(buf)
        first = next(s for s in o.tracer.spans if "rid" in s.attrs)
        return buf.getvalue(), first.attrs["rid"]


def test_same_seed_runs_trace_byte_identically():
    (a, rid_a), (b, rid_b) = _traced_run(), _traced_run()
    assert a == b and a  # byte-for-byte, and non-empty
    assert rid_a == rid_b == 1  # rid sequences restart per bundle


def test_request_minting_isolated_between_bundles():
    o1, o2 = Observability(name="one"), Observability(name="two")
    with obs_mod.use(o1):
        o1.request_context()
        o1.request_context()
    with obs_mod.use(o2):
        assert o2.request_context().request_id == 1
    assert o1._next_rid == 2  # untouched by o2's minting


# -- kernel totals (pillar 2) -------------------------------------------
def test_event_stats_without_bundle():
    sim = Simulator()

    def p():
        yield Timeout(1.0)
        yield Timeout(1.0)

    sim.spawn(p(), name="w1")
    sim.spawn(p(), name="w2")
    sim.run()
    st = sim.event_stats()
    assert st["events_scheduled"] == st["events_dispatched"] == sim.events_scheduled
    assert st["processes_spawned"] == st["processes_finished"] == 2
    assert st["max_heap_depth"] >= 2
    assert st["pending_events"] == 0 and st["run_slices"] == 1
    assert st["run_wall_s"] > 0 and st["events_per_s"] > 0
    assert st["now"] == pytest.approx(2.0)


def test_heap_gauge_with_bundle():
    with obs_mod.use(Observability(name="gauge")) as o:
        sim = Simulator()

        def p():
            yield Timeout(1.0)

        for i in range(5):
            sim.spawn(p(), name=f"g{i}")
        sim.run()
        g = o.metrics.snapshot()["gauges"]["sim.max_heap_depth"]
        assert g == sim.max_heap_depth >= 5


# -- report --json (satellite) ------------------------------------------
def test_report_json_single_and_diff_exit_codes(tmp_path, capsys):
    from repro.obs.report import main as report_main

    with obs_mod.use(Observability(name="rj")) as o:
        o.metrics.counter("x").inc(3)
        report = o.report()
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(report, sort_keys=True))
    report["counters"]["x"] = 4.0
    b.write_text(json.dumps(report, sort_keys=True))
    assert report_main(["--json", str(a)]) == 0
    assert json.loads(capsys.readouterr().out)["job"] == "rj"
    assert report_main(["--json", str(a), str(a)]) == 0
    assert json.loads(capsys.readouterr().out)["identical"] is True
    assert report_main(["--json", str(a), str(b)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["identical"] is False and out["n_diffs"] == 1
    assert out["diffs"][0]["path"] == "counters.x"


# -- a recorder that stays on at storm scale (ISSUE 18) -----------------
STORM_CLIENTS = 2000
STORM_RPC_BYTES = 512


def _fluid_storm(n_clients: int = STORM_CLIENTS, with_ctx_client=None):
    """Hot-server RPC storm in fluid mode under a fresh bundle.

    Every flow is anonymous, except that ``with_ctx_client``'s request
    leg carries a request context.  Returns ``(bundle, topology, ctx)``.
    """
    from repro.net import FabricParams, Link, Topology

    fabric = FabricParams(name="storm", buffer_pkts=64, min_rto_s=0.2, seed=7, mode="fluid")
    with obs_mod.use(Observability(name="storm")) as o:
        sim = Simulator()
        topo = Topology(sim, n_clients, Link(112e6), Link(112e6), fabric=fabric)
        ctx = None
        if with_ctx_client is not None:
            ctx = o.request_context(op="rpc", tenant="acme", origin="test")

        def client(c):
            mine = ctx if c == with_ctx_client else None
            yield from topo.to_server(0, STORM_RPC_BYTES, src_client=c, ctx=mine)
            yield Timeout(0.3e-3)
            yield from topo.to_client(c, STORM_RPC_BYTES, src_server=0)

        for c in range(n_clients):
            sim.spawn(client(c))
        sim.run()
    return o, topo, ctx


def _recorder_bytes(o) -> str:
    buf = io.StringIO()
    o.tracer.export_jsonl(buf)
    return buf.getvalue() + json.dumps(o.metrics.snapshot(), sort_keys=True)


def _assert_series_iff_recorded(o, ports) -> None:
    """Per port: a registry series exists exactly when its always-on total
    is non-zero, and then it equals that total."""
    counters = o.metrics.snapshot()["counters"]
    for port in ports:
        totals = port.stats()
        for what in ("drops_pkts", "timeouts", "retransmits", "bytes", "blackouts"):
            key = f"net.fabric.{what}{{port={port.name}}}"
            assert (key in counters) == (totals[what] != 0), key
            assert counters.get(key, 0) == totals[what], key


def test_storm_recording_cost_follows_what_happened():
    """Anonymous flows share cohort spans and idle ports register nothing:
    the parent recorded 4,000 spans and >= 18,000 series for this run."""
    o, topo, _ = _fluid_storm()
    n = STORM_CLIENTS
    assert len(o.metrics) <= n + 16
    spans = o.tracer.spans
    assert len(spans) <= 100
    assert all(s.name == "fabric.xfer" and s.finished for s in spans)
    assert sum(s.attrs["n_flows"] for s in spans) == 2 * n
    assert sum(s.attrs["nbytes"] for s in spans) == 2 * n * STORM_RPC_BYTES
    xfer_s = o.metrics.snapshot()["histograms"]["net.fabric.xfer_s{hops=1}"]
    assert xfer_s["count"] == 2 * n
    # a cohort ends with its last member, so the slowest flow of the run
    # is the end of the longest cohort
    assert xfer_s["max"] == pytest.approx(max(s.duration for s in spans))


def test_series_exist_iff_recorded_on_both_engines():
    from repro.net.params import FabricParams, LeafSpineParams
    from repro.pfs.params import PFSParams
    from repro.pfs.system import SimPFS

    o, topo, _ = _fluid_storm()
    ports = topo.server_ports + [topo.client_port(c) for c in range(STORM_CLIENTS)]
    _assert_series_iff_recorded(o, ports)
    assert topo.server_ports[0].total_drops_pkts > 0     # the storm did overflow
    assert topo.server_ports[1].total_bytes == 0         # and most ports stayed idle

    fabric = FabricParams(
        name="ckpt", buffer_pkts=8, min_rto_s=1e-3, seed=5,
        leafspine=LeafSpineParams(n_racks=2, oversubscription=4.0),
    )
    with obs_mod.use(Observability(name="ckpt")) as o:
        sim = Simulator()
        pfs = SimPFS(sim, PFSParams(n_servers=4, stripe_unit=64 * 1024, fabric=fabric))

        def writer(c):
            yield from pfs.op_create(c, f"/ckpt/{c}")
            yield from pfs.op_write(c, f"/ckpt/{c}", 0, 512 * 1024)

        for c in range(8):
            sim.spawn(writer(c))
        sim.run()
    topo = pfs.topology
    ports = topo.server_ports + topo.leaf_up + topo.leaf_down
    assert sum(p.total_drops_pkts for p in ports) > 0
    _assert_series_iff_recorded(o, ports)
    # the per-resource histograms follow the same rule: the ideal client
    # NICs served transfers, the never-used client switch ports did not
    hists = o.metrics.snapshot()["histograms"]
    assert "sim.resource.wait_s{resource=client0.nic}" in hists
    assert all(h["count"] > 0 for h in hists.values())


def test_request_scoped_flow_keeps_its_own_span_inside_a_burst():
    """One flow with a ctx among 2,000 anonymous same-instant flows."""
    o, topo, ctx = _fluid_storm(with_ctx_client=5)
    own = [s for s in o.tracer.spans if "rid" in s.attrs]
    assert len(own) == 1
    span = own[0]
    assert span.attrs == {"port": "server0", "nbytes": STORM_RPC_BYTES, "hops": 1,
                          "rid": ctx.request_id, "tenant": "acme"}
    assert request_spans(o.tracer, ctx.request_id) == [span]
    cohorts = [s for s in o.tracer.spans if "n_flows" in s.attrs]
    assert sum(s.attrs["n_flows"] for s in cohorts) == 2 * STORM_CLIENTS - 1
    # the burst it entered with is one cohort, starting at the same instant
    burst = next(s for s in cohorts if s.start == span.start)
    assert burst.attrs["n_flows"] == STORM_CLIENTS - 1


def test_request_scoped_traces_equal_the_parents():
    """Every flow of a SimPFS run is request-scoped, so its trace is the
    pre-cohort one byte for byte (digest taken at the parent commit)."""
    import hashlib

    trace, _ = _traced_run()
    assert hashlib.sha256(trace.encode()).hexdigest() == (
        "d9815617acb59a3d61f09c340c5e47fffa09c886e0f030a3228dff82a9dc4bda"
    )
    assert '"n_flows"' not in trace


#: sha256 of the JSONL spans plus the metric snapshot of a small Fig-8
#: ``speedup`` run, by fabric buffer (``None`` is the ideal fabric)
SPEEDUP_TRACE_PINS = {
    None: "e323355343ccadd78fce27e9d26bdca716a3327342e27c3ae54a8a9360801dd2",
    16: "b444983e8c38dd9ed4395b07c4095dff182249f335918452ae23cf264e8e603e",
}


@pytest.mark.parametrize("buffer_pkts", list(SPEEDUP_TRACE_PINS))
def test_speedup_trace_pinned(buffer_pkts):
    """The direct and PLFS checkpoint drivers record the same spans and
    metrics, byte for byte, as when each runner built its own harness."""
    import hashlib

    from repro.net.params import FabricParams
    from repro.pfs import LUSTRE_LIKE
    from repro.plfs.simbridge import speedup
    from repro.workloads.patterns import n1_strided

    params = LUSTRE_LIKE.with_servers(4)
    if buffer_pkts is not None:
        params = params.with_fabric(
            FabricParams(name="pin", buffer_pkts=buffer_pkts, min_rto_s=1e-3, seed=13)
        )
    with obs_mod.use(Observability(name="fig8-pin")) as o:
        speedup(params, n1_strided(8, 47 * 1024, 4))
    digest = hashlib.sha256(_recorder_bytes(o).encode()).hexdigest()
    assert digest == SPEEDUP_TRACE_PINS[buffer_pkts]


def test_storm_recordings_are_byte_identical_across_runs():
    a, b = _recorder_bytes(_fluid_storm()[0]), _recorder_bytes(_fluid_storm()[0])
    assert a == b and a

    from repro.giga.service import ServiceParams, run_storm

    def giga() -> str:
        with obs_mod.use(Observability(name="giga")) as o:
            run_storm(4, 8, 40, params=ServiceParams(split_threshold=16), seed=3)
        return _recorder_bytes(o)

    a, b = giga(), giga()
    assert a == b and a
