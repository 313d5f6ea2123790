"""Tests for the unified observability layer (repro.obs)."""

import json

import pytest

from repro import obs
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from repro.obs.clock import LogicalClock, SimClock
from repro.obs.report import (
    build_report,
    diff_reports,
    dumps_report,
    load_report,
    main as report_main,
    write_report,
)
from repro.obs.spans import Tracer


@pytest.fixture(autouse=True)
def _no_leaked_bundle():
    """Keep the global active bundle clean across tests."""
    obs.deactivate()
    yield
    obs.deactivate()


# ------------------------------------------------------------ registry
def test_registry_counter_gauge_roundtrip():
    reg = MetricsRegistry()
    c = reg.counter("io.bytes", rank=3)
    c.inc(100)
    c.inc(28)
    assert reg.counter("io.bytes", rank=3) is c
    assert c.value == 128
    g = reg.gauge("queue.depth")
    g.set(5)
    g.inc()
    g.dec(2)
    assert g.value == 4
    snap = reg.snapshot()
    assert snap["counters"] == {"io.bytes{rank=3}": 128.0}
    assert snap["gauges"] == {"queue.depth": 4.0}


def test_registry_rejects_type_conflicts():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_registry_value_reads_without_registering():
    reg = MetricsRegistry()
    assert reg.value("ops", kind="read") == 0.0
    assert reg.value("ops", default=-1.0, kind="read") == -1.0
    assert len(reg) == 0  # looking registered nothing
    reg.counter("ops", kind="read").inc(3)
    reg.gauge("depth").set(7)
    assert reg.value("ops", kind="read") == 3
    assert reg.value("depth") == 7
    reg.histogram("lat")
    with pytest.raises(TypeError):
        reg.value("lat")
    assert len(reg) == 3


def test_registry_snapshot_is_sorted_and_deterministic():
    def build(order):
        reg = MetricsRegistry()
        for name, labels in order:
            reg.counter(name, **labels).inc()
        return json.dumps(reg.snapshot(), sort_keys=True)

    a = build([("b", {}), ("a", {"r": 2}), ("a", {"r": 1})])
    b = build([("a", {"r": 1}), ("b", {}), ("a", {"r": 2})])
    assert a == b


# ------------------------------------------------------------ histogram
def test_histogram_bucket_edges_are_inclusive_upper_bounds():
    h = Histogram("lat", edges=(1.0, 2.0, 4.0))
    for x in (0.5, 1.0, 1.5, 2.0, 4.0, 5.0, 100.0):
        h.observe(x)
    # x <= 1 | 1 < x <= 2 | 2 < x <= 4 | overflow
    assert h.counts == [2, 2, 1, 2]
    assert h.count == 7
    assert h.min == 0.5 and h.max == 100.0
    assert h.mean == pytest.approx(sum((0.5, 1.0, 1.5, 2.0, 4.0, 5.0, 100.0)) / 7)


def test_histogram_rejects_bad_edges():
    with pytest.raises(ValueError):
        Histogram("h", edges=())
    with pytest.raises(ValueError):
        Histogram("h", edges=(2.0, 1.0))


def test_registry_histogram_default_buckets():
    reg = MetricsRegistry()
    h = reg.histogram("svc")
    assert h.edges == DEFAULT_LATENCY_BUCKETS
    h.observe(1e-7)
    assert h.counts[0] == 1


# ------------------------------------------------------------ spans
def test_span_context_manager_nesting_and_ordering():
    t = Tracer(LogicalClock())
    with t.span("outer") as outer:
        with t.span("mid") as mid:
            with t.span("inner") as inner:
                pass
        with t.span("mid2") as mid2:
            pass
    assert outer.parent_id is None
    assert mid.parent_id == outer.span_id
    assert inner.parent_id == mid.span_id
    assert mid2.parent_id == outer.span_id
    # ids are sequential in creation order
    assert [s.span_id for s in t.spans] == [1, 2, 3, 4]
    # children close before parents; logical clock orders the stamps
    assert inner.end < mid.end < outer.end
    assert t.nesting_depth() == 3


def test_span_explicit_parent_and_timestamps():
    t = Tracer(LogicalClock())
    root = t.start("run", at=0.0)
    child = t.start("op", parent=root, at=1.5, rank=7)
    child.finish(at=2.0)
    root.finish(at=3.0)
    assert child.parent_id == root.span_id
    assert child.duration == 0.5
    assert root.duration == 3.0
    with pytest.raises(ValueError):
        child.finish(at=4.0)  # double finish
    bad = t.start("x", at=5.0)
    with pytest.raises(ValueError):
        bad.finish(at=4.0)  # ends before start


def test_span_jsonl_export_and_tracelog_bridge(tmp_path):
    t = Tracer(LogicalClock())
    with t.span("phase", rank=1, nbytes=4096):
        pass
    sp = t.start("io", at=1.0, rank=2, op="write", nbytes=100)
    sp.finish(at=2.0)
    out = tmp_path / "spans.jsonl"
    with out.open("w") as fp:
        assert t.export_jsonl(fp) == 2
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert [row["name"] for row in lines] == ["phase", "io"]
    log = t.to_tracelog()
    ops = [(e.op, e.rank) for e in log]
    # span without op -> open/close pair; op span -> single event
    assert ops == [("open", 1), ("close", 1), ("write", 2)]
    assert log.total_bytes("write") == 100


def test_non_retaining_tracer_still_times():
    t = Tracer(LogicalClock(), retain=False)
    with t.span("x") as sp:
        pass
    assert sp.duration > 0
    assert t.spans == []


def test_sim_clock_reads_simulated_time():
    from repro.sim import Simulator, Timeout

    sim = Simulator()
    clock = SimClock(sim)

    def proc():
        yield Timeout(2.5)

    sim.spawn(proc())
    sim.run()
    assert clock.now() == 2.5


# ------------------------------------------------------------ reports
def _tiny_sim_job(name="job"):
    from repro.pfs import LUSTRE_LIKE
    from repro.plfs.simbridge import run_plfs
    from repro.workloads.patterns import n1_strided

    with obs.use(obs.Observability(name=name)) as o:
        run_plfs(LUSTRE_LIKE.with_servers(2), n1_strided(4, 16 * 1024, 2))
        return build_report(o)


def test_identical_runs_produce_byte_identical_reports():
    assert dumps_report(_tiny_sim_job()) == dumps_report(_tiny_sim_job())


def test_report_contents_from_sim_run():
    report = _tiny_sim_job()
    assert report["counters"]["sim.events_dispatched"] > 0
    assert any(k.startswith("pfs.client.bytes_written{") for k in report["counters"])
    assert any(k.startswith("pfs.server.service_s{") for k in report["histograms"])
    assert report["spans"]["distinct_nesting"] >= 3
    balance = report["io_balance"]["pfs.client.bytes_written/client"]
    assert balance["participants"] == 4
    assert balance["imbalance"] == pytest.approx(1.0)


def test_report_cli_roundtrip_and_diff(tmp_path, capsys):
    report = _tiny_sim_job()
    a = write_report(report, tmp_path / "a.json")
    assert load_report(a) == report
    assert report_main([str(a)]) == 0
    assert "job report" in capsys.readouterr().out
    # identical files diff clean
    b = write_report(report, tmp_path / "b.json")
    assert report_main([str(a), str(b)]) == 0
    # a perturbed report diffs dirty
    mutated = json.loads(dumps_report(report))
    mutated["counters"]["sim.events_dispatched"] += 1
    write_report(mutated, b)
    assert report_main([str(a), str(b)]) == 1
    assert "sim.events_dispatched" in capsys.readouterr().out
    assert diff_reports(report, report) == []


def test_report_selftest():
    from repro.obs.report import selftest

    assert selftest(verbose=False) == 0


# ------------------------------------------------------------ integration
def test_metasearch_wall_time_is_deterministic_under_obs():
    import numpy as np

    from repro.metasearch import FlatScanIndex, parse_query, synth_namespace

    records = synth_namespace(500, np.random.default_rng(3))
    q = parse_query("owner=1")
    with obs.use(obs.Observability()):
        _, s1 = FlatScanIndex(records).search(q)
        _, s2 = FlatScanIndex(records).search(q)
    assert s1.wall_s == s2.wall_s == 1.0  # logical clock: exactly one tick
    # without an active bundle the wall-clock fallback still times
    _, s3 = FlatScanIndex(records).search(q)
    assert s3.wall_s > 0.0


def test_ior_real_records_spans_under_obs(tmp_path):
    from repro.plfs.vfs import Plfs
    from repro.workloads.ior import IORConfig, run_ior_real

    with obs.use(obs.Observability(name="ior")) as o:
        cfg = IORConfig(n_ranks=2, transfer_size=256, segments=2)
        res = run_ior_real(cfg, Plfs(tmp_path / "mnt"))
    assert res.verified and res.write_s > 0 and res.read_s > 0
    names = {s.name for s in o.tracer.finished_spans()}
    assert {"ior.write_phase", "ior.read_phase"} <= names
    # per-writer PLFS byte counters were recorded
    assert any(
        k.startswith("plfs.bytes_written{")
        for k in o.metrics.snapshot()["counters"]
    )


def test_incast_metrics_recorded():
    from repro.net.incast import ONE_GE, simulate_incast

    with obs.use(obs.Observability()) as o:
        simulate_incast(ONE_GE, 8, n_blocks=2)
    snap = o.metrics.snapshot()
    assert "net.incast.goodput_Bps{config=1GE,servers=8}" in snap["gauges"]
    assert "net.incast.timeouts{config=1GE,servers=8}" in snap["counters"]


def test_stats_shim_mirrors_into_registry():
    from repro.sim.stats import Counter as SimCounter

    reg = MetricsRegistry()
    c = SimCounter(registry=reg, prefix="comp.")
    c.add("ops", 2)
    c.add("ops")
    assert c["ops"] == 3  # the component-local store the model reads
    assert reg.counter("comp.ops").value == 3


def test_stats_shim_and_request_minting_hold_their_series(monkeypatch):
    """One registry lookup per distinct key, not one per increment."""
    from repro.sim.stats import Counter as SimCounter

    lookups = []
    real_get = MetricsRegistry._get

    def counting_get(self, cls, name, labels, **kwargs):
        lookups.append((name, tuple(sorted(labels.items()))))
        return real_get(self, cls, name, labels, **kwargs)

    monkeypatch.setattr(MetricsRegistry, "_get", counting_get)
    o = obs.Observability()
    c = SimCounter(registry=o.metrics, prefix="comp.", labels={"server": 3})
    keys = ("creates", "lookups", "redirects")
    for i in range(10_000):
        c.add(keys[i % 3])
        o.request_context(tenant="a" if i % 2 else "b")
    assert len(lookups) == len(set(lookups)) == 3 + 2
    assert o.metrics.value("comp.creates", server=3) == c["creates"] == 3334
    assert o.metrics.value("obs.requests", tenant="a") == 5000


def test_observability_off_means_no_metrics():
    from repro.pfs import LUSTRE_LIKE
    from repro.plfs.simbridge import run_plfs
    from repro.workloads.patterns import n1_strided

    result = run_plfs(LUSTRE_LIKE.with_servers(2), n1_strided(2, 8192, 2))
    assert result.makespan_s > 0  # runs fine with instrumentation dormant
