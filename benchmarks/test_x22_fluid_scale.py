"""X22 — fluid fabric mode at 100k–1M clients: the scale the exact engine can't reach.

The ROADMAP's metadata-plane and QoS items all want simulated
populations ~1000x the exact windowed engine's comfort zone.  X22
demonstrates the fluid mode (``FabricParams.mode="fluid"``) earning
that reach on the workload that motivated it — a metadata-RPC storm
against one hot server — plus an incast fan-in sweep far past where
per-packet simulation is feasible.

Methodology for the speedup claim: the exact engine's event count on
the hot-server storm is quadratic in the client count (each RTO
generation replays the whole backlog), so running exact mode at 100k
clients is not an option.  We fit ``events = a*n + b*n^2`` on exact
runs at 1k/2k/4k clients, convert events to wall-clock with the
measured us/event from those same runs, and compare the extrapolated
exact wall time against the *measured* fluid wall time.  Acceptance
(ISSUE 10): >= 50x at >= 100k clients.

The fluid makespan itself is pinned against closed-form physics: one
hot server admits ``round_capacity_pkts`` single-packet RPCs per
200 ms RTO generation, so the storm takes ``~ n / capacity * rto``
simulated seconds — at 100k clients the fluid engine reproduces that
to within a fraction of a percent while dispatching ~6 events per
client instead of O(n^2).

Every size runs under the conftest's always-on flight recorder, the
fits and the 200k / 1M / incast-sweep runs included: the storm's flows
carry no request context, so flows entering the fabric at one instant
share one ``fabric.xfer`` cohort span and a port registers a metric
series only once it has something to record (see "What the recorder
costs" in ``docs/observability.md``).  The wall-clock numbers therefore
include the recorder, on both sides of the speedup ratio.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from benchmarks.conftest import print_table
from repro.net import FabricParams, Link, Topology
from repro.sim import Simulator, Timeout

FAB = FabricParams(name="storm", buffer_pkts=64, min_rto_s=0.2, seed=7)
RPC_BYTES = 512
SERVICE_S = 0.3e-3
BLOCK = 64 * 1024

#: exact-mode anchor sizes for the quadratic event-count fit
FIT_SIZES = (1000, 2000, 4000)


def metadata_storm(n_clients: int, n_servers: int, mode: str):
    """The x20 shape reduced to its fabric core: RPC in, service, RPC out.

    Every client fires at t=0 against ``c % n_servers``; with
    ``n_servers=1`` this is the hot-server storm whose exact-mode event
    count grows quadratically (RTO generations replay the backlog).
    """
    fabric = replace(FAB, mode=mode)
    sim = Simulator()
    topo = Topology(sim, n_clients, Link(112e6), Link(112e6), fabric=fabric)
    done = [0]

    def client(c):
        s = c % n_servers
        yield from topo.to_server(s, RPC_BYTES, src_client=c)
        yield Timeout(SERVICE_S)
        yield from topo.to_client(c, RPC_BYTES, src_server=s)
        done[0] += 1

    t0 = time.perf_counter()
    for c in range(n_clients):
        sim.spawn(client(c))
    sim.run()
    wall = time.perf_counter() - t0
    assert done[0] == n_clients
    return {
        "makespan_s": float(sim.now),
        "wall_s": wall,
        "events": sim.event_stats()["events_dispatched"],
    }


def incast_fanin(n_senders: int, mode: str):
    """Synchronized 64 KiB fan-in to one client port (the Fig-9 shape)."""
    fabric = replace(FAB, mode=mode)
    sim = Simulator()
    topo = Topology(sim, n_senders, Link(112e6), Link(112e6), fabric=fabric)
    for s in range(n_senders):
        sim.spawn(topo.to_client(0, BLOCK, src_server=s))
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    port = topo.client_port(0)
    assert port.total_bytes == n_senders * BLOCK  # nothing lost to the model
    return {
        "makespan_s": float(sim.now),
        "goodput_MBps": n_senders * BLOCK / sim.now / 1e6,
        "wall_s": wall,
        "events": sim.event_stats()["events_dispatched"],
    }


def exact_wall_model():
    """Fit exact-mode wall cost: events = a*n + b*n^2, at measured us/event."""
    pts = [metadata_storm(n, 1, "exact") for n in FIT_SIZES]
    A = np.array([[n, n * n] for n in FIT_SIZES], dtype=float)
    y = np.array([p["events"] for p in pts], dtype=float)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    s_per_event = sum(p["wall_s"] for p in pts) / sum(p["events"] for p in pts)

    def predict_wall_s(n: int) -> float:
        return (coef[0] * n + coef[1] * n * n) * s_per_event

    return predict_wall_s, pts


def test_x22_storm_smoke(job_observability):
    """CI smoke: at 2k clients both modes agree; fluid slashes events."""
    exact = metadata_storm(2000, 1, "exact")
    fluid = metadata_storm(2000, 1, "fluid")
    ratio = fluid["makespan_s"] / exact["makespan_s"]
    print_table(
        "X22 smoke: 2k-client hot-server storm, exact vs fluid",
        ["metric", "exact", "fluid"],
        [
            ["makespan (s)", f"{exact['makespan_s']:.3f}", f"{fluid['makespan_s']:.3f}"],
            ["events dispatched", exact["events"], fluid["events"]],
            ["wall (s)", f"{exact['wall_s']:.2f}", f"{fluid['wall_s']:.2f}"],
            ["makespan ratio", "-", f"{ratio:.4f}"],
        ],
        widths=[20, 12, 12],
    )
    assert abs(ratio - 1.0) <= 0.10, ratio
    # the event gap is quadratic in n — modest at smoke scale, ~100x at 100k
    assert fluid["events"] < exact["events"] / 2


def test_x22_incast_smoke(job_observability):
    """CI smoke: fluid incast tracks exact at 32 senders, runs at 1024."""
    exact = incast_fanin(32, "exact")
    fluid = incast_fanin(32, "fluid")
    ratio = fluid["makespan_s"] / exact["makespan_s"]
    assert abs(ratio - 1.0) <= 0.10, ratio
    big = incast_fanin(1024, "fluid")
    # collapse physics at scale: goodput pinned far below the 112 MB/s
    # line rate by 200 ms RTO stalls, and events stay ~3 per sender
    assert big["goodput_MBps"] < 40.0
    assert big["events"] < 1024 * 8
    print_table(
        "X22 smoke: synchronized incast fan-in",
        ["senders", "mode", "makespan (s)", "goodput (MB/s)", "events"],
        [
            [32, "exact", f"{exact['makespan_s']:.3f}", f"{exact['goodput_MBps']:.1f}", exact["events"]],
            [32, "fluid", f"{fluid['makespan_s']:.3f}", f"{fluid['goodput_MBps']:.1f}", fluid["events"]],
            [1024, "fluid", f"{big['makespan_s']:.3f}", f"{big['goodput_MBps']:.1f}", big["events"]],
        ],
        widths=[8, 6, 13, 15, 9],
    )


@pytest.mark.slow
def test_x22_200k_speedup(run_once, job_observability):
    """The headline: 200k-client storm, >= 50x over extrapolated exact."""
    predict_wall_s, pts = exact_wall_model()
    fluid = run_once(metadata_storm, 200_000, 1, "fluid")
    exact_wall = predict_wall_s(200_000)
    speedup = exact_wall / fluid["wall_s"]
    # the simulated result itself is pinned by closed-form physics:
    # ceil(n / round_capacity) RTO generations of 200 ms each
    port_cap = 71  # buffer 64 + one RTT of drain at 112 MB/s
    expected = (200_000 // port_cap) * FAB.min_rto_s
    print_table(
        "X22: 200k-client hot-server storm (fluid) vs extrapolated exact",
        ["metric", "value"],
        [
            ["exact events @1k/2k/4k", " / ".join(str(p["events"]) for p in pts)],
            ["fluid makespan (s)", f"{fluid['makespan_s']:.1f}"],
            ["closed-form makespan (s)", f"{expected:.1f}"],
            ["fluid events", fluid["events"]],
            ["fluid wall (s)", f"{fluid['wall_s']:.1f}"],
            ["extrapolated exact wall (s)", f"{exact_wall:.1f}"],
            ["speedup", f"{speedup:.1f}x"],
        ],
        widths=[28, 24],
    )
    assert abs(fluid["makespan_s"] / expected - 1.0) < 0.05
    assert speedup >= 50.0, speedup


@pytest.mark.slow
def test_x22_million_client_storm(job_observability):
    """The ROADMAP target: one million clients in one simulation."""
    fluid = metadata_storm(1_000_000, 1, "fluid")
    port_cap = 71
    expected = (1_000_000 // port_cap) * FAB.min_rto_s
    print_table(
        "X22: 1M-client hot-server storm (fluid mode)",
        ["metric", "value"],
        [
            ["makespan (s)", f"{fluid['makespan_s']:.1f}"],
            ["closed-form makespan (s)", f"{expected:.1f}"],
            ["events dispatched", fluid["events"]],
            ["events per client", f"{fluid['events'] / 1e6:.2f}"],
            ["wall (s)", f"{fluid['wall_s']:.1f}"],
        ],
        widths=[26, 16],
    )
    assert abs(fluid["makespan_s"] / expected - 1.0) < 0.05
    # ~6 events per client; the exact engine would need O(n^2)
    assert fluid["events"] < 8 * 1_000_000


@pytest.mark.slow
def test_x22_incast_sweep(job_observability):
    """Incast fan-in far past exact-mode feasibility: 1024 -> 8192 senders."""
    rows = []
    results = {}
    for n in (1024, 2048, 4096, 8192):
        r = incast_fanin(n, "fluid")
        results[n] = r
        rows.append([n, f"{r['makespan_s']:.2f}", f"{r['goodput_MBps']:.1f}",
                     r["events"], f"{r['wall_s']:.2f}"])
    print_table(
        "X22: fluid incast sweep (64 KiB per sender, one receiver)",
        ["senders", "makespan (s)", "goodput (MB/s)", "events", "wall (s)"],
        rows,
        widths=[8, 13, 15, 9, 9],
    )
    # collapse saturates: goodput roughly flat across the sweep while
    # makespan scales linearly with the sender count
    goodputs = [results[n]["goodput_MBps"] for n in (1024, 2048, 4096, 8192)]
    assert max(goodputs) / min(goodputs) < 1.25
    span = results[8192]["makespan_s"] / results[1024]["makespan_s"]
    assert 6.0 < span < 10.0, span  # ~8x senders -> ~8x makespan
