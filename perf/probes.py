"""Isolated layer probes: one layer's public functions driven alone.

A probe runs with no bundle active (the ``obs`` probe builds its own
tracer and counter), is wrapped in one benchmark span, and returns the
per-layer metric values it measured.  Each belongs to the workload whose
end-to-end numbers that layer should move (``PROBES``), so a traced run
pays only for the probes that explain it; ``scale`` divides the sizes
the same way it divides the workloads.
"""

from __future__ import annotations

import time

from repro.erasure.reedsolomon import ReedSolomon
from repro.net.fabric import FabricParams, Link, Topology
from repro.obs.metrics import Counter
from repro.obs.spans import Tracer
from repro.sim import Acquire, Resource, Simulator, Timeout

MIB = 1 << 20


def _timed_run(sim: Simulator) -> float:
    t0 = time.perf_counter()
    sim.run()
    return time.perf_counter() - t0


def sim_kernel(rec, scale: int, workload) -> dict:
    """Heap churn on a bare kernel, then one contended Resource."""
    n_procs, n_timeouts = 1000, 200 // scale or 1
    sim = Simulator()

    def sleeper(i: int):
        for k in range(n_timeouts):
            yield Timeout(1e-3 + i * 1e-9)

    with rec.span("probe.sim.kernel"):
        for i in range(n_procs):
            sim.spawn(sleeper(i))
        wall = _timed_run(sim)
    kernel_ns = wall / sim.events_dispatched * 1e9

    cycles = 500 // scale or 1
    sim = Simulator()
    res = Resource(sim, capacity=1, name="probe")

    def cycler():
        for _ in range(cycles):
            grant = yield Acquire(res)
            yield Timeout(1e-6)
            res.release(grant)

    with rec.span("probe.sim.resource"):
        for _ in range(64):
            sim.spawn(cycler())
        wall = _timed_run(sim)
    return {
        "sim.kernel_ns_per_event": kernel_ns,
        "sim.resource_ns_per_acquire": wall / (64 * cycles) * 1e9,
    }


def fabric_flow(rec, scale: int, workload) -> dict:
    """Solo exact-mode 1 MiB flows into one server port, back to back."""
    flows = 200 // scale or 1
    sim = Simulator()
    topo = Topology(
        sim, 1, Link(112e6), Link(112e6),
        fabric=FabricParams(name="probe", buffer_pkts=64, min_rto_s=1e-3),
    )

    def sender():
        for _ in range(flows):
            yield from topo.to_server(0, MIB)

    with rec.span("probe.net.fabric.flow"):
        sim.spawn(sender())
        wall = _timed_run(sim)
    return {
        "net.fabric.flow_us": wall / flows * 1e6,
        "net.fabric.events_per_MiB": sim.events_dispatched / flows,
    }


def fluid_flows(rec, scale: int, workload) -> dict:
    """n synchronized 512 B fluid flows into one server, at three n.

    n = 10 sits on the ``SMALL = 8`` boundary of the scalar recompute
    path, 1000 and 100000 are on the vectorized one.
    """
    fabric = FabricParams(name="probe", buffer_pkts=64, min_rto_s=0.2, mode="fluid")
    out = {}
    for n, reps in ((10, 1000), (1000, 20), (100_000, 1)):
        n_flows = n if n <= 1000 else n // scale
        reps = reps // scale or 1
        wall = 0.0
        with rec.span(f"probe.net.fluid.n{n}"):
            for _ in range(reps):
                sim = Simulator()
                topo = Topology(sim, 1, Link(112e6), Link(112e6), fabric=fabric)
                t0 = time.perf_counter()
                for c in range(n_flows):
                    sim.spawn(topo.to_server(0, 512, src_client=c))
                sim.run()
                wall += time.perf_counter() - t0
        out[f"net.fluid.us_per_flow_n{n}"] = wall / (reps * n_flows) * 1e6
    return out


def obs_recording(rec, scale: int, workload) -> dict:
    """Span open/close and counter increment, the recorder's two hot calls."""
    n_spans, n_incs = 200_000 // scale, 1_000_000 // scale
    tracer = Tracer()
    with rec.span("probe.obs.span"):
        t0 = time.perf_counter()
        for _ in range(n_spans):
            with tracer.span("probe"):
                pass
        span_s = time.perf_counter() - t0
    counter = Counter("probe")
    with rec.span("probe.obs.counter"):
        t0 = time.perf_counter()
        for _ in range(n_incs):
            counter.inc()
        inc_s = time.perf_counter() - t0
    return {"obs.span_ns": span_s / n_spans * 1e9, "obs.counter_inc_ns": inc_s / n_incs * 1e9}


def plfs_lookup(rec, scale: int, workload) -> dict:
    """``GlobalIndex.lookup`` alone, on the index the last run merged."""
    index, record = workload.index, workload.RECORD
    with rec.span("probe.plfs.lookup"):
        t0 = time.perf_counter()
        for off in workload.offsets:
            index.lookup(off, record)
        wall = time.perf_counter() - t0
    return {"plfs.lookup_us": wall / len(workload.offsets) * 1e6}


def erasure_reconstruct(rec, scale: int, workload) -> dict:
    """Rebuild one lost share from the survivors (degraded-mode repair)."""
    rs = ReedSolomon(workload.K, workload.M)
    blocks = workload.blocks[:2]
    survivors = [
        {i: shares[i] for i in workload.SURVIVORS}
        for shares in (rs.encode(b) for b in blocks)
    ]
    with rec.span("probe.erasure.reconstruct"):
        t0 = time.perf_counter()
        for block, have in zip(blocks, survivors):
            rs.reconstruct_share(have, 1, len(block))
        wall = time.perf_counter() - t0
    return {"erasure.reconstruct_MBps": sum(len(b) for b in blocks) / 1e6 / wall}


PROBES = {
    "ckpt_exact": (sim_kernel, fabric_flow),
    "storm_fluid": (fluid_flows, obs_recording),
    "meta_scrub": (),
    "real_io": (plfs_lookup, erasure_reconstruct),
}
