"""The four benchmark workloads: inputs, one run, and its output checks.

Each workload is built once per child process from ``(seed, scale, tmp)``
(input generation is part of set-up) and run many times.  ``run(rec)``
does one full pass, wrapping each phase in a benchmark span, checks its
own outputs, and returns::

    {"ops": attempted, "failed": n, "closed_form_dev": x,
     "stats": {...},    # exact simulated statistics; same seed => same dict
     "layers": {...}}   # per-layer metric values measured in this run

All four are closed loops: every simulated client and every real writer
waits for its reply before issuing the next operation.  ``scale`` divides
the sizes (1 = the benchmark, 16 = ``--quick``).  Whether the flight
recorder is on is the caller's business (``repro.obs.use``); a workload
only reads ``repro.obs.current()`` afterwards to pull layer counters out
of an active bundle.  Host time and simulated time never share a name:
``*_wall_s`` / ``*_phase_s`` / ``*_us_*`` are host, ``makespan_s`` is
simulated.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.erasure.reedsolomon import ReedSolomon
from repro.faults import FaultError, FaultEvent, FaultSchedule
from repro.giga.service import ServiceParams, run_storm
from repro.net.fabric import FabricParams, LeafSpineParams, Link, Topology
from repro.pfs.params import PFSParams
from repro.pfs.system import SimPFS
from repro.plfs.container import Container
from repro.plfs.filehandle import PlfsReadHandle, PlfsWriteHandle, WriteClock
from repro.scrub.driver import run_scrub_rebuild
from repro.sim import Simulator, Timeout

MIB = 1 << 20


def counter_sum(bundle, name: str) -> float:
    """Total of one bundle counter over all its label sets."""
    return sum(m.value for m in bundle.metrics.find(name) if m.name == name)


def fault_layers(bundle) -> dict:
    """The resilient ``pfs`` path's retry machinery, from the bundle counters."""
    return {
        "pfs.retries": int(counter_sum(bundle, "faults.retries")),
        "pfs.timeouts": int(counter_sum(bundle, "faults.op_timeouts")),
        "pfs.reconstructions": int(counter_sum(bundle, "faults.reconstructions")),
    }


def sim_layers(stats: dict) -> dict:
    """The ``sim.*`` layer metrics from one ``Simulator.event_stats()``."""
    coalesced = stats["wakeups_coalesced"]
    dispatched = stats["events_dispatched"]
    return {
        "sim.events_dispatched": dispatched,
        "sim.events_per_s": stats["events_per_s"],
        "sim.peak_heap_depth": stats["max_heap_depth"],
        "sim.run_wall_s": stats["run_wall_s"],
        "sim.wakeups_coalesced": coalesced,
        "sim.events_pooled": stats["events_pooled"],
        "sim.coalesce_ratio": coalesced / (coalesced + dispatched),
    }


def obs_layers(bundle) -> dict:
    if bundle is None:
        return {}
    return {"obs.spans": len(bundle.tracer.spans), "obs.metrics_series": len(bundle.metrics)}


def port_totals(ports) -> dict:
    """Summed always-on ``SwitchPort.stats()`` counts."""
    rows = [p.stats() for p in ports]
    return {k: sum(r[k] for r in rows) for k in ("drops_pkts", "timeouts", "retransmits", "bytes")}


class CkptExact:
    """N-N checkpoint write then neighbour read-back on the exact fabric."""

    name = "ckpt_exact"
    N_CLIENTS = 32
    OPS_PER_CLIENT = 8
    N_SERVERS = 16
    K, M = 4, 2

    def __init__(self, seed: int, scale: int, tmp: Path) -> None:
        self.op_bytes = MIB // scale
        # the exact engine consumes its seed only for RTO jitter, which
        # this workload leaves off: every seed simulates the same run
        self.fabric = FabricParams(
            name="perf-ckpt", buffer_pkts=64, min_rto_s=1e-3, seed=seed,
            leafspine=LeafSpineParams(n_racks=4, oversubscription=4.0),
        )

    def run(self, rec) -> dict:
        n, per, op = self.N_CLIENTS, self.OPS_PER_CLIENT, self.op_bytes
        sim = Simulator()
        pfs = SimPFS(sim, PFSParams(
            n_servers=self.N_SERVERS, stripe_unit=64 * 1024,
            redundancy=f"rs:{self.K}+{self.M}", fabric=self.fabric,
        ))
        done = {"write": 0, "read": 0}

        def client(c: int, kind: str):
            path = f"/ckpt/{c if kind == 'write' else (c + 1) % n}"
            if kind == "write":
                yield from pfs.op_create(c, path)
            io = pfs.op_write if kind == "write" else pfs.op_read
            for i in range(per):
                try:
                    yield from io(c, path, i * op, op)
                except FaultError:
                    continue
                done[kind] += 1

        phases = {}
        for kind in ("write", "read"):
            with rec.span(f"{self.name}.{kind}") as sp:
                for c in range(n):
                    sim.spawn(client(c, kind), name=f"ckpt{c}")
                sim.run()
            phases[kind] = sp.wall_s
            if kind == "write":
                write_makespan = sim.now

        topo = pfs.topology
        servers = port_totals(topo.server_ports)
        clients = port_totals(topo.client_port(c) for c in range(n))
        spine = port_totals(topo.leaf_up + topo.leaf_down)
        attempted = 2 * n * per
        share = -(-op // self.K)
        offered_servers = done["write"] * (op + self.M * share)
        offered_clients = done["read"] * op
        failed = attempted - done["write"] - done["read"]
        failed += servers["bytes"] != offered_servers
        failed += clients["bytes"] != offered_clients

        est = sim.event_stats()
        stats = {
            "makespan_s": sim.now,
            "write_makespan_s": write_makespan,
            "events_dispatched": est["events_dispatched"],
            "peak_heap_depth": est["max_heap_depth"],
            "ops_completed": done["write"] + done["read"],
            "spine_bytes": spine["bytes"],
        }
        for p in topo.server_ports:
            stats[f"bytes.{p.name}"] = p.total_bytes
        fabric = {k: servers[k] + clients[k] + spine[k] for k in servers}
        stats.update({k: fabric[k] for k in ("drops_pkts", "timeouts", "retransmits")})
        stats["client_bytes"] = clients["bytes"]

        delivered = fabric["bytes"] / self.fabric.pkt_bytes
        layers = {
            **sim_layers(est),
            **{f"net.fabric.{k}": v for k, v in fabric.items()},
            "net.fabric.goodput_ratio": delivered / (delivered + fabric["drops_pkts"]),
            "net.fabric.write_phase_s": phases["write"],
            "net.fabric.read_phase_s": phases["read"],
            "pfs.write_ops": done["write"],
            "pfs.read_ops": done["read"],
            "pfs.write_us_per_op": phases["write"] / (n * per) * 1e6,
            "pfs.read_us_per_op": phases["read"] / (n * per) * 1e6,
        }
        bundle = obs.current()
        if bundle is not None:
            layers.update(obs_layers(bundle))
            layers.update(fault_layers(bundle))
        return {"ops": attempted, "failed": int(failed), "closed_form_dev": 0.0,
                "stats": stats, "layers": layers}


class StormFluid:
    """One-RPC-per-client storm on one hot server, fluid fabric mode."""

    name = "storm_fluid"
    N_CLIENTS = 32_000
    RPC_BYTES = 512
    SERVICE_S = 0.3e-3
    FLUID_COUNTS = ("flows_completed", "epochs", "probes", "stalled_flows")

    def __init__(self, seed: int, scale: int, tmp: Path) -> None:
        self.n = self.N_CLIENTS // scale
        # fluid mode consumes no randomness: the seed is carried, inert
        self.fabric = FabricParams(
            name="perf-storm", buffer_pkts=64, min_rto_s=0.2, seed=seed, mode="fluid"
        )

    def run(self, rec) -> dict:
        n, nbytes = self.n, self.RPC_BYTES
        sim = Simulator()
        topo = Topology(sim, n, Link(112e6), Link(112e6), fabric=self.fabric)
        done = [0]

        def client(c: int):
            yield from topo.to_server(0, nbytes, src_client=c)
            yield Timeout(self.SERVICE_S)
            yield from topo.to_client(c, nbytes, src_server=0)
            done[0] += 1

        with rec.span(f"{self.name}.storm"):
            for c in range(n):
                sim.spawn(client(c))
            sim.run()

        hot = topo.server_ports[0]
        client_bytes = [topo.client_port(c).total_bytes for c in range(n)]
        failed = n - done[0]
        failed += hot.total_bytes != n * nbytes
        failed += sum(1 for b in client_bytes if b != nbytes)

        # closed form: the storm drains in n // round_capacity RTO generations
        generations = n // hot.round_capacity_pkts
        seen = int(sim.now // self.fabric.min_rto_s)
        closed_form_dev = abs(seen - generations) / max(generations, 1)

        est = sim.event_stats()
        fl = topo.fluid_stats()
        stats = {
            "makespan_s": sim.now,
            "rto_generations": seen,
            "events_dispatched": est["events_dispatched"],
            "peak_heap_depth": est["max_heap_depth"],
            "wakeups_coalesced": est["wakeups_coalesced"],
            "events_pooled": est["events_pooled"],
            "ops_completed": done[0],
            "bytes.server0": hot.total_bytes,
            "client_bytes": sum(client_bytes),
            **{f"fluid.{k}": fl[k] for k in self.FLUID_COUNTS},
        }
        layers = {
            **sim_layers(est),
            "net.fluid.events_per_flow": est["events_dispatched"] / fl["flows_completed"],
            **{f"net.fluid.{k}": fl[k] for k in self.FLUID_COUNTS},
            **obs_layers(obs.current()),
        }
        return {"ops": n, "failed": int(failed), "closed_form_dev": closed_form_dev,
                "stats": stats, "layers": layers}


class MetaScrub:
    """GIGA+ create/lookup storm through a crash, then scrub and rebuild."""

    name = "meta_scrub"
    N_SERVERS = 8
    N_CLIENTS = 64
    FILES_PER_CLIENT = 400

    def __init__(self, seed: int, scale: int, tmp: Path) -> None:
        self.seed = seed
        self.files = self.FILES_PER_CLIENT // scale

    def run(self, rec) -> dict:
        faults = FaultSchedule(
            [FaultEvent(at_s=0.02, kind="server_crash", target=2),
             FaultEvent(at_s=0.08, kind="server_recover", target=2)],
            name="perf-meta",
        )
        with rec.span(f"{self.name}.giga") as giga_sp:
            g = run_storm(
                self.N_SERVERS, self.N_CLIENTS, self.files,
                params=ServiceParams(split_threshold=32), faults=faults, seed=self.seed,
            )
        # run_scrub_rebuild always records: it activates the bundle it is
        # given, so this phase carries the recorder in both run kinds
        scrub_bundle = obs.Observability(name="perf-scrub")
        with rec.span(f"{self.name}.scrub") as scrub_sp:
            s = run_scrub_rebuild(seed=self.seed, scrub_on=True, obs=scrub_bundle)

        n_meta = self.N_CLIENTS * self.files
        lost = s.unrecoverable + s.degraded_end
        attempted = 2 * n_meta + int(s.stripes_rebuilt) + lost
        failed = (n_meta - g.creates) + (n_meta - g.found) + lost + s.foreground_failures

        redirects = g.redirects_create + g.redirects_lookup
        scrub_counts = {
            # the scrubber keeps these totals as floats
            f"scrub.{k}": int(getattr(s, k))
            for k in ("stripes_rebuilt", "rebuild_bytes", "deferred", "rebuild_failures",
                      "unrecoverable")
        }
        giga_counts = {
            "giga.creates": g.creates,
            "giga.lookups": g.lookups,
            "giga.redirects": redirects,
            "giga.splits": g.splits,
            "giga.failovers": g.failovers,
        }
        stats = {
            **giga_counts,
            "giga.makespan_s": g.makespan_s,
            "giga.found": g.found,
            "giga.partitions": g.partitions,
            "scrub.makespan_s": s.makespan_s,
            **scrub_counts,
            "scrub.spine_bytes": s.spine_bytes,
            "scrub.foreground_writes": s.foreground_writes,
            "scrub.events_dispatched": int(counter_sum(scrub_bundle, "sim.events_dispatched")),
        }
        layers = {
            **giga_counts,
            "giga.redirect_ratio": redirects / (g.creates + g.lookups),
            "giga.us_per_op": giga_sp.wall_s / (2 * n_meta) * 1e6,
            "giga.phase_wall_s": giga_sp.wall_s,
            **scrub_counts,
            "scrub.phase_wall_s": scrub_sp.wall_s,
            **fault_layers(scrub_bundle),
        }
        bundle = obs.current()
        if bundle is not None:
            # run_storm keeps its Simulator to itself, so the kernel totals
            # of the giga phase exist only in a recorded run's registry
            giga_events = int(counter_sum(bundle, "sim.events_dispatched"))
            stats["giga.events_dispatched"] = giga_events
            events = giga_events + stats["scrub.events_dispatched"]
            wall = giga_sp.wall_s + scrub_sp.wall_s
            layers.update(obs_layers(bundle))
            layers.update({
                "sim.events_dispatched": events,
                "sim.events_per_s": events / wall,
                "sim.run_wall_s": wall,
                "sim.peak_heap_depth": int(max(
                    b.metrics.gauge("sim.max_heap_depth").value for b in (bundle, scrub_bundle)
                )),
            })
        return {"ops": attempted, "failed": int(failed), "closed_form_dev": 0.0,
                "stats": stats, "layers": layers}


class RealIO:
    """The real PLFS on real files, then real Reed-Solomon: no simulator."""

    name = "real_io"
    N_WRITERS = 16
    RECORDS_PER_WRITER = 8192
    RECORD = 4096
    RANDOM_READS = 20_000
    RS_BLOCKS = 8
    K, M = 4, 2
    SURVIVORS = (0, 2, 4, 5)
    # logical byte x holds pool[x % period]; the period is one record more
    # than 8192 so equal records never share a writer or a physical offset
    POOL_RECORDS = 8193

    def __init__(self, seed: int, scale: int, tmp: Path) -> None:
        rng = np.random.default_rng(seed)
        self.tmp = tmp
        self.n_records = self.N_WRITERS * self.RECORDS_PER_WRITER // scale
        self.total = self.n_records * self.RECORD
        self.period = self.POOL_RECORDS * self.RECORD
        self.chunk = min(MIB, self.total)
        pool = rng.integers(0, 256, size=self.period, dtype=np.uint8).tobytes()
        self.pool = pool + pool[: self.chunk]   # a chunk-long slice never wraps
        self.offsets = [
            int(r) * self.RECORD
            for r in rng.integers(0, self.n_records, size=self.RANDOM_READS // scale)
        ]
        self.blocks = [
            rng.integers(0, 256, size=MIB // scale, dtype=np.uint8).tobytes()
            for _ in range(self.RS_BLOCKS)
        ]
        self.corrupt = False    # test hook: flip one stored byte before read-back
        self.index = None       # the last traced run's merged index, for the lookup probe

    def expected(self, offset: int, length: int) -> bytes:
        start = offset % self.period
        return self.pool[start:start + length]

    def run(self, rec) -> dict:
        self.tmp.mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="real_io.", dir=self.tmp))
        try:
            return self._run(rec, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _run(self, rec, workdir: Path) -> dict:
        record, nw = self.RECORD, self.N_WRITERS
        bad = 0
        phases = {}

        # no fsync anywhere: writes land in the page cache, on every run
        with rec.span(f"{self.name}.write") as sp:
            container = Container.create(workdir / "ckpt")
            clock = WriteClock()
            handles = [PlfsWriteHandle(container, f"w{i}", clock) for i in range(nw)]
            for k in range(self.n_records):
                off = k * record
                handles[k % nw].write(self.expected(off, record), off)
            for h in handles:
                h.close()
        phases["write"] = sp.wall_s
        droppings = list(container.iter_droppings())
        index_bytes = sum(d.index_path.stat().st_size for d in droppings)
        if self.corrupt:
            with open(droppings[0].data_path, "r+b") as f:
                byte = f.read(1)
                f.seek(0)
                f.write(bytes([byte[0] ^ 0xFF]))

        with rec.span(f"{self.name}.open") as sp:
            reader = PlfsReadHandle(container)
        phases["open"] = sp.wall_s
        if rec.keep:
            # only a traced child holds an index across runs: holding the old
            # one while merging the next grows the heap in the timed runs
            self.index = reader.index

        with rec.span(f"{self.name}.seq_read") as sp:
            for pos in range(0, self.total, self.chunk):
                bad += reader.read(pos, self.chunk) != self.expected(pos, self.chunk)
        phases["seq_read"] = sp.wall_s
        seq_reads = -(-self.total // self.chunk)

        lat = []
        clock_ns = time.perf_counter_ns
        with rec.span(f"{self.name}.rand_read") as sp:
            for off in self.offsets:
                t0 = clock_ns()
                got = reader.read(off, record)
                lat.append(clock_ns() - t0)
                bad += got != self.expected(off, record)
        phases["rand_read"] = sp.wall_s
        reader.close()

        rs = ReedSolomon(self.K, self.M)
        enc_s = dec_s = 0.0
        with rec.span(f"{self.name}.rs") as sp:
            for block in self.blocks:
                t0 = time.perf_counter()
                shares = rs.encode(block)
                t1 = time.perf_counter()
                out = rs.decode({i: shares[i] for i in self.SURVIVORS}, len(block))
                dec_s += time.perf_counter() - t1
                enc_s += t1 - t0
                bad += out != block
        phases["rs"] = sp.wall_s

        lat.sort()
        rs_mb = sum(len(b) for b in self.blocks) / 1e6
        user_mb = self.total / 1e6
        entries = reader.index.n_entries
        layers = {
            "write_MBps": user_mb / phases["write"],
            "open_s": phases["open"],
            "read_MBps": user_mb / phases["seq_read"],
            "plfs.write_us_per_record": phases["write"] / self.n_records * 1e6,
            "plfs.index_entries": entries,
            "plfs.index_build_us_per_entry": phases["open"] / entries * 1e6,
            "plfs.index_bytes_per_user_MiB": index_bytes / (self.total / MIB),
            "plfs.data_flushes": sum(h.data_flushes for h in handles),
            "plfs.rand_read_us_p50": lat[len(lat) // 2] / 1e3,
            "plfs.rand_read_us_p999": lat[int(len(lat) * 0.999) - 1] / 1e3,
            "erasure.encode_MBps": rs_mb / enc_s,
            "erasure.decode_MBps": rs_mb / dec_s,
            **obs_layers(obs.current()),
        }
        stats = {"index_entries": entries, "index_bytes": index_bytes,
                 "data_flushes": layers["plfs.data_flushes"]}
        ops = self.n_records + seq_reads + len(self.offsets) + len(self.blocks)
        return {"ops": ops, "failed": int(bad), "closed_form_dev": 0.0,
                "stats": stats, "layers": layers}


WORKLOADS = {w.name: w for w in (CkptExact, StormFluid, MetaScrub, RealIO)}
