"""A wave-scheduled MapReduce grep over a storage backend.

The grep runs as a discrete-event simulation: one process per compute
node works through its assigned chunks in order, and every remote read
is priced by the shared network fabric.  Under the ideal fabric the
per-node timeline is plain ``overhead + serialization`` arithmetic
(bit-identical with the historical analytic model — the equivalence
goldens pin it); under a finite-buffer or leaf/spine fabric the remote
bytes ride :class:`repro.net.fabric.Topology` as real windowed flows,
inheriting congestion, drops, port blackouts, and per-request damage
attribution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.net.fabric import Topology
from repro.net.params import Link
from repro.sim import Simulator, Timeout


@dataclass(frozen=True)
class GrepJob:
    """Scan ``n_chunks`` of input; CPU cost per byte models the matcher."""

    n_chunks: int = 64
    cpu_s_per_chunk: float = 0.15


@dataclass
class JobResult:
    backend: str
    makespan_s: float
    local_tasks: int
    remote_tasks: int
    total_bytes: int

    @property
    def throughput_MBps(self) -> float:
        return self.total_bytes / self.makespan_s / 1e6 if self.makespan_s else 0.0

    @property
    def locality(self) -> float:
        n = self.local_tasks + self.remote_tasks
        return self.local_tasks / n if n else 0.0


def _schedule(job: GrepJob, backend, spec) -> list[tuple[int, int, bool]]:
    """Assign chunks to nodes: (chunk, node, is_local).

    With layout exposed the scheduler places each task on a replica holder
    when one is free (greedy, like Hadoop's locality preference); without
    it, tasks go round-robin regardless of data location.
    """
    n = spec.n_nodes
    assignments: list[tuple[int, int, bool]] = []
    node_load = np.zeros(n, dtype=int)
    for chunk in range(job.n_chunks):
        if getattr(backend, "exposes_layout", False):
            replicas = backend.replicas_of(chunk)
            node = min(replicas, key=lambda r: node_load[r])
            # fall back to least-loaded node if replica holders overloaded
            least = int(np.argmin(node_load))
            if node_load[node] > node_load[least] + 1:
                node = least
            local = node in replicas
        else:
            node = int(np.argmin(node_load))
            local = node in backend.replicas_of(chunk)
        node_load[node] += 1
        assignments.append((chunk, node, local))
    return assignments


def _grep_topology(sim: Simulator, spec) -> Topology:
    """The cluster's shared fabric: one edge port per co-located node.

    Compute and storage are co-located, so node ``i`` is both client
    ``i`` (reading) and server ``i`` (serving).  On a leaf/spine fabric
    the two identities must land in the same rack: clients are pinned
    into contiguous blocks matching the server block assignment.
    """
    fab = spec.fabric
    ls = fab.leafspine
    if ls is not None and ls.clients_per_rack is None:
        per_rack = -(-spec.n_nodes // ls.n_racks)  # ceil
        fab = replace(fab, leafspine=replace(ls, clients_per_rack=per_rack))
    return Topology(
        sim,
        n_servers=spec.n_nodes,
        client_link=Link(spec.net_Bps),
        server_link=Link(spec.net_Bps),
        rpc_latency_s=spec.rpc_s,
        fabric=fab,
        name="dfs",
    )


def run_grep(job: GrepJob, backend, ctx=None) -> JobResult:
    """Execute the job in waves of one task per node.

    A discrete-event run over the shared fabric; a request-addressable
    edge: with a bundle active it mints/accepts a
    :class:`repro.obs.RequestContext` and records a ``dfs.grep`` span.
    """
    from repro import obs as _obs

    bundle = _obs.current()
    span = None
    if bundle is not None:
        if ctx is None:
            ctx = bundle.request_context(op="grep", origin="dfs")
        span = bundle.tracer.start(
            "dfs.grep", backend=backend.name, **ctx.span_attrs()
        )
    spec = backend.spec
    fab = spec.fabric
    assignments = _schedule(job, backend, spec)
    local_tasks = sum(1 for _, _, loc in assignments if loc)
    remote_tasks = len(assignments) - local_tasks
    # remote-reader pressure estimated from the whole job's locality mix
    concurrent_remote = max(
        1, int(round(remote_tasks * spec.n_nodes / max(1, job.n_chunks)))
    )

    by_node: dict[int, list[tuple[int, bool]]] = {}
    for chunk, node, local in assignments:
        by_node.setdefault(node, []).append((chunk, local))

    sim = Simulator()
    topo = _grep_topology(sim, spec)

    def node_proc(node: int, tasks: list[tuple[int, bool]]):
        for chunk, local in tasks:
            if fab.ideal:
                # overhead + fluid-shared serialization, priced by the
                # backend through the fabric helpers (bit-identical with
                # the historical inline arithmetic)
                read = backend.read_time(
                    chunk, node, concurrent_remote if not local else 1
                )
                yield Timeout(read + job.cpu_s_per_chunk)
                continue
            plan = backend.read_plan(chunk, node)
            disk_s = spec.chunk_bytes / spec.disk_Bps
            if plan.local:
                yield Timeout(plan.overhead_s + disk_s)
            else:
                # store-and-forward: the holder reads its disk (HDFS
                # whole-chunk streams; striped reads are fed by many
                # disks), then the bytes ride the fabric to the reader
                stage_s = plan.overhead_s + (disk_s if plan.disk_bound else 0.0)
                yield Timeout(stage_s)
                yield from topo.to_client(
                    node, spec.chunk_bytes,
                    parent_span=span, ctx=ctx, src_server=plan.server,
                )
            yield Timeout(job.cpu_s_per_chunk)

    for node, tasks in by_node.items():
        sim.spawn(node_proc(node, tasks), name=f"dfs.node{node}")
    makespan = sim.run()

    result = JobResult(
        backend=backend.name
        + ("" if not getattr(backend, "readahead_bytes", None) else f"+ra{backend.readahead_bytes // 1024}k")
        + ("+layout" if getattr(backend, "expose_layout", False) else ""),
        makespan_s=makespan,
        local_tasks=local_tasks,
        remote_tasks=remote_tasks,
        total_bytes=job.n_chunks * spec.chunk_bytes,
    )
    if span is not None:
        span.finish()
    return result
