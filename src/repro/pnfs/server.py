"""NFS vs pNFS data paths over the DES substrate, plus the scaling study.

Plain NFS: every client's bytes pass through the one server (its NIC and
its backend).  pNFS: the MDS only grants layouts (cheap); data flows
straight to the striped data servers.  The experiment the IETF pitch
rests on: aggregate client bandwidth vs client count saturates at one
server's NIC for NFS but scales with data servers for pNFS.

All bytes ride the shared fabric (:class:`repro.net.fabric.Topology`)
at every buffer size: the NFS server's NIC is one named switch port
(the funnel), each data server is an edge port, and every chunk or
extent is one RPC followed by a windowed flow through its port.
Finite buffers (and optionally a leaf/spine shape) add congestion,
drops, RTOs and blackouts; per-request damage attribution follows the
flow's ``ctx`` either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.fabric import Topology
from repro.net.params import FabricParams, IDEAL_FABRIC, Link
from repro.pfs.layout import StripeLayout
from repro.pnfs.protocol import LayoutKind, LayoutManager
from repro.sim import Acquire, Resource, Simulator, Timeout


@dataclass(frozen=True)
class NFSParams:
    n_data_servers: int = 8
    stripe_unit: int = 1 << 20
    server_nic_Bps: float = 112e6        # per data server (and the NFS server)
    client_nic_Bps: float = 112e6
    backend_Bps: float = 400e6           # NFS server's storage backend
    rpc_s: float = 200e-6
    mds_op_s: float = 0.5e-3
    fabric: FabricParams = field(default=IDEAL_FABRIC)


class NFSCluster:
    """Both protocol paths over one set of parameters."""

    def __init__(self, sim: Simulator, params: NFSParams = NFSParams()) -> None:
        self.sim = sim
        self.params = params
        server_link = Link(params.server_nic_Bps)
        self.topology = Topology(
            sim,
            n_servers=params.n_data_servers,
            client_link=Link(params.client_nic_Bps),
            server_link=server_link,
            fabric=params.fabric,
            name="pnfs",
        )
        # plain-NFS funnel: one switch port (the server NIC) + one backend
        self.nfs_port = self.topology.named_port("nfsd", server_link)
        self.backend_link = Link(params.backend_Bps)
        self.nfs_backend = Resource(sim, capacity=1, name="nfsd.backend")
        # pNFS: MDS for layouts; data flows hit the topology's edge ports
        self.mds = Resource(sim, capacity=1, name="pnfs.mds")
        self.layouts = LayoutManager(
            StripeLayout(params.n_data_servers, params.stripe_unit)
        )

    def _edge_span(self, name: str, client: int, nbytes: int, ctx):
        """Start a request-addressable edge span (or return (None, ctx))."""
        obs = getattr(self.sim, "obs", None)
        if obs is None:
            return None, ctx
        if ctx is None:
            ctx = obs.request_context(op="write", origin="pnfs")
        span = obs.tracer.start(
            name, at=self.sim.now, client=client, nbytes=nbytes, **ctx.span_attrs()
        )
        return span, ctx

    # -- plain NFS ------------------------------------------------------
    def nfs_write(self, client: int, nbytes: int, chunk: int = 1 << 20, ctx=None):
        """All bytes through the server NIC, then its backend.

        Pipelined at chunk granularity: while the backend commits chunk k,
        the NIC already receives chunk k+1 (the two stages are separate
        resources with a background drainer per chunk)."""
        p = self.params
        span, ctx = self._edge_span("nfs.write", client, nbytes, ctx)

        def backend_stage(take: int, done):
            grant = yield Acquire(self.nfs_backend)
            yield Timeout(self.backend_link.transfer_s(take))
            self.nfs_backend.release(grant)
            done.succeed()

        pending = []
        pos = 0
        while pos < nbytes:
            take = min(chunk, nbytes - pos)
            yield Timeout(p.rpc_s)
            yield from self.topology.to_port(
                self.nfs_port, take, parent_span=span, ctx=ctx
            )
            done = self.sim.event("nfs.commit")
            self.sim.spawn(backend_stage(take, done))
            pending.append(done)
            pos += take
        for ev in pending:
            if not ev.triggered:
                yield ev
        if span is not None:
            span.finish(at=self.sim.now)

    # -- pNFS ---------------------------------------------------------------
    def pnfs_write(
        self, client: int, nbytes: int, kind: LayoutKind = LayoutKind.FILE,
        chunk: int = 1 << 20, ctx=None,
    ):
        """LAYOUTGET at the MDS, direct striped I/O, LAYOUTCOMMIT."""
        p = self.params
        span, ctx = self._edge_span("pnfs.write", client, nbytes, ctx)
        grant = yield Acquire(self.mds)
        yield Timeout(p.mds_op_s)
        layout = self.layouts.grant(client, f"/f{client}", kind, shift=client)
        self.mds.release(grant)
        pos = 0
        while pos < nbytes:
            take = min(chunk, nbytes - pos)
            self.layouts.check_io(layout, pos, take, write=True)
            for ext in layout.stripe.extents(pos, take, shift=layout.shift):
                yield Timeout(p.rpc_s)
                yield from self.topology.to_server(
                    ext.server, ext.length,
                    parent_span=span, ctx=ctx, src_client=client,
                )
            pos += take
        if LayoutManager.commit_required(kind, extended_file=True):
            grant = yield Acquire(self.mds)
            yield Timeout(p.mds_op_s)
            self.layouts.commit(layout, nbytes)
            self.mds.release(grant)
        grant = yield Acquire(self.mds)
        yield Timeout(p.mds_op_s)
        self.layouts.layout_return(layout)
        self.mds.release(grant)
        if span is not None:
            span.finish(at=self.sim.now)


def run_scaling_experiment(
    client_counts: list[int],
    nbytes_per_client: int = 64 << 20,
    params: NFSParams = NFSParams(),
) -> list[dict]:
    """Aggregate write bandwidth vs client count, both protocols."""
    out = []
    for n in client_counts:
        row = {"clients": n}
        for proto in ("nfs", "pnfs"):
            sim = Simulator()
            cluster = NFSCluster(sim, params)
            for c in range(n):
                if proto == "nfs":
                    sim.spawn(cluster.nfs_write(c, nbytes_per_client))
                else:
                    sim.spawn(cluster.pnfs_write(c, nbytes_per_client))
            makespan = sim.run()
            row[f"{proto}_MBps"] = n * nbytes_per_client / makespan / 1e6
        row["speedup"] = row["pnfs_MBps"] / row["nfs_MBps"]
        out.append(row)
    return out
