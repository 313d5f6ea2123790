"""Storage backends for the MapReduce model: HDFS-like and PVFS shim.

Network costs are *not* modelled here: each backend only knows where a
chunk's bytes live (:meth:`replicas_of`) and what a read of it entails
(:meth:`read_plan` — which server streams, how much software overhead,
whether one disk bounds the stream).  The transfer itself is priced by
the shared fabric (:mod:`repro.net.fabric`): ideal-fabric reads use
:func:`repro.net.params.fluid_shared_Bps` / :class:`repro.net.params.Link`
arithmetic (bit-identical with the historical inline math), finite-buffer
fabrics route the bytes through :class:`repro.net.fabric.Topology`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.params import FabricParams, IDEAL_FABRIC, Link, fluid_shared_Bps


@dataclass(frozen=True)
class ClusterSpec:
    """Compute/storage co-located cluster.

    ``fabric`` selects the network model every transfer rides
    (:data:`repro.net.params.IDEAL_FABRIC` keeps the historical
    analytic arithmetic; finite ``buffer_pkts`` and/or ``leafspine``
    make remote reads real windowed flows with congestion and drops).
    """

    n_nodes: int = 16
    disk_Bps: float = 80e6            # local disk streaming rate
    net_Bps: float = 112e6            # per-node NIC
    backplane_Bps: float = 640e6      # switch aggregate (oversubscribed)
    rpc_s: float = 1e-3               # synchronous small-read round trip
    chunk_bytes: int = 64 << 20       # DFS chunk/stripe granularity
    fabric: FabricParams = field(default=IDEAL_FABRIC)


@dataclass(frozen=True)
class ReadPlan:
    """What one map-task read entails, minus the network pricing.

    Attributes
    ----------
    local: the reader holds the bytes (no network transfer).
    server: the node that streams the bytes (the reader itself when
        local; the primary replica/stripe holder when remote).
    overhead_s: software overhead per chunk read (synchronous RPC
        round trips — per-chunk for HDFS streaming, per-buffer for the
        naive shim).
    disk_bound: a remote stream is additionally bounded by the serving
        node's one disk (HDFS whole-chunk reads); striped reads are fed
        by many disks and are network-bound only.
    """

    local: bool
    server: int
    overhead_s: float
    disk_bound: bool


class HDFSBackend:
    """HDFS-like: chunks replicated on nodes' local disks, placement known.

    A map task reading its chunk on a node holding a replica streams from
    the local disk with large requests (HDFS readers stream the chunk).
    """

    name = "hdfs"
    exposes_layout = True

    def __init__(self, spec: ClusterSpec, replication: int = 3) -> None:
        if replication < 1 or replication > spec.n_nodes:
            raise ValueError("bad replication factor")
        self.spec = spec
        self.replication = replication

    def replicas_of(self, chunk_id: int) -> list[int]:
        n = self.spec.n_nodes
        return [(chunk_id + r * (1 + chunk_id % (n - 1))) % n for r in range(self.replication)] \
            if n > 1 else [0] * self.replication

    def read_plan(self, chunk_id: int, node: int) -> ReadPlan:
        replicas = self.replicas_of(chunk_id)
        local = node in replicas
        return ReadPlan(
            local=local,
            server=node if local else replicas[0],
            overhead_s=self.spec.rpc_s,
            disk_bound=True,
        )

    def read_time(self, chunk_id: int, node: int, n_remote_readers: int) -> float:
        """Ideal-fabric read cost (overhead + fluid-shared serialization)."""
        spec = self.spec
        plan = self.read_plan(chunk_id, node)
        if plan.local:
            rate = spec.disk_Bps
        else:
            rate = min(
                fluid_shared_Bps(spec.net_Bps, spec.backplane_Bps, n_remote_readers),
                spec.disk_Bps,
            )
        return plan.overhead_s + Link(rate).transfer_s(spec.chunk_bytes)


class PVFSShimBackend:
    """PVFS under a Hadoop shim: data striped over all nodes.

    Every read is remote-ish (striped), so the network path is always
    taken.  Two tuning knobs reproduce Fig 12's三 steps:

    * ``readahead_bytes`` — the naive shim read tiny buffers, paying the
      RPC overhead per buffer; HDFS-style readahead amortizes it;
    * ``expose_layout`` — with layout exposed, Hadoop schedules each task
      on the node holding the chunk's *primary* stripe server, so the
      dominant transfer is local.
    """

    name = "pvfs-shim"

    def __init__(
        self,
        spec: ClusterSpec,
        readahead_bytes: int = 64 * 1024,
        expose_layout: bool = False,
        replication: int = 3,
    ) -> None:
        if readahead_bytes < 1:
            raise ValueError("readahead must be positive")
        self.spec = spec
        self.readahead_bytes = readahead_bytes
        self.expose_layout = expose_layout
        self.exposes_layout = expose_layout
        self.replication = replication

    def replicas_of(self, chunk_id: int) -> list[int]:
        # shim replicates whole chunks PVFS-side; primary copy's server:
        n = self.spec.n_nodes
        return [(chunk_id * 7 + r) % n for r in range(self.replication)]

    def read_plan(self, chunk_id: int, node: int) -> ReadPlan:
        spec = self.spec
        n_bufs = (spec.chunk_bytes + self.readahead_bytes - 1) // self.readahead_bytes
        replicas = self.replicas_of(chunk_id)
        local = self.expose_layout and node in replicas
        return ReadPlan(
            local=local,
            server=node if local else replicas[0],
            overhead_s=n_bufs * spec.rpc_s,  # synchronous per-buffer round trips
            # striped read: many server disks feed it, so it is network-
            # bound (NIC or contended backplane), not single-disk-bound
            disk_bound=False,
        )

    def read_time(self, chunk_id: int, node: int, n_remote_readers: int) -> float:
        """Ideal-fabric read cost (overhead + fluid-shared serialization)."""
        spec = self.spec
        plan = self.read_plan(chunk_id, node)
        if plan.local:
            rate = spec.disk_Bps
        else:
            rate = fluid_shared_Bps(spec.net_Bps, spec.backplane_Bps, n_remote_readers)
        return plan.overhead_s + Link(rate).transfer_s(spec.chunk_bytes)
