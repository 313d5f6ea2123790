"""Parameter personalities for the simulated parallel file system."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.devices.disk import DiskParams, SEVEN_K2_SATA
from repro.faults.resilience import RedundancySpec, ResilienceParams
from repro.net.params import FabricParams, IDEAL_FABRIC


@dataclass(frozen=True)
class PFSParams:
    """Knobs for one simulated parallel file system deployment.

    Attributes
    ----------
    name: label for reports and personality identification (default
        ``"generic"``).
    n_servers: storage servers, each one disk + one NIC (default 8).
    stripe_unit: bytes per stripe chunk before moving to the next server
        (default 64 KiB).
    lock_granularity: byte-range lock block size in bytes — POSIX write
        coherence (default 64 KiB).
    rpc_latency_s: per-request software+network round-trip overhead in
        seconds (default 300 µs).
    lock_latency_s: cost in seconds of migrating a lock block between
        clients (default 1.5 ms).
    server_nic_Bps: per-server link bandwidth in bytes/second (default
        ~112 MB/s, a 1GE NIC at 90% efficiency).
    client_nic_Bps: per-client link bandwidth, same units and default.
    mds_op_s: metadata server cost per namespace operation in seconds
        (default 0.8 ms, ~1250 ops/s).
    n_mds: independent metadata servers; paths hash across them,
        GIGA+-style (default 1).
    write_buffer_bytes: client-side coalescing buffer in bytes for
        sequential streams — log-structured writers benefit, strided
        writers cannot (default 1 MiB); also the phase-2 chunk size of
        collective aggregators (docs/collective.md).
    disk: per-server :class:`~repro.devices.disk.DiskParams` (default
        :data:`~repro.devices.disk.SEVEN_K2_SATA`, a 7200-rpm SATA
        drive).
    fabric: network-fabric congestion knobs (:class:`repro.net.params.
        FabricParams`).  The default :data:`~repro.net.params.IDEAL_FABRIC`
        (infinite switch buffers, no contention) reproduces plain
        latency+bandwidth arithmetic; a finite ``buffer_pkts`` routes every
        request/reply through shared switch output ports with incast-style
        drop/timeout/window dynamics.  Setting ``fabric.leafspine``
        (:class:`repro.net.params.LeafSpineParams`) additionally places
        clients and servers in racks behind leaf switches joined by
        oversubscribed spine uplinks, so cross-rack requests traverse a
        multi-hop path of finite-buffer ports (docs/network.md) — the
        congestion-aware placement and fabric-aware collective schemes
        then account for uplink contention when choosing servers and
        aggregators.
    placement: stripe/server selection policy for new data.  ``None``
        (default) keeps the historical shifted round-robin
        :class:`~repro.pfs.layout.StripeLayout` — bit-identical with
        every pre-knob configuration.  Otherwise a spec understood by
        :func:`repro.placement.congestion.build_placement`: a
        :class:`~repro.placement.strategies.PlacementStrategy` instance,
        ``"round-robin"`` or ``"congestion"`` (round-robin re-weighted
        by fabric feedback; see docs/placement.md).
    redundancy: data redundancy for degraded-mode operation.  ``None``
        (default) stores one copy, so a request to a dead server fails
        once its retries are spent.  Otherwise a spec understood by
        :meth:`repro.faults.RedundancySpec.parse` — ``"mirror:<c>"`` or
        ``"rs:<k>+<m>"`` (Reed-Solomon parity via
        :mod:`repro.erasure.reedsolomon`); reads that hit a dead server
        reconstruct from surviving stripes instead of failing (see
        docs/faults.md).
    resilience: client retry machinery
        (:class:`repro.faults.ResilienceParams`: per-op timeout, retry
        budget, capped exponential backoff + jitter).  ``None`` means
        a default ``ResilienceParams()`` when ``redundancy`` is set, and
        otherwise :data:`repro.faults.NO_RETRIES` (one attempt, no
        timeout).
    """

    name: str = "generic"
    n_servers: int = 8
    stripe_unit: int = 64 * 1024
    lock_granularity: int = 64 * 1024
    rpc_latency_s: float = 300e-6
    lock_latency_s: float = 1.5e-3
    server_nic_Bps: float = 1e9 / 8 * 0.9      # ~112 MB/s (1GE)
    client_nic_Bps: float = 1e9 / 8 * 0.9
    mds_op_s: float = 0.8e-3                   # ~1250 metadata ops/s
    n_mds: int = 1                             # independent metadata servers
                                               # (PLFS follow-on #1: paths hash
                                               # across them, GIGA+-style)
    write_buffer_bytes: int = 1 << 20
    disk: DiskParams = field(default_factory=lambda: SEVEN_K2_SATA)
    fabric: FabricParams = IDEAL_FABRIC
    placement: object | None = None
    redundancy: str | RedundancySpec | None = None
    resilience: ResilienceParams | None = None

    def with_servers(self, n: int) -> "PFSParams":
        return replace(self, n_servers=n)

    def with_fabric(self, fabric: FabricParams) -> "PFSParams":
        return replace(self, fabric=fabric)


#: Lustre-like: 1 MB stripes, page-granular-ish locking modeled at 64 KB,
#: relatively expensive lock migration (DLM round trips).
LUSTRE_LIKE = PFSParams(
    name="lustre-like",
    stripe_unit=1 << 20,
    lock_granularity=64 * 1024,
    lock_latency_s=2.0e-3,
)

#: PanFS-like: object RAID with 64 KB stripe units and component objects;
#: finer default stripe unit, cheaper locks (callback-based).
PANFS_LIKE = PFSParams(
    name="panfs-like",
    stripe_unit=64 * 1024,
    lock_granularity=64 * 1024,
    lock_latency_s=1.0e-3,
)

#: GPFS-like: large blocks and block-granular distributed byte-range locks;
#: false sharing at 256 KB granularity is the notorious N-1 failure mode.
GPFS_LIKE = PFSParams(
    name="gpfs-like",
    stripe_unit=256 * 1024,
    lock_granularity=256 * 1024,
    lock_latency_s=1.8e-3,
)
