"""Sharded GIGA+ metadata *service*: a bank of servers on the fabric.

The one GIGA+ model in the repo: :func:`run_storm` is the Metarates-style
create storm behind Fig 7 and the scaling/failover storm behind X20.
The pieces:

* **Consistent-hash shard ownership** (:class:`ShardMap`): GIGA+
  partitions map onto metadata servers through a virtual-node hash
  ring, so membership changes move only the shards that must move
  (ring-successor takeover), never the whole directory.
* **Client-side cached shard maps** (:class:`ServiceClient`): clients
  address servers with *their own replica* of the split-history bitmap
  and an immutable :class:`ShardMap` snapshot.  A mis-addressed server
  corrects both in one reply — the GIGA+ stale-bitmap hint trick —
  giving bounded redirects with no global invalidation.
* **Hot-shard splitting under load**: partitions split independently
  when they overflow ``split_threshold``, guarded by
  :meth:`~repro.giga.mapping.GigaBitmap.useful_split` (max-depth and
  one-sided splits are no-ops, never an empty sibling).  The child's
  owner comes from the ring, so a hot shard sheds load to other
  servers as it splits.
* **Membership and failover** (:class:`Coordinator`): an online/offline
  registry in the shape of hivessimulator's ``master_servers.py``
  coordinator.  A crashed server is detected after a heartbeat timeout
  and its shards fail over to ring successors (map version bumps);
  recovery re-admits it the same way.  Crash/recover/slowdown arrive
  through the standard :class:`repro.faults.FaultSchedule` injector —
  the service exposes the same ``servers`` / ``topology`` surface as
  :class:`repro.pfs.SimPFS`.
* **Fabric placement**: the bank sits on the shared
  :class:`repro.net.Topology`; under a finite-buffer (optionally
  leaf/spine) fabric every client→server RPC is a real windowed flow,
  rack-aware and contended.  The ideal fabric reproduces the historical
  flat RPC arithmetic.

Every client edge mints (or accepts) a :class:`repro.obs.RequestContext`
so redirects, failover retries, and fabric damage are attributed per
request in the flight recorder.  See docs/metadata.md for the
walk-through and benchmarks/test_x20_metadata_service.py for the
scaling/failover criteria.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.faults.errors import RetriesExhausted, ServerDown
from repro.faults.server import FaultableServer
from repro.giga.mapping import GigaBitmap, hash_name
from repro.net.fabric import Topology
from repro.net.params import IDEAL_FABRIC, FabricParams, Link
from repro.sim import Acquire, Resource, Simulator, Timeout
from repro.sim.stats import Counter


@dataclass(frozen=True)
class ServiceParams:
    """Knobs of the sharded metadata service (all seconds / bytes / counts).

    The defaults are the ones Fig 7 and X20 run with.  ``vnodes``
    sets ring smoothness (more virtual nodes → flatter shard spread);
    ``failover_detect_s`` is the heartbeat timeout before the
    coordinator marks a server offline (or back online);
    ``retry_backoff_s`` paces a client that keeps hitting a dead server
    while detection is still pending.  ``fabric`` defaults to the ideal
    fabric (flat RPC arithmetic); any finite-buffer (or leaf/spine)
    :class:`~repro.net.params.FabricParams` routes RPC payloads of
    ``rpc_bytes`` through real switch ports instead.
    """

    n_servers: int = 8
    split_threshold: int = 64         # entries per partition before a split
    op_service_s: float = 0.3e-3      # create/lookup CPU cost per op
    per_entry_move_s: float = 4e-6    # split relocation cost per entry
    client_rpc_s: float = 0.1e-3      # software round-trip overhead per hop
    coord_rpc_s: float = 0.05e-3      # coordinator map-fetch service time
    vnodes: int = 16                  # virtual ring nodes per server
    failover_detect_s: float = 5e-3   # heartbeat timeout before failover
    retry_backoff_s: float = 1e-3     # client backoff after a dead hop
    max_redirects: int = 64           # per-op addressing-error budget
    max_retries: int = 200            # per-op dead-server budget
    rpc_bytes: int = 512              # RPC payload on a finite fabric
    link_Bps: float = 1e9 / 8         # client/server NIC bandwidth (1GE)
    fabric: FabricParams = IDEAL_FABRIC


class ShardMap:
    """Immutable consistent-hash ring: GIGA+ partition → metadata server.

    Each server contributes ``vnodes`` points hashed onto a ring; a
    partition is owned by the first point at or after its own hash.
    Immutability is the caching contract: the coordinator publishes a
    *new* map (version + 1) on every membership change, and clients keep
    whatever snapshot they last saw — staleness is visible as a version
    gap, never as a half-updated ring.

    >>> m = ShardMap([0, 1, 2, 3])
    >>> m.owner(0) in (0, 1, 2, 3)
    True
    >>> m.owner(0) == m.owner(0)      # deterministic
    True
    >>> m2 = m.without(m.owner(0))    # failover: owner drops off the ring
    >>> (m2.version, m2.owner(0) != m.owner(0))
    (1, True)
    """

    __slots__ = ("servers", "vnodes", "version", "_points", "_keys")

    def __init__(
        self, servers: Iterable[int], vnodes: int = 16, version: int = 0
    ) -> None:
        self.servers: tuple[int, ...] = tuple(sorted(set(servers)))
        self.vnodes = vnodes
        self.version = version
        points = [
            (hash_name(f"mds{s}#{v}"), s)
            for s in self.servers
            for v in range(vnodes)
        ]
        points.sort()
        self._points = points
        self._keys = [h for h, _ in points]

    def owner(self, partition: int) -> int:
        """The single server owning ``partition`` under this map."""
        if not self._points:
            raise ValueError("shard map has no online servers")
        i = bisect.bisect_right(self._keys, hash_name(f"part:{partition}"))
        return self._points[i % len(self._points)][1]

    def without(self, server: int) -> "ShardMap":
        """The next map version with ``server`` failed off the ring."""
        return ShardMap(
            (s for s in self.servers if s != server), self.vnodes, self.version + 1
        )

    def with_server(self, server: int) -> "ShardMap":
        """The next map version with ``server`` (re-)admitted."""
        return ShardMap((*self.servers, server), self.vnodes, self.version + 1)

    def spread(self, partitions: Iterable[int]) -> dict[int, int]:
        """Shards per server (diagnostic): server → owned-partition count."""
        out = {s: 0 for s in self.servers}
        for p in partitions:
            out[self.owner(p)] += 1
        return out

    def __len__(self) -> int:
        return len(self.servers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardMap(v{self.version}, servers={list(self.servers)})"


class Coordinator:
    """Membership registry + shard-map authority (master-server shape).

    Tracks which metadata servers are online or offline and publishes
    the current :class:`ShardMap`.  It never sits on the data path: a
    client talks to it only to bootstrap or to re-fetch the map after
    hitting a dead server.  Detection is heartbeat-shaped — a crash (or
    recovery) becomes visible ``failover_detect_s`` later, and a
    transition is applied only if the server is still in that state
    (a crash/recover flip inside one detection window is a no-op).
    """

    def __init__(self, sim: Simulator, service: "GigaService") -> None:
        self.sim = sim
        self.service = service
        p = service.params
        self.online: set[int] = set(range(p.n_servers))
        self.offline: set[int] = set()
        self.map = ShardMap(self.online, vnodes=p.vnodes)
        self.res = Resource(sim, capacity=1, name="giga.coord")
        self.failovers = 0
        self.rejoins = 0

    # -- heartbeat callbacks (scheduled by MetadataServer.crash/recover) --
    def notice_crash(self, server: int) -> None:
        if self.service.servers[server].up or server not in self.online:
            return  # recovered inside the detection window, or already out
        self.online.discard(server)
        self.offline.add(server)
        self.failovers += 1
        self._publish(self.map.without(server), "failovers")

    def notice_recover(self, server: int) -> None:
        if not self.service.servers[server].up or server not in self.offline:
            return
        self.offline.discard(server)
        self.online.add(server)
        self.rejoins += 1
        self._publish(self.map.with_server(server), "rejoins")

    def _publish(self, new_map: ShardMap, counter: str) -> None:
        """Make ``new_map`` current after a membership change."""
        self.map = new_map
        self.service.counters.add(counter)
        obs = self.sim.obs
        if obs is not None:
            obs.metrics.gauge("giga.svc.map_version").set(float(new_map.version))

    # -- client-facing map fetch (a simulation process) -----------------
    def fetch_map(self, ctx=None):
        """Serve one map fetch; returns the current :class:`ShardMap`."""
        grant = yield Acquire(self.res)
        yield Timeout(self.service.params.coord_rpc_s)
        self.res.release(grant)
        self.service.counters.add("map_fetches")
        return self.map


class MetadataServer(FaultableServer):
    """One metadata server: a service thread plus crash/recover state.

    Availability and slowdown state is the shared
    :class:`~repro.faults.server.FaultableServer` contract, so
    :class:`repro.faults.FaultSchedule` drives the service like a
    ``SimPFS``.  What differs here: a rejected request returns ``"down"``
    (clients retry through the coordinator), ``slowdown`` multiplies op
    service time, and the coordinator notices each transition one
    heartbeat timeout later.  A partition split already *in service*
    when a park-crash lands runs to completion; a reject-crash aborts an
    in-flight split before its commit (the in-memory half of the split
    dies with the process), so a mid-split crash can never mint a
    half-moved partition.
    """

    def __init__(self, sim: Simulator, index: int, service: "GigaService") -> None:
        super().__init__(sim, index, f"mds{index}", service.counters)
        self.service = service
        self.res = Resource(sim, capacity=1, name=f"mds{index}")

    # the coordinator notices a heartbeat timeout later
    def _on_crash(self) -> None:
        svc = self.service
        self.sim.call_after(
            svc.params.failover_detect_s, svc.coordinator.notice_crash, self.index
        )

    def _on_recover(self) -> None:
        svc = self.service
        self.sim.call_after(
            svc.params.failover_detect_s, svc.coordinator.notice_recover, self.index
        )


@dataclass
class ServiceClient:
    """A client's cached addressing state: bitmap replica + map snapshot.

    Both caches start maximally stale (empty bitmap, bootstrap map) and
    are corrected lazily by server hints; neither is ever invalidated.
    """

    client_id: int
    bitmap: GigaBitmap
    map: ShardMap
    tenant: str = "default"


class GigaService:
    """The sharded directory: authoritative state + servers + coordinator.

    The split-history bitmap and the entry buckets model the replicated
    metadata journal every server can reach, which is what makes the
    stale-bitmap hint authoritative and the redirect bound logarithmic.
    *Ownership* (who may serve a partition) is the sharded part, and is
    always derived from the coordinator's current ring.
    """

    def __init__(self, sim: Simulator, params: Optional[ServiceParams] = None) -> None:
        self.sim = sim
        self.params = params or ServiceParams()
        p = self.params
        if p.fabric.ideal and p.fabric.leafspine is not None:
            raise ValueError(
                "GigaService prices an infinite-buffer exact fabric flat, so the "
                "leaf/spine shape would be ignored: set buffer_pkts or mode='fluid'"
            )
        self.bitmap = GigaBitmap()
        self.entries: dict[int, dict[str, int]] = {0: {}}
        self.counters = Counter(
            registry=sim.obs.metrics if sim.obs else None, prefix="giga.svc."
        )
        self.topology = Topology(
            sim,
            n_servers=p.n_servers,
            client_link=Link(p.link_Bps),
            server_link=Link(p.link_Bps),
            fabric=p.fabric,
            name="giga.fabric",
        )
        self.servers = [MetadataServer(sim, i, self) for i in range(p.n_servers)]
        self.coordinator = Coordinator(sim, self)

    # -- addressing ----------------------------------------------------
    def client(self, client_id: int, tenant: str = "default") -> ServiceClient:
        """A new client with a maximally stale bitmap and the current map."""
        return ServiceClient(client_id, GigaBitmap(), self.coordinator.map, tenant)

    # -- server-side op (simulation process) ---------------------------
    def _serve(self, server_idx: int, kind: str, name: str, h: int):
        """Serve one op on ``server_idx``; returns ``(status, payload)``.

        ``status`` is ``"ok"`` (payload: True/False membership for
        lookup, hop count irrelevant here), ``"redirect"`` (the
        client must merge the authoritative bitmap + current map and
        retry at the new owner), or ``"down"`` (connection refused —
        retry through the coordinator).
        """
        p = self.params
        srv = self.servers[server_idx]
        if not srv.up and not (yield from srv._parked_until_up()):
            return "down", None
        grant = yield Acquire(srv.res)
        yield Timeout(p.op_service_s * srv.slowdown)
        true_partition = self.bitmap.partition_of(h)
        owner = self.coordinator.map.owner(true_partition)
        if owner != server_idx:
            # addressing error: the reply carries the bitmap + map hint
            self.counters.add("addressing_errors")
            srv.res.release(grant)
            return "redirect", owner
        payload: object = True
        if kind == "create":
            bucket = self.entries.setdefault(true_partition, {})
            bucket[name] = h
            self.counters.add("creates")
            if len(bucket) > p.split_threshold:
                yield from self._split(true_partition, server_idx)
        else:  # lookup
            payload = name in self.entries.get(true_partition, {})
            self.counters.add("lookups")
        srv.res.release(grant)
        return "ok", payload

    def _split(self, partition: int, server_idx: int):
        """Split a hot shard while holding its owner; the commit is atomic.

        The relocation cost is paid *first*; the bitmap/bucket mutation
        happens in one event afterwards.  A reject-crash landing inside
        the cost window aborts before the commit (``splits_aborted``),
        so a mid-split crash never leaks a half-moved or doubly-owned
        partition.  Max-depth and one-sided splits are no-ops
        (``splits_skipped``) — never an empty sibling.
        """
        p = self.params
        bucket = self.entries[partition]
        if not self.bitmap.useful_split(partition, bucket.values()):
            self.counters.add("splits_skipped")
            return
        r = self.bitmap.radix[partition]
        movers = [n for n, hh in bucket.items() if (hh >> r) & 1]
        yield Timeout(len(movers) * p.per_entry_move_s + p.op_service_s)
        srv = self.servers[server_idx]
        if not srv.up and not srv.park:
            self.counters.add("splits_aborted")
            return
        child = self.bitmap.split(partition)
        child_bucket = self.entries.setdefault(child, {})
        for n in movers:
            child_bucket[n] = bucket.pop(n)
        self.counters.add("splits")
        self.counters.add("entries_moved", len(movers))
        if self.coordinator.map.owner(child) != server_idx:
            self.counters.add("shard_handoffs")

    # -- client-side ops (simulation processes) -------------------------
    def client_create(self, client: ServiceClient, name: str, ctx=None):
        """Create ``name``; returns hops taken (1 = no redirect)."""
        _, hops = yield from self._client_op("create", client, name, ctx)
        return hops

    def client_lookup(self, client: ServiceClient, name: str, ctx=None):
        """Membership lookup; returns ``(found, hops)``."""
        return (yield from self._client_op("lookup", client, name, ctx))

    def _client_op(self, kind: str, client: ServiceClient, name: str, ctx=None):
        """Address, send and (on redirect / dead hop) retry one op;
        returns ``(payload, hops)``."""
        p = self.params
        obs = self.sim.obs
        span = None
        if obs is not None:
            if ctx is None:
                ctx = obs.request_context(op=kind, origin="giga.svc", tenant=client.tenant)
            span = obs.tracer.start(
                f"giga.svc.{kind}", at=self.sim.now, **ctx.span_attrs()
            )
        h = hash_name(name)
        hops = redirects = dead = 0
        while True:
            target = client.map.owner(client.bitmap.partition_of(h))
            hops += 1
            yield from self._rpc(client.client_id, target, ctx)
            status, payload = yield from self._serve(target, kind, name, h)
            if status == "ok":
                break
            if status == "redirect":
                redirects += 1
                self.counters.add("redirects")
                # the stale-bitmap hint: merge the authoritative split
                # history and the current map off the reply
                client.bitmap.merge_from(self.bitmap)
                client.map = self.coordinator.map
                if redirects > p.max_redirects:
                    raise RetriesExhausted(
                        f"giga.svc.{kind} {name!r}: {redirects} redirects "
                        f"(map v{client.map.version}); addressing diverged"
                    )
            else:  # dead target: back off, re-fetch the map, retry
                dead += 1
                self.counters.add("dead_hops")
                if ctx is not None:
                    ctx.retries += 1
                if dead > p.max_retries:
                    raise RetriesExhausted(
                        f"giga.svc.{kind} {name!r}: server {target} down and "
                        f"{dead} retries exhausted"
                    )
                yield Timeout(p.retry_backoff_s)
                client.map = yield from self.coordinator.fetch_map(ctx)
        if span is not None:
            span.attrs["hops"] = hops
            span.attrs["redirects"] = redirects
            span.attrs["retries"] = dead
            span.finish(at=self.sim.now)
        return payload, hops

    def client_readdir(self, client: ServiceClient, ctx=None):
        """Directory scan: visit every partition's owner, merging pages.

        GIGA+ readdir is inherently a sweep over all partitions (the price
        of hash partitioning); the client first syncs its bitmap and map
        so it enumerates the complete, current partition set.  A down
        owner raises :class:`~repro.faults.errors.ServerDown` rather than
        return a partial listing.  Returns the sorted entry names.
        """
        p = self.params
        client.bitmap.merge_from(self.bitmap)
        client.map = self.coordinator.map
        names: list[str] = []
        for partition in client.bitmap.partitions():
            owner = client.map.owner(partition)
            yield from self._rpc(client.client_id, owner, ctx)
            srv = self.servers[owner]
            if not srv.up:
                raise ServerDown(owner, self.sim.now)
            grant = yield Acquire(srv.res)
            bucket = self.entries.get(partition, {})
            # one op plus per-entry marshaling cost
            yield Timeout(
                (p.op_service_s + len(bucket) * p.per_entry_move_s) * srv.slowdown
            )
            names.extend(bucket)
            srv.res.release(grant)
            self.counters.add("readdir_pages")
        return sorted(names)

    def _rpc(self, client_id: int, server_idx: int, ctx=None):
        """One client→server network leg.

        Ideal fabric: the historical flat RPC delay.  Finite fabric: the
        payload rides the shared topology (rack-aware under leaf/spine,
        drops/RTOs attributed to ``ctx``) on top of the software delay.
        """
        p = self.params
        yield Timeout(p.client_rpc_s)
        if not p.fabric.ideal:
            yield from self.topology.to_server(
                server_idx, p.rpc_bytes, ctx=ctx, src_client=client_id
            )

    # -- integrity ------------------------------------------------------
    def check_invariants(self) -> None:
        """Directory + ownership integrity (raises AssertionError).

        Every entry is filed in exactly one bucket, at the deepest
        partition its hash addresses; every partition has exactly one
        owner and that owner is online; no non-root partition is an
        empty sibling.
        """
        self.bitmap.check_invariants()
        seen: dict[str, int] = {}
        for partition, bucket in self.entries.items():
            if bucket:
                assert partition in self.bitmap.radix
            for name, h in bucket.items():
                assert name not in seen, (
                    f"{name} doubly filed ({seen[name]} and {partition})"
                )
                seen[name] = partition
                assert self.bitmap.partition_of(h) == partition, (
                    f"{name} misfiled in partition {partition}"
                )
        for partition in self.bitmap.partitions():
            owner = self.coordinator.map.owner(partition)
            assert owner in self.coordinator.online, (
                f"partition {partition} owned by offline server {owner}"
            )
            if partition != 0:
                assert self.entries.get(partition), (
                    f"partition {partition} is an empty sibling"
                )


# -- the storm workload (Fig 7, X20) -----------------------------------
@dataclass
class StormResult:
    """Aggregate outcome of a create+lookup storm against the service."""

    n_servers: int
    n_clients: int
    creates: int
    lookups: int
    found: int
    create_phase_s: float
    lookup_phase_s: float
    makespan_s: float
    partitions: int
    splits: int
    splits_skipped: int
    entries_moved: int
    redirects_create: int
    redirects_lookup: int
    dead_hops: int
    failovers: int
    rejoins: int
    map_version: int
    shard_spread: dict[int, int] = field(default_factory=dict)

    @property
    def creates_per_s(self) -> float:
        return self.creates / self.create_phase_s if self.create_phase_s else 0.0

    @property
    def lookups_per_s(self) -> float:
        return self.lookups / self.lookup_phase_s if self.lookup_phase_s else 0.0

    @property
    def mean_redirects_create(self) -> float:
        return self.redirects_create / self.creates if self.creates else 0.0

    @property
    def mean_redirects_lookup(self) -> float:
        """Warm-map redirect cost: redirects per op in the lookup phase."""
        return self.redirects_lookup / self.lookups if self.lookups else 0.0


def run_storm(
    n_servers: int,
    n_clients: int,
    files_per_client: int,
    params: Optional[ServiceParams] = None,
    faults=None,
    lookups_per_client: Optional[int] = None,
    seed: int = 0,
) -> StormResult:
    """Create storm then lookup storm against a fresh service.

    Phase 1: every client creates its files (maps start maximally stale
    and warm up through redirects).  Phase 2: every client looks up a
    seeded shuffle of the *global* namespace — the warm-map regime the
    X20 redirect criterion measures.  ``faults`` (a
    :class:`repro.faults.FaultSchedule`) is injected from t=0; every
    operation must still complete — clients ride out crashes via
    coordinator retries.  Deterministic for a given argument tuple.
    """
    import numpy as np

    base = params or ServiceParams()
    p = ServiceParams(**{**base.__dict__, "n_servers": n_servers})
    sim = Simulator()
    service = GigaService(sim, p)
    if faults is not None:
        faults.inject(sim, service)

    names = [f"f.{c}.{i}" for c in range(n_clients) for i in range(files_per_client)]
    n_lookups = files_per_client if lookups_per_client is None else lookups_per_client
    clients = [service.client(c) for c in range(n_clients)]
    create_ends: list[float] = []
    lookup_ends: list[float] = []
    found = [0]

    def create_proc(c: int):
        for i in range(files_per_client):
            yield from service.client_create(clients[c], f"f.{c}.{i}")
        create_ends.append(sim.now)

    def lookup_proc(c: int, targets: list[str]):
        for name in targets:
            ok, _hops = yield from service.client_lookup(clients[c], name)
            if ok:
                found[0] += 1
        lookup_ends.append(sim.now)

    for c in range(n_clients):
        sim.spawn(create_proc(c), name=f"gigacli{c}")
    sim.run()
    create_phase_s = max(create_ends) if create_ends else 0.0
    redirects_after_create = int(service.counters["redirects"])

    rng = np.random.default_rng(seed)
    for c in range(n_clients):
        picks = rng.integers(0, len(names), size=n_lookups)
        sim.spawn(
            lookup_proc(c, [names[k] for k in picks]), name=f"gigacli{c}"
        )
    sim.run()
    lookup_phase_s = (max(lookup_ends) - create_phase_s) if lookup_ends else 0.0
    service.check_invariants()

    cnt = service.counters
    return StormResult(
        n_servers=n_servers,
        n_clients=n_clients,
        creates=int(cnt["creates"]),
        lookups=int(cnt["lookups"]),
        found=found[0],
        create_phase_s=create_phase_s,
        lookup_phase_s=lookup_phase_s,
        makespan_s=sim.now,
        partitions=len(service.bitmap),
        splits=int(cnt["splits"]),
        splits_skipped=int(cnt["splits_skipped"]),
        entries_moved=int(cnt["entries_moved"]),
        redirects_create=redirects_after_create,
        redirects_lookup=int(cnt["redirects"]) - redirects_after_create,
        dead_hops=int(cnt["dead_hops"]),
        failovers=service.coordinator.failovers,
        rejoins=service.coordinator.rejoins,
        map_version=service.coordinator.map.version,
        shard_spread=service.coordinator.map.spread(service.bitmap.partitions()),
    )
