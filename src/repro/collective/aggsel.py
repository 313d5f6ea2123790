"""Fabric-aware aggregator selection for two-phase collective I/O.

Under a finite-buffer fabric the two phases of a collective write are
themselves incasts: phase 1 converges every rank's shuffle flow on each
aggregator's switch port, and phase 2 converges the aggregators' writes
on the storage servers' ports.  The PDSI incast study shows what happens
when such a synchronized fan-in exceeds a port's output buffer — full-
window losses idle the flow for a (min-)RTO while the link sits dark.

This module chooses the aggregator **count** and **placement** against
:class:`repro.net.params.FabricParams` instead of from the file layout
alone:

* **count** — start from one aggregator per storage server (the most
  phase-2 parallelism the servers can use) and shrink while the implied
  per-flow shuffle slice is thinner than one initial congestion window:
  sub-window flows pay pure round-trip latency per slice, so splitting
  further cannot help;
* **placement** — each aggregator's file domain is a *server column*:
  the union of every stripe chunk living on that aggregator's group of
  servers.  Phase-2 traffic into any server port then comes from exactly
  one aggregator (fan-in 1), and domain boundaries are stripe-aligned so
  no lock block is ever shared between aggregators;
* **fan-in bound** — the phase-1 shuffle is throttled to
  :meth:`repro.net.port.SwitchPort.safe_fanin` concurrent senders per
  aggregator port: every admitted flow's initial window fits the port
  buffer simultaneously, so the shuffle cannot trigger a full-window
  loss (the RTO path).  An optional :class:`repro.net.feedback.
  FabricFeedback` cost discounts the headroom of a port that is already
  carrying background traffic.

The ideal fabric degenerates gracefully: the fan-in cap becomes
unbounded.  The count rule still applies, because phase-1 flows are
windowed flows on every fabric and a sub-window slice pays round trips
whatever the buffer size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.params import FabricParams, Link
from repro.net.port import SwitchPort
from repro.pfs.params import PFSParams
from repro.workloads.patterns import Pattern, overlap_bytes

Extents = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class AggregatorPlan:
    """One resolved aggregator assignment for a collective write.

    Attributes
    ----------
    scheme: the scheme label this plan implements (``"fabric-aware"``).
    n_aggregators: chosen aggregator count (may differ from the
        requested count when the fabric math says so).
    requested_aggregators: the caller's hint, recorded for reporting.
    domains: per-aggregator file domains as tuples of disjoint half-open
        ``(lo, hi)`` byte extents, in ascending order.
    server_groups: per-aggregator tuple of storage-server indices whose
        stripe chunks make up that aggregator's domain.
    phase1_fanin_cap: max concurrent shuffle senders per aggregator
        switch port (``2**30`` on an ideal fabric).
    aggregator_clients: on a leaf/spine topology, the client id each
        aggregator should run as — co-racked with its server group so
        phase-2 writes never cross a spine uplink; ``None`` on a flat
        topology (aggregator ``g`` runs as client ``g``).
    """

    scheme: str
    n_aggregators: int
    requested_aggregators: int
    domains: tuple[Extents, ...]
    server_groups: tuple[tuple[int, ...], ...]
    phase1_fanin_cap: int
    aggregator_clients: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.n_aggregators != len(self.domains):
            raise ValueError("one domain per aggregator required")
        if self.phase1_fanin_cap < 1:
            raise ValueError("phase-1 fan-in cap must be >= 1")
        if (
            self.aggregator_clients is not None
            and len(self.aggregator_clients) != self.n_aggregators
        ):
            raise ValueError("one client id per aggregator required")


def server_column_domains(
    total_bytes: int,
    n_servers: int,
    stripe_unit: int,
    n_aggregators: int,
    shift: int = 0,
) -> tuple[list[Extents], list[tuple[int, ...]]]:
    """Partition ``[0, total_bytes)`` into per-aggregator server columns.

    Servers are split into ``n_aggregators`` contiguous groups (sizes
    differing by at most one); aggregator ``g``'s domain is every stripe
    chunk whose server — ``(chunk + shift) % n_servers`` under the
    shifted round-robin :class:`repro.pfs.layout.StripeLayout` — falls
    in group ``g``.  Adjacent chunks of one group merge into runs, so a
    group of ``k`` consecutive servers yields extents of ``k *
    stripe_unit`` bytes every ``n_servers * stripe_unit`` bytes.

    Returns ``(domains, groups)``; zero-byte domains are never emitted
    (a tail shorter than one round of chunks can leave late groups
    empty — those aggregators are dropped by the caller).
    """
    if n_aggregators < 1 or n_servers < 1 or stripe_unit < 1:
        raise ValueError("need n_aggregators, n_servers, stripe_unit >= 1")
    n_aggregators = min(n_aggregators, n_servers)
    base, extra = divmod(n_servers, n_aggregators)
    groups: list[tuple[int, ...]] = []
    start = 0
    for g in range(n_aggregators):
        size = base + (1 if g < extra else 0)
        groups.append(tuple(range(start, start + size)))
        start += size
    return domains_for_groups(total_bytes, n_servers, stripe_unit, groups, shift), groups


def domains_for_groups(
    total_bytes: int,
    n_servers: int,
    stripe_unit: int,
    groups: list[tuple[int, ...]],
    shift: int = 0,
) -> list[Extents]:
    """Per-group stripe-chunk domains for an *explicit* server grouping.

    The chunk-ownership half of :func:`server_column_domains`, reusable
    with rack-aligned groups from :func:`rack_aligned_groups`.
    """
    owner = {}
    for g, members in enumerate(groups):
        for s in members:
            owner[s] = g
    n_units = -(-total_bytes // stripe_unit)  # ceil
    extents: list[list[tuple[int, int]]] = [[] for _ in range(len(groups))]
    for chunk in range(n_units):
        g = owner[(chunk + shift) % n_servers]
        lo = chunk * stripe_unit
        hi = min(lo + stripe_unit, total_bytes)
        runs = extents[g]
        if runs and runs[-1][1] == lo:
            runs[-1] = (runs[-1][0], hi)
        else:
            runs.append((lo, hi))
    return [tuple(e) for e in extents]


def rack_aligned_groups(n_servers: int, n_groups: int, topology) -> list[tuple[int, ...]]:
    """Split servers into groups that never straddle a rack boundary.

    Every group is a subset of one rack's servers, so an aggregator
    co-racked with its group (via
    :attr:`AggregatorPlan.aggregator_clients`) writes phase 2 without
    touching a spine uplink.  Each rack gets at least one group; extra
    groups go to the racks with the most servers per group (largest
    remainder, ties to the lower rack id — deterministic).
    """
    racks: dict[int, list[int]] = {}
    for s in range(n_servers):
        racks.setdefault(topology.server_rack(s), []).append(s)
    rack_ids = sorted(racks)
    n_groups = max(len(rack_ids), min(n_groups, n_servers))
    quota = {r: 1 for r in rack_ids}
    left = n_groups - len(rack_ids)
    while left > 0:
        open_racks = [r for r in rack_ids if quota[r] < len(racks[r])]
        if not open_racks:
            break
        r = max(open_racks, key=lambda r: (len(racks[r]) / quota[r], -r))
        quota[r] += 1
        left -= 1
    groups: list[tuple[int, ...]] = []
    for r in rack_ids:
        members = racks[r]
        k = min(quota[r], len(members))
        base, extra = divmod(len(members), k)
        start = 0
        for i in range(k):
            size = base + (1 if i < extra else 0)
            groups.append(tuple(members[start:start + size]))
            start += size
    return groups


def shuffle_matrix(
    pattern: Pattern, domains: tuple[Extents, ...] | list[Extents]
) -> list[list[tuple[int, int]]]:
    """Per-aggregator phase-1 sender list: ``[(rank, nbytes), ...]``.

    Entry ``g`` holds every rank with a positive byte overlap against
    aggregator ``g``'s domain — exactly the flows that will converge on
    that aggregator's switch port during the shuffle.
    """
    out: list[list[tuple[int, int]]] = []
    for extents in domains:
        sends = []
        for rank, writes in enumerate(pattern):
            nb = overlap_bytes(writes, extents)
            if nb > 0:
                sends.append((rank, nb))
        out.append(sends)
    return out


def phase1_fanin_cap(
    params: PFSParams,
    fabric: Optional[FabricParams] = None,
    cost: float = 0.0,
) -> int:
    """The per-aggregator-port shuffle fan-in bound for this deployment.

    Builds the aggregator's client-side port geometry (client link +
    fabric) and delegates to :meth:`repro.net.port.SwitchPort.
    safe_fanin`; ``cost`` is a congestion discount, typically the
    relevant :class:`repro.net.feedback.FabricFeedback` EWMA cost.
    """
    fab = fabric if fabric is not None else params.fabric
    port = SwitchPort(Link(params.client_nic_Bps), fab)
    return port.safe_fanin(cost=cost)


def select_aggregators(
    total_bytes: int,
    n_ranks: int,
    params: PFSParams,
    pattern: Optional[Pattern] = None,
    requested: Optional[int] = None,
    feedback=None,
    shift: int = 0,
    topology=None,
) -> AggregatorPlan:
    """Choose aggregator count and placement against the fabric.

    Parameters
    ----------
    total_bytes: collective write size in bytes.
    n_ranks: application processes feeding the shuffle.
    params: the target :class:`~repro.pfs.params.PFSParams` (supplies
        ``n_servers``, ``stripe_unit``, ``client_nic_Bps`` and the
        :class:`~repro.net.params.FabricParams`).
    pattern: optional per-rank write pattern; when given, the count
        search checks *actual* shuffle-slice sizes instead of the even
        estimate.
    requested: the caller's aggregator-count hint (recorded in the
        plan; the fabric math may override it).
    feedback: optional :class:`~repro.net.feedback.FabricFeedback`; its
        maximum current port cost discounts the phase-1 fan-in bound
        (a switch already hot from background traffic has less buffer
        headroom to offer a synchronized shuffle).
    shift: the file's starting-server rotation
        (:attr:`repro.pfs.system.FileHandle.shift`).
    topology: optional :class:`~repro.net.fabric.Topology`; on a
        leaf/spine fabric the server groups become rack-aligned (no
        group straddles a spine uplink, so per-uplink phase-2 fan-in is
        bounded by the rack's own aggregators) and the plan carries
        co-racked :attr:`~AggregatorPlan.aggregator_clients`.  A flat
        topology (or ``None``) changes nothing.

    The count rule: start at ``min(n_servers, n_ranks)`` — one server
    group per aggregator maximizes phase-2 parallelism while keeping
    per-server-port fan-in at 1 — then halve while the thinnest phase-1
    flow would carry less than one initial congestion window of data
    (``init_cwnd * pkt_bytes``): flows below that floor are pure
    latency, so more aggregators only multiply round trips.  On a
    leaf/spine topology the count never drops below the rack count
    (each rack keeps a local aggregator).
    """
    if total_bytes < 1 or n_ranks < 1:
        raise ValueError("need total_bytes and n_ranks >= 1")
    fab = params.fabric
    cost = 0.0
    if feedback is not None:
        costs = feedback.costs()
        cost = max(costs) if costs else 0.0
    cap = phase1_fanin_cap(params, fab, cost=cost)
    floor_bytes = fab.init_cwnd * fab.pkt_bytes
    ls_topo = topology if getattr(topology, "leafspine", None) is not None else None

    def resolve(n: int) -> tuple[list[Extents], list[tuple[int, ...]]]:
        if ls_topo is None:
            return server_column_domains(
                total_bytes, params.n_servers, params.stripe_unit, n, shift=shift
            )
        groups = rack_aligned_groups(params.n_servers, n, ls_topo)
        domains = domains_for_groups(
            total_bytes, params.n_servers, params.stripe_unit, groups, shift=shift
        )
        return domains, groups

    floor_n = 1
    if ls_topo is not None:
        floor_n = len({ls_topo.server_rack(s) for s in range(params.n_servers)})
    n = max(floor_n, min(params.n_servers, n_ranks))
    while n > floor_n:
        domains, groups = resolve(n)
        if pattern is not None:
            slices = [nb for sends in shuffle_matrix(pattern, domains) for _, nb in sends]
        else:
            slices = [total_bytes // (n_ranks * n)]
        thinnest = min(slices) if slices else 0
        if thinnest >= floor_bytes:
            break
        n = max(floor_n, n // 2)
    domains, groups = resolve(n)
    keep = [g for g, exts in enumerate(domains) if exts]
    aggregator_clients = None
    if ls_topo is not None:
        placed: dict[int, int] = {}
        clients = []
        for g in keep:
            rack = ls_topo.server_rack(groups[g][0])
            k = placed.get(rack, 0)
            placed[rack] = k + 1
            clients.append(ls_topo.client_for_rack(rack, k))
        aggregator_clients = tuple(clients)
    return AggregatorPlan(
        scheme="fabric-aware",
        n_aggregators=len(keep),
        requested_aggregators=requested if requested is not None else n,
        domains=tuple(domains[g] for g in keep),
        server_groups=tuple(groups[g] for g in keep),
        phase1_fanin_cap=cap,
        aggregator_clients=aggregator_clients,
    )
