"""Fluid drive mode for the shared fabric: tick-coalesced max-min rates.

The exact windowed engine (:meth:`repro.net.fabric.Topology._windowed`)
spends ~6 simulator events per congestion-window round per flow; a
million-client storm is simply not reachable that way.  This module is
the coarse companion mode (``FabricParams.mode="fluid"``): flows are
*rates*, not packets.  Each active flow holds a share of every
:class:`~repro.net.port.SwitchPort` on its hop path, shares are the
max-min fair allocation (progressive filling: a flow keeps its edge
rate until the flows sharing a hop oversubscribe it, and that hop is
then divided fairly), and the simulator only wakes the engine when the
allocation can change:

* an **arrival batch** — every flow that starts at the same simulated
  instant joins in one wakeup (``Simulator.call_at_coalesced``, so ten
  thousand synchronized RPCs cost one heap entry);
* a **completion batch** — flows whose remaining bytes drain within one
  tick of the earliest finisher complete together;
* a **stall expiry** or a **blackout/restore** transition.

Between wakeups rates are frozen, so each epoch costs one vectorized
pass over the active flows (numpy struct-of-arrays) instead of a heap
event per packet round.

Matching the exact mode
-----------------------
Two deterministic corrections keep fluid completion times inside the
documented tolerance of the exact engine (see ``docs/performance.md``):

1. **Latency surcharge** — an uncontended exact flow of ``N`` packets
   over hops with packet times ``pt_h`` finishes in ``N * sum(pt_h) +
   R(N) * rtt`` where :func:`windowed_rounds` gives the closed-form ack
   round count ``R(N)`` of the cwnd ramp.  The engine serves the flow's
   bytes at the bottleneck hop's line rate (``N * max(pt_h)``), and the
   caller charges the remainder — ``R(N)*rtt + N*(sum(pt_h) -
   max(pt_h))`` — as a plain timeout after the drain.  Uncontended
   fluid therefore equals uncontended exact *identically*, for any flow
   size, window cap, and hop count.
2. **Burst-stall probe** — max-min sharing alone cannot reproduce the
   incast cliff (a synchronized fan-in overflowing a port buffer causes
   *full-window* losses, and those flows sit out a 200 ms RTO — the
   x14 collapse).  :func:`burst_stalls` replays the windowed round
   dynamics for a synchronized arrival cohort in one vectorized loop
   (tail-drop in arrival order, halve on partial loss, RTO on
   full-window loss) and returns each flow's total RTO stall; stalled
   flows simply join the rate allocation late.  No per-packet events,
   same cliff.

Determinism: the engine consumes no randomness — tail-drop order is
arrival order, and all arithmetic is order-stable — so same-seed runs
are identical, like every other part of the kernel.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional

import numpy as np

#: Rate assigned to a flow whose every hop has infinite bandwidth.
_INF_RATE = 1e30

#: A flow is complete when this many bytes (or fewer) remain — guards
#: float rounding in ``rem -= rate * dt`` against eta arithmetic.
_EPS_BYTES = 1e-6

#: Hard iteration cap for one burst probe (storms retry in generations;
#: each generation costs ~2 iterations, so this is far past any real
#: cohort).  Hitting it returns the stalls accumulated so far.
_PROBE_MAX_ITERS = 200_000

#: Cohorts up to this many flows are probed with the exact staggered
#: replay (:func:`_staggered_stalls` — a heap event per flow round);
#: larger cohorts use the vectorized generational model, whose cost is
#: O(rounds) numpy passes regardless of fan-in.
_STAGGER_MAX_FLOWS = 512


def windowed_rounds(npkts: int, init_cwnd: int, max_cwnd: int) -> int:
    """Ack rounds the exact windowed engine needs for an uncontended flow.

    The window ramps ``init_cwnd, init_cwnd+1, …, max_cwnd`` (one more
    packet per clean round) and then stays at ``max_cwnd``; each round
    costs one RTT for the acknowledgement.  Closed form, O(1).

    >>> windowed_rounds(1, 2, 64)
    1
    >>> windowed_rounds(44, 2, 64)     # 2+3+4+5+6+7+8+9 = 44
    8
    >>> windowed_rounds(2079, 2, 64)   # the full 2..64 ramp
    63
    >>> windowed_rounds(2080, 2, 64)   # one packet into steady state
    64
    >>> windowed_rounds(100, 4, 4)     # capped window: pure division
    25
    """
    if npkts <= 0:
        return 0
    ramp = max_cwnd - init_cwnd + 1  # rounds before the window caps
    b = 2 * init_cwnd - 1
    # smallest k with k*init + k(k-1)/2 >= npkts, via the quadratic root
    k = (math.isqrt(b * b + 8 * npkts) - b) // 2
    while k * init_cwnd + k * (k - 1) // 2 < npkts:
        k += 1
    while k > 1 and (k - 1) * init_cwnd + (k - 1) * (k - 2) // 2 >= npkts:
        k -= 1
    if k <= ramp:
        return k
    full_ramp = ramp * init_cwnd + ramp * (ramp - 1) // 2
    return ramp + -(-(npkts - full_ramp) // max_cwnd)


def lockstep_tail_s(
    npkts: int,
    init_cwnd: int,
    max_cwnd: int,
    n_flows: int,
    pkt_time_s: float,
    rtt_s: float,
) -> float:
    """Unoverlapped ack-gap time for one member of a *clean* cohort.

    ``n_flows`` synchronized flows that never lose a packet stay in
    lockstep in the exact engine: each round every flow transmits its
    window (serialized through the shared link) and then idles one RTT
    for the ack.  Between consecutive rounds the link sits idle for
    ``max(0, rtt - (n-1) * w_r * pkt_time)`` — the part of the ack gap
    the other members' round-``r`` transmissions don't cover — where
    ``w_r`` is the window actually sent (the additive ramp ``init,
    init+1, …, max_cwnd`` clamped to the packets remaining).  The RTT
    after the *final* burst has nothing following it, so it is always
    paid in full.

    Solo (``n_flows == 1``) this degenerates to the full
    ``windowed_rounds * rtt`` ack tail of an uncontended flow:

    >>> round(lockstep_tail_s(44, 2, 64, 1, 12e-6, 100e-6) * 1e6)
    800

    A single-round cohort keeps the whole terminal RTT; with peers
    transmitting during the inter-round gaps the rest shrinks and, once
    ``(n-1) * w * pkt_time`` exceeds the RTT, vanishes:

    >>> lockstep_tail_s(1, 2, 64, 7, 13.4e-6, 100e-6) == 100e-6
    True
    >>> round(lockstep_tail_s(44, 2, 64, 2, 12e-6, 100e-6) * 1e6)
    380
    >>> lockstep_tail_s(1000, 2, 64, 8, 12e-6, 100e-6) == 100e-6
    True
    """
    m = max(0, n_flows - 1) * pkt_time_s
    init = min(init_cwnd, max_cwnd)
    tail = 0.0
    sent, c = 0, init
    while sent < npkts:
        w = min(c, npkts - sent)
        sent += w
        if sent >= npkts:
            break  # final round: terminal RTT added below, no gap math
        gap = rtt_s - m * w
        if gap > 0.0:
            tail += gap
        if c == max_cwnd and gap <= 0.0:
            # steady state with saturated gaps: every remaining
            # non-final round is a full max_cwnd round contributing
            # nothing, and the final round adds no gap either
            break
        c = min(c + 1, max_cwnd)
    return tail + rtt_s


def _staggered_stalls(
    sizes_pkts: np.ndarray,
    cwnd_caps: np.ndarray,
    *,
    init_cwnd: int,
    cap_pkts: int,
    pkt_time_s: float,
    rtt_s: float,
    rto_s: float,
):
    """Exact replay of the windowed round mechanics for one cohort.

    Mirrors :meth:`Topology._windowed` on the cohort's shared
    destination hop: every flow's round *admits* against the buffer at
    its round-start instant, then queues FIFO for the capacity-1 link
    (``Acquire(p.res)``), transmits ``admit * pkt_time_s``, drains, and
    waits one RTT for the ack.  The serialization is what staggers an
    initially synchronized cohort — flow *k*'s second round starts
    ``k`` transmissions after flow 0's — and that stagger is exactly
    why a moderate fan-in survives (drains free buffer between the
    staggered admissions) while a wide one collapses.  One heap event
    per flow round; no per-packet events.
    """
    n = len(sizes_pkts)
    rem = [int(x) for x in sizes_pkts]
    caps = [int(c) for c in cwnd_caps]
    cwnd = [min(init_cwnd, c) for c in caps]
    stall = np.zeros(n)
    timeouts = np.zeros(n, dtype=np.int64)
    drops = np.zeros(n, dtype=np.int64)
    backlog = 0          # packets admitted but not yet drained
    busy_until = 0.0     # the link: capacity-1 FIFO resource
    seq = n
    # (time, prio, seq, payload): prio 0 = drain of `payload` packets,
    # prio 1 = admission attempt by flow `payload`.  Drains sort first
    # at a tied timestamp (transmission end frees the buffer before a
    # simultaneous round-start reads it); seq keeps ties deterministic
    # in arrival order.
    h: list = [(0.0, 1, k, k) for k in range(n)]
    for _ in range(_PROBE_MAX_ITERS):
        if not h:
            break
        t, prio, _, x = heapq.heappop(h)
        if prio == 0:
            backlog -= x
            continue
        k = x
        want = min(cwnd[k], rem[k])
        admit = min(want, cap_pkts - backlog)
        if admit <= 0:
            # full-window loss: nothing in flight, sit out the RTO
            drops[k] += want
            timeouts[k] += 1
            stall[k] += rto_s
            cwnd[k] = min(init_cwnd, caps[k])
            seq += 1
            heapq.heappush(h, (t + rto_s, 1, seq, k))
            continue
        if admit < want:
            drops[k] += want - admit
            cwnd[k] = max(1, cwnd[k] // 2)
        else:
            cwnd[k] = min(cwnd[k] + 1, caps[k])
        backlog += admit
        start = max(t, busy_until)
        busy_until = start + admit * pkt_time_s
        seq += 1
        heapq.heappush(h, (busy_until, 0, seq, admit))
        rem[k] -= admit
        if rem[k] > 0:
            seq += 1
            heapq.heappush(h, (busy_until + rtt_s, 1, seq, k))
    return stall, timeouts, drops


def burst_stalls(
    sizes_pkts: np.ndarray,
    cwnd_caps: np.ndarray,
    *,
    init_cwnd: int,
    cap_pkts: int,
    pkt_time_s: float,
    rtt_s: float,
    rto_s: float,
):
    """Replay a synchronized burst through the windowed round dynamics.

    ``sizes_pkts`` flows inject into one port at t=0.  Each round every
    awake flow offers ``min(cwnd, remaining)``; what the port buffer
    cannot hold is tail-dropped.  A flow admitting nothing suffers a
    full-window loss and sleeps one RTO (window back to ``init_cwnd``);
    a partial loss halves the window; a clean round grows it by one up
    to the flow's cap.

    Cohorts of at most :data:`_STAGGER_MAX_FLOWS` flows run the exact
    staggered replay (:func:`_staggered_stalls`): the capacity-1 link
    resource serializes transmissions, so round starts spread out and
    drains free buffer between the staggered admissions — a moderate
    fan-in (the x14 8-wide stripe) takes only partial losses while a
    wide one (16- and 32-wide) pushes its tail into full-window RTOs,
    matching the exact engine's cliff flow for flow.

    Wider cohorts (storms) fall back to a vectorized generational
    model: lockstep tail-drop in arrival order until the first RTO
    expiry, then largest-remainder proportional admission — every flow
    whose share rounds to at least one packet halves and continues, and
    only a fan-in genuinely wider than the round capacity pays further
    full-window generations.  Cost is O(rounds) numpy passes no matter
    how many flows.

    Returns ``(stall_s, timeouts, drops)`` per flow: total seconds spent
    waiting out RTOs, full-window-loss count, and packets not admitted.
    Deterministic — no randomness, arrival order decides the tail.

    >>> import numpy as np
    >>> s, t, d = burst_stalls(           # 16 x 44-pkt flows, 64-pkt buffer:
    ...     np.full(16, 44), np.full(16, 64),          # the x14 w=16 shape
    ...     init_cwnd=2, cap_pkts=71, pkt_time_s=13.4e-6,
    ...     rtt_s=100e-6, rto_s=0.2)
    >>> int((s > 0).sum()) > 0                  # the tail sits out an RTO
    True
    >>> s, t, d = burst_stalls(           # 8 x 88-pkt flows: partial losses
    ...     np.full(8, 88), np.full(8, 64),            # only, no collapse
    ...     init_cwnd=2, cap_pkts=71, pkt_time_s=13.4e-6,
    ...     rtt_s=100e-6, rto_s=0.2)
    >>> float(s.max())
    0.0
    """
    n = len(sizes_pkts)
    if n <= _STAGGER_MAX_FLOWS:
        return _staggered_stalls(
            sizes_pkts, cwnd_caps,
            init_cwnd=init_cwnd, cap_pkts=cap_pkts,
            pkt_time_s=pkt_time_s, rtt_s=rtt_s, rto_s=rto_s,
        )
    sizes = np.asarray(sizes_pkts, dtype=np.int64)
    if n > cap_pkts and bool((sizes == 1).all()):
        # uniform single-packet storm (the metadata-RPC shape), closed
        # form: each RTO generation admits one buffer's worth in arrival
        # order, everyone else bounces and retries — flow k is served in
        # generation k // cap_pkts, having lost its packet once per
        # generation it sat out.  O(n) instead of O(generations) passes.
        gen = np.arange(n, dtype=np.int64) // cap_pkts
        return gen * rto_s, gen.copy(), gen.copy()
    rem = sizes.copy()
    caps = np.asarray(cwnd_caps, dtype=np.int64)
    cwnd = np.minimum(np.full(n, init_cwnd, dtype=np.int64), caps)
    wake = np.zeros(n)
    stall = np.zeros(n)
    timeouts = np.zeros(n, dtype=np.int64)
    drops = np.zeros(n, dtype=np.int64)
    t = 0.0
    desync_at = math.inf  # first RTO expiry: lockstep ends there
    idxmap = np.arange(n)  # row -> original flow (rows compact away)
    for _ in range(_PROBE_MAX_ITERS):
        live = rem > 0
        nlive = int(live.sum())
        if nlive == 0:
            break
        if 2 * nlive < len(rem):
            # compact finished flows away so a storm's generational tail
            # costs O(live) per round, not O(cohort)
            rem, cwnd, caps = rem[live], cwnd[live], caps[live]
            wake, idxmap = wake[live], idxmap[live]
            live = rem > 0
        active = live & (wake <= t + 1e-12)
        if not active.any():
            t = float(wake[live].min())
            continue
        want = np.where(active, np.minimum(cwnd, rem), 0)
        total_want = int(want.sum())
        if total_want <= cap_pkts:
            admit = want
        elif t < desync_at:
            # synchronized burst: tail-drop in arrival order
            ahead = np.cumsum(want) - want
            admit = np.clip(cap_pkts - ahead, 0, want)
        else:
            # desynchronized: largest-remainder proportional admission
            cum = np.floor(np.cumsum(want) * (cap_pkts / total_want))
            admit = np.minimum(
                np.diff(np.concatenate([[0.0], cum])).astype(np.int64), want
            )
            if int(active.sum()) <= cap_pkts:
                # the continuous drain serves every desynchronized flow
                # at least one packet per round when fan-in fits capacity
                admit = np.where(want > 0, np.maximum(admit, 1), 0)
        lost = want - admit
        full_loss = active & (admit == 0)
        partial = active & (admit > 0) & (lost > 0)
        clean = active & (lost == 0)
        rem -= admit
        drops[idxmap] += lost
        cwnd[clean] = np.minimum(cwnd[clean] + 1, caps[clean])
        cwnd[partial] = np.maximum(cwnd[partial] // 2, 1)
        if full_loss.any():
            stall[idxmap[full_loss]] += rto_s
            wake[full_loss] = t + rto_s
            cwnd[full_loss] = np.minimum(init_cwnd, caps[full_loss])
            timeouts[idxmap[full_loss]] += 1
            desync_at = min(desync_at, t + rto_s)
        t += max(rtt_s, float(admit.sum()) * pkt_time_s)
    return stall, timeouts, drops


class FluidEngine:
    """Max-min fair-share rate allocator over :class:`SwitchPort` hops.

    One engine serves one :class:`~repro.net.fabric.Topology`.  Flows
    are registered with :meth:`start_flow` (returning a pooled
    :class:`~repro.sim.Event` that triggers when the bytes drain) and
    live in numpy struct-of-arrays — remaining bytes, current rate, up
    to three hop port ids — so every epoch is vectorized.

    The caller (``Topology._fluid``) owns everything packet-shaped:
    converting bytes to packets, the latency surcharge, byte accounting
    on the hop ports, and tracing spans.  The engine owns time-shared
    bandwidth and burst stalls.
    """

    #: Flows cross at most this many ports (leaf/spine cross-rack = 3:
    #: source uplink → destination downlink → destination edge).
    MAX_HOPS = 3

    def __init__(self, sim, fabric) -> None:
        self.sim = sim
        self.fab = fabric
        #: Rate-recompute / completion-batch interval, seconds: the fabric
        #: RTT — the same granularity the exact engine resolves (one
        #: window round per RTT).
        self.tick_s = fabric.rtt_s
        self._ports: list = []                    # SwitchPort registry
        self._port_ids: dict[int, int] = {}       # id(port) -> index
        self._caps_list: list[float] = []         # per-port capacity, B/s
        self._caps_np: Optional[np.ndarray] = None
        self._caps_stale = False                  # a port went down/up
        # flow table (struct-of-arrays, grown by doubling)
        self._n = 0                               # slots allocated (high water)
        self._rem = np.zeros(0)                   # bytes left to drain
        self._rate = np.zeros(0)                  # current share, B/s
        self._hops = np.zeros((0, self.MAX_HOPS), dtype=np.int32)
        self._live: set[int] = set()              # slots in the allocation
        self._events: list = []
        self._free: list[int] = []
        self._tails: dict[int, float] = {}  # id(event) -> post-drain tail (s)
        # arrivals since the last epoch: (slot, cwnd_cap, ctx)
        self._pending: list = []
        # flows waiting out a probe stall: heap of (wake_t, slot)
        self._stalled: list = []
        self._last_advance = 0.0
        self._wake_gen = 0
        # introspection (surfaced by Topology.fluid_stats / benchmarks)
        self.flows_started = 0
        self.flows_completed = 0
        self.epochs = 0
        self.probes = 0
        self.stalled_flows = 0

    # -- registration --------------------------------------------------
    def _port_id(self, port) -> int:
        pid = self._port_ids.get(id(port))
        if pid is None:
            pid = len(self._ports)
            self._ports.append(port)
            self._port_ids[id(port)] = pid
            cap = 0.0 if port.down else port.link.bandwidth_Bps
            self._caps_list.append(cap)
            # keep the vector cache in step (doubling buffer) so epochs
            # never rebuild it just because a new port registered
            buf = self._caps_np
            if buf is None or pid >= len(buf):
                grown = np.empty(max(256, 2 * (pid + 1)))
                if buf is not None:
                    grown[: len(buf)] = buf
                self._caps_np = buf = grown
            buf[pid] = cap
        return pid

    def _grow(self, need: int) -> None:
        cap = max(256, 2 * len(self._rem), need)
        pad = cap - len(self._rem)
        self._rem = np.concatenate([self._rem, np.zeros(pad)])
        self._rate = np.concatenate([self._rate, np.zeros(pad)])
        self._hops = np.concatenate(
            [self._hops, np.full((pad, self.MAX_HOPS), -1, dtype=np.int32)]
        )
        self._events.extend([None] * pad)

    def start_flow(self, path: list, npkts: int, cwnd_cap: int, ctx=None):
        """Register a flow over ``path`` hops; returns its done event.

        The flow joins the allocation in the arrival batch at the
        current instant (all same-timestamp arrivals share one wakeup);
        a synchronized cohort that would overflow the destination
        buffer is stall-probed first (see :func:`burst_stalls`).
        """
        if self._free:
            slot = self._free.pop()
        else:
            slot = self._n
            if slot >= len(self._rem):
                self._grow(slot + 1)
            self._n += 1
        self._rem[slot] = float(npkts) * self.fab.pkt_bytes
        self._rate[slot] = 0.0
        hops = self._hops[slot]
        hops[:] = -1
        for i, p in enumerate(path):
            hops[i] = self._port_id(p)
        ev = self.sim.acquire_event(name="fluid.xfer")
        self._events[slot] = ev
        self._pending.append((slot, cwnd_cap, ctx))
        self.flows_started += 1
        # one epoch per distinct arrival timestamp, however many flows
        self.sim.call_at_coalesced(self.sim.now, ("fluid", id(self)), self._epoch)
        return ev

    def mark_dirty(self) -> None:
        """A port capacity changed (blackout/restore): recompute shares."""
        self._caps_stale = True
        self.sim.call_at_coalesced(self.sim.now, ("fluid", id(self)), self._epoch)

    # -- the epoch -----------------------------------------------------
    #: At or below this many live flows an epoch runs in plain Python
    #: (dicts and floats); above it, vectorized numpy.  The steady state
    #: of an RPC-heavy workload is one or two live flows per epoch, and
    #: numpy's fixed per-call overhead would dominate there.
    #: Measured for ISSUE 12, so nobody deletes the scalar path blind: the
    #: perf `storm_fluid` workload cannot decide (0 of its 1,804 epochs
    #: are this small; ops_per_s 22,142 vs 21,607 with SMALL = 0, inside
    #: noise), but a fluid-mode `run_storm(8, 64, 100)` has 61,200 of
    #: 61,215 epochs at <= 8 live flows and goes 0.84 s -> 2.0-2.2 s
    #: without it.  Selected by an observed input size, 2.4x on its side.
    SMALL = 8

    def _advance(self, now: float) -> None:
        dt = now - self._last_advance
        if dt > 0 and self._live:
            if len(self._live) <= self.SMALL:
                for s in self._live:
                    if self._rate[s] > 0.0:
                        self._rem[s] -= self._rate[s] * dt
            else:
                idx = np.fromiter(self._live, dtype=np.int64)
                self._rem[idx] -= self._rate[idx] * dt
        self._last_advance = now

    def _set_tail(self, slot: int, tail_s: float) -> None:
        """Record the post-drain latency tail for the flow's done-event.

        Consumed (popped) by :meth:`pop_tail_s` from ``Topology._fluid``.
        Keyed by the event object's identity because slots (and pooled
        events) are recycled the moment a flow completes.
        """
        ev = self._events[slot]
        if ev is not None:
            self._tails[id(ev)] = tail_s

    def pop_tail_s(self, ev) -> float:
        """Pop the latency tail (seconds) recorded for ``ev``.

        Call exactly once per completed flow, *before* recycling the
        event.  Defaults to one RTT (the desynchronized-flow tail) if
        the flow never reached an activation path.
        """
        return self._tails.pop(id(ev), self.fab.rtt_s)

    def _activate_pending(self, now: float) -> None:
        pending, self._pending = self._pending, []
        fab = self.fab
        # release stalled flows whose RTO expired
        while self._stalled and self._stalled[0][0] <= now + 1e-12:
            _, slot = heapq.heappop(self._stalled)
            self._live.add(slot)
        if not pending:
            return
        if fab.buffer_pkts is None or len(pending) == 1:
            # Solo arrivals (and infinite-buffer batches) are not a
            # synchronized cohort: the solo floor already carries their
            # full ack tail from t0, and any drain delay means other
            # traffic desynchronized them — one trailing RTT.
            for slot, _cap, _ctx in pending:
                self._live.add(slot)
            return
        # synchronized cohorts, grouped by destination (last) hop
        cohorts: dict[int, list] = {}
        for item in pending:
            hops = self._hops[item[0]]
            last = int(hops[int((hops >= 0).sum()) - 1])  # destination hop
            cohorts.setdefault(last, []).append(item)
        for dest, items in cohorts.items():
            if len(items) < 2:
                self._live.add(items[0][0])
                continue
            port = self._ports[dest]
            self.probes += 1
            sizes = np.array(
                [max(1, int(round(self._rem[s] / fab.pkt_bytes))) for s, _, _ in items],
                dtype=np.int64,
            )
            caps = np.array([c for _, c, _ in items], dtype=np.int64)
            stall, timeouts, drops = burst_stalls(
                sizes, caps,
                init_cwnd=fab.init_cwnd,
                cap_pkts=port.round_capacity_pkts,
                pkt_time_s=port.pkt_time_s,
                rtt_s=fab.rtt_s,
                rto_s=fab.rto_s(),  # the probe is deterministic: unjittered
            )
            # A cohort the probe found clean (no drops, no RTOs) stays in
            # *lockstep* in exact mode: every member idles through each
            # ack gap at the same instant, and only the part of each
            # round's RTT that the other members' transmissions don't
            # cover goes unoverlapped (see :func:`lockstep_tail_s`).
            # Any loss breaks the symmetry (halved windows / staggered
            # RTO returns) and only the final RTT survives — the
            # :meth:`pop_tail_s` default.
            clean = not bool(timeouts.any()) and not bool(drops.any())
            for i, (slot, _cap, ctx) in enumerate(items):
                if clean:
                    self._set_tail(slot, lockstep_tail_s(
                        int(sizes[i]), fab.init_cwnd, int(caps[i]),
                        len(items), port.pkt_time_s, fab.rtt_s,
                    ))
                if timeouts[i]:
                    port.record_timeouts(int(timeouts[i]))
                if drops[i]:
                    port.record_drops(int(drops[i]))
                if ctx is not None:
                    ctx.drops_pkts += int(drops[i])
                    ctx.rtos += int(timeouts[i])
                if stall[i] > 0:
                    self.stalled_flows += 1
                    heapq.heappush(self._stalled, (now + float(stall[i]), slot))
                else:
                    self._live.add(slot)

    def _complete(self, now: float) -> None:
        if not self._live:
            return
        # batch: finish everything that drains within one tick at the
        # frozen rates (the earliest finisher is exact; the batch is at
        # most one tick early — the documented resolution of this mode)
        if len(self._live) <= self.SMALL:
            done = sorted(
                s for s in self._live
                if self._rem[s] <= max(_EPS_BYTES, self._rate[s] * self.tick_s)
            )
        else:
            idx = np.sort(np.fromiter(self._live, dtype=np.int64))
            mask = self._rem[idx] <= np.maximum(_EPS_BYTES, self._rate[idx] * self.tick_s)
            done = idx[mask].tolist()
        for slot in done:
            slot = int(slot)
            self._live.discard(slot)
            self._rem[slot] = 0.0
            self._rate[slot] = 0.0
            self._hops[slot, :] = -1
            ev, self._events[slot] = self._events[slot], None
            self._free.append(slot)
            self.flows_completed += 1
            ev.succeed()

    def _port_cap(self, pid: int) -> float:
        p = self._ports[pid]
        return 0.0 if p.down else p.link.bandwidth_Bps

    def _port_caps(self, pids: np.ndarray) -> np.ndarray:
        """Capacities (B/s) for ``pids`` from the cached per-port vector.

        The cache refreshes only when a port is newly registered or a
        blackout/restore flips a ``down`` flag (``mark_dirty``) — never
        per epoch.
        """
        if self._caps_stale:
            for i, p in enumerate(self._ports):
                c = 0.0 if p.down else p.link.bandwidth_Bps
                self._caps_list[i] = c
                self._caps_np[i] = c
            self._caps_stale = False
        return self._caps_np[pids]

    def _recompute_small(self) -> None:
        """Progressive filling in plain Python — the 1–8-flow epoch.

        Identical arithmetic to the vectorized path (same freeze and
        saturation thresholds) restricted to the ports the live flows
        actually cross, so an epoch in a million-port topology costs
        the live flows' hop count, not the port count.
        """
        flows: dict[int, list[int]] = {}
        resid: dict[int, float] = {}
        for s in self._live:
            hp = []
            for c in range(self.MAX_HOPS):
                pid = int(self._hops[s, c])
                if pid < 0:
                    break
                hp.append(pid)
                if pid not in resid:
                    resid[pid] = self._port_cap(pid)
            flows[s] = hp
        rate = {s: 0.0 for s in flows}
        un = set(flows)
        for _ in range(len(resid) + 2):
            if not un:
                break
            counts: dict[int, int] = {}
            for s in un:
                for pid in flows[s]:
                    counts[pid] = counts.get(pid, 0) + 1
            heads = {}
            for s in un:
                h = math.inf
                for pid in flows[s]:
                    fair = resid[pid] / counts[pid]
                    if fair < h:
                        h = fair
                heads[s] = h  # inf when every hop is infinite-bandwidth
            dead = [s for s in un if heads[s] <= 1e-9]
            if dead:
                un.difference_update(dead)
                continue
            free = [s for s in un if math.isinf(heads[s])]
            if free:
                for s in free:
                    rate[s] = _INF_RATE
                un.difference_update(free)
                continue
            delta = min(heads[s] for s in un)
            for s in un:
                rate[s] += delta
                for pid in flows[s]:
                    resid[pid] = max(0.0, resid[pid] - delta)
            un = {s for s in un if heads[s] > delta * (1.0 + 1e-9)}
        for s, r in rate.items():
            self._rate[s] = r

    def _recompute(self, now: float) -> None:
        if not self._live:
            return
        if len(self._live) <= self.SMALL:
            self._recompute_small()
            return
        idx = np.fromiter(self._live, dtype=np.int64)
        # restrict the filling to ports the live flows actually cross —
        # a storm registers one port per client, and an epoch must not
        # scale with topology size, only with its own live flows
        hg = self._hops[idx]
        vm = hg >= 0
        uniq, inv = np.unique(hg[vm], return_inverse=True)
        h = np.full(hg.shape, -1, dtype=np.int64)
        h[vm] = inv
        nports = uniq.size
        cap = self._port_caps(uniq)
        resid = cap.copy()
        r = np.zeros(idx.size)
        un = np.ones(idx.size, dtype=bool)
        # progressive filling: raise every unfrozen flow equally until a
        # port saturates; freeze the flows it bottlenecks; repeat.  Each
        # iteration saturates >= 1 port, so <= nports iterations.
        for _ in range(nports + 2):
            if not un.any():
                break
            counts = np.zeros(nports)
            for c in range(self.MAX_HOPS):
                hv = h[un, c]
                valid = hv[hv >= 0]
                if valid.size:
                    np.add.at(counts, valid, 1.0)
            fair = np.where(counts > 0, resid / np.maximum(counts, 1.0), np.inf)
            head = np.full(idx.size, np.inf)
            for c in range(self.MAX_HOPS):
                hv = h[:, c]
                m = un & (hv >= 0)
                if m.any():
                    head[m] = np.minimum(head[m], fair[hv[m]])
            dead = un & (head <= 1e-9)          # down/saturated bottleneck
            if dead.any():
                un &= ~dead
                continue
            free_run = un & ~np.isfinite(head)  # all hops infinite-bandwidth
            if free_run.any():
                r[free_run] = _INF_RATE
                un &= ~free_run
                continue
            delta = float(head[un].min())
            r[un] += delta
            for c in range(self.MAX_HOPS):
                hv = h[un, c]
                valid = hv[hv >= 0]
                if valid.size:
                    np.add.at(resid, valid, -delta)
            np.maximum(resid, 0.0, out=resid)
            un &= ~(head <= delta * (1.0 + 1e-9))
        self._rate[idx] = r

    def _epoch(self) -> None:
        now = self.sim.now
        self.epochs += 1
        self._advance(now)
        self._activate_pending(now)
        self._complete(now)
        self._recompute(now)
        # next wakeup: the earliest completion at the new rates, or the
        # next stall expiry — whichever comes first
        t_next = math.inf
        if self._live:
            if len(self._live) <= self.SMALL:
                for s in self._live:
                    r = self._rate[s]
                    if r > 0.0:
                        eta = now + self._rem[s] / r
                        if eta < t_next:
                            t_next = eta
            else:
                idx = np.fromiter(self._live, dtype=np.int64)
                rates = self._rate[idx]
                pos = rates > 0
                if pos.any():
                    t_next = now + float((self._rem[idx][pos] / rates[pos]).min())
        if self._stalled:
            t_next = min(t_next, self._stalled[0][0])
        if math.isinf(t_next):
            return
        self._wake_gen += 1
        self.sim.call_at(max(t_next, now), self._wake, self._wake_gen)

    def _wake(self, gen: int) -> None:
        if gen != self._wake_gen:  # superseded by a later epoch
            return
        self._epoch()

    def stats(self) -> dict:
        """Always-on engine totals (shape mirrors ``event_stats()``)."""
        return {
            "flows_started": self.flows_started,
            "flows_completed": self.flows_completed,
            "flows_active": len(self._live),
            "epochs": self.epochs,
            "probes": self.probes,
            "stalled_flows": self.stalled_flows,
            "tick_s": self.tick_s,
        }
