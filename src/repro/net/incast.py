"""TCP incast: synchronized reads collapse goodput; low min-RTO fixes it.

Mechanism (Phanishayee et al., FAST'08; Vasudevan et al., SIGCOMM'09, both
PDSI work): a client requests a striped block from N servers at once; all
N responses converge on one switch output port whose buffer overflows.  A
server that loses its *entire* window has nothing in flight to trigger
fast retransmit, so it sits in a retransmission timeout — historically a
200 ms minimum, thousands of RTTs — while the barrier at the client keeps
the link idle.  Goodput falls by up to two orders of magnitude.  Lowering
the minimum RTO to ~1 ms (microsecond-granularity timers) restores
goodput; at thousands of servers the retransmissions themselves
resynchronize, so the RTO must also be *randomized* (Fig 9 right).

This module is a thin configuration of the shared network fabric:
:func:`synchronized_fanin` is the round-based engine (one round = one
RTT, uniform random drops past the port's service+buffer capacity,
full-window loss → minimum RTO, partial loss → fast retransmit) over a
simulator-less :class:`~repro.net.port.SwitchPort`, and
:class:`IncastConfig` just maps the published testbeds onto a
:class:`~repro.net.params.Link` + :class:`~repro.net.params.FabricParams`
pair.  All randomness flows through one explicit
``numpy.random.Generator`` seeded from the config, so two same-seed runs
produce identical :class:`IncastResult`\\ s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.net.params import FabricParams, Link
from repro.net.port import SwitchPort
from repro.obs import current as _current_obs


@dataclass
class FaninResult:
    """Aggregate outcome of a synchronized fan-in run."""

    n_flows: int
    total_bytes: int
    elapsed_s: float
    timeouts: int
    repeat_timeouts: int   # timeouts of flows that already timed out within
                           # the same block — retransmission-storm collisions,
                           # the thing RTO jitter removes
    n_blocks: int

    @property
    def goodput_Bps(self) -> float:
        return self.total_bytes / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def block_time_s(self) -> float:
        return self.elapsed_s / self.n_blocks if self.n_blocks else 0.0


def synchronized_fanin(
    link: Link,
    fabric: FabricParams,
    n_flows: int,
    sru_bytes: int,
    rng: np.random.Generator,
    n_blocks: int = 20,
    port: Optional[SwitchPort] = None,
) -> FaninResult:
    """Fetch ``n_blocks`` striped blocks from ``n_flows`` synchronized senders.

    The round-based model (one round = one RTT) from the incast study:
    each active flow injects its window; injected packets beyond the
    port's service+buffer capacity for the round are dropped uniformly
    at random; full-window loss → timeout with the configured minimum
    RTO (optionally jittered); partial loss → window halves (fast
    retransmit).  Coarse, but it contains exactly the three mechanisms
    the published fix manipulates.

    ``port`` (optional, simulator-less) receives per-port drop/timeout
    accounting so the run shows up in ``repro.obs`` job reports.
    """
    if n_flows < 1:
        raise ValueError("need at least one flow")
    if fabric.buffer_pkts is None:
        raise ValueError("synchronized_fanin needs a finite buffer_pkts")
    if port is None:
        port = SwitchPort(link, fabric, name=fabric.name)
    pkt_time = port.pkt_time_s
    sru_pkts = max(1, sru_bytes // fabric.pkt_bytes)
    cap = port.round_capacity_pkts  # deliverable per round
    total_bytes = 0
    t = 0.0
    timeouts = 0
    repeat_timeouts = 0
    for _ in range(n_blocks):
        remaining = np.full(n_flows, sru_pkts, dtype=np.int64)
        cwnd = np.full(n_flows, fabric.init_cwnd, dtype=np.int64)
        wake = np.zeros(n_flows)  # timeout expiry per flow
        timed_out_before = np.zeros(n_flows, dtype=bool)
        while remaining.any():
            active = (remaining > 0) & (wake <= t)
            if not active.any():
                t = wake[remaining > 0].min()
                continue
            send = np.where(active, np.minimum(cwnd, remaining), 0)
            injected = int(send.sum())
            if injected <= cap:
                remaining -= send
                cwnd[active] = np.minimum(cwnd[active] + 1, fabric.max_cwnd)
                t += max(fabric.rtt_s, injected * pkt_time)
                continue
            # overflow: drop (injected - cap) packets uniformly at random
            drops = injected - cap
            flat = np.repeat(np.arange(n_flows), send)
            dropped_idx = rng.choice(injected, size=drops, replace=False)
            lost = np.bincount(flat[dropped_idx], minlength=n_flows)
            delivered = send - lost
            remaining -= delivered
            port.record_drops(drops)
            full_loss = active & (send > 0) & (delivered == 0) & (remaining > 0)
            partial = active & (delivered > 0)
            cwnd[partial] = np.maximum(cwnd[partial] // 2, 1)
            port.record_retransmit(int(partial.sum()))
            n_to = int(full_loss.sum())
            if n_to:
                timeouts += n_to
                repeat_timeouts += int((full_loss & timed_out_before).sum())
                timed_out_before |= full_loss
                base = fabric.rto_s()  # unjittered; jitter is per flow below
                if fabric.rto_jitter:
                    rto = base * (0.5 + rng.random(n_to))
                else:
                    rto = np.full(n_to, base)
                wake[full_loss] = t + rto
                cwnd[full_loss] = fabric.init_cwnd
                port.record_timeouts(n_to)
            t += max(fabric.rtt_s, cap * pkt_time)
        total_bytes += n_flows * sru_pkts * fabric.pkt_bytes
    port.record_bytes(total_bytes)
    return FaninResult(
        n_flows=n_flows,
        total_bytes=total_bytes,
        elapsed_s=t,
        timeouts=timeouts,
        repeat_timeouts=repeat_timeouts,
        n_blocks=n_blocks,
    )


@dataclass(frozen=True)
class IncastConfig:
    """One synchronized-read experiment."""

    name: str = "1GE"
    link_Bps: float = 125e6           # 1 Gb/s
    rtt_s: float = 100e-6
    pkt_bytes: int = 1500
    buffer_pkts: int = 64             # switch output-port buffer
    sru_bytes: int = 32 * 1024        # per-server request unit
    min_rto_s: float = 0.2            # the historical 200 ms minimum
    rto_jitter: bool = False          # randomize the timeout
    init_cwnd: int = 2
    max_cwnd: int = 64
    seed: int = 42                    # drop sampling + RTO jitter

    # -- the fabric view ---------------------------------------------
    def as_link(self) -> Link:
        return Link(bandwidth_Bps=self.link_Bps)

    def as_fabric(self) -> FabricParams:
        return FabricParams(
            name=self.name,
            buffer_pkts=self.buffer_pkts,
            pkt_bytes=self.pkt_bytes,
            rtt_s=self.rtt_s,
            min_rto_s=self.min_rto_s,
            rto_jitter=self.rto_jitter,
            init_cwnd=self.init_cwnd,
            max_cwnd=self.max_cwnd,
            seed=self.seed,
        )


#: The report's two testbeds.
ONE_GE = IncastConfig()
TEN_GE = IncastConfig(
    name="10GE",
    link_Bps=1250e6,
    rtt_s=40e-6,
    buffer_pkts=256,
    sru_bytes=64 * 1024,
)


@dataclass
class IncastResult:
    n_servers: int
    goodput_Bps: float
    timeouts: int
    block_time_s: float
    repeat_timeouts: int = 0  # timeouts of flows that already timed out
                              # within the same block: retransmission-storm
                              # collisions, the thing jitter removes

    @property
    def goodput_MBps(self) -> float:
        return self.goodput_Bps / 1e6

    def efficiency(self, cfg: IncastConfig) -> float:
        return self.goodput_Bps / cfg.link_Bps


def simulate_incast(
    cfg: IncastConfig,
    n_servers: int,
    rng: Optional[np.random.Generator] = None,
    n_blocks: int = 20,
) -> IncastResult:
    """Fetch ``n_blocks`` striped blocks; returns aggregate goodput.

    ``rng`` defaults to ``numpy.random.default_rng(cfg.seed)`` — pass one
    explicitly to share a stream across calls.
    """
    if n_servers < 1:
        raise ValueError("need at least one server")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    obs = _current_obs()
    link, fabric = cfg.as_link(), cfg.as_fabric()
    port = SwitchPort(link, fabric, obs=obs, name=f"incast.{cfg.name}.{n_servers}")
    fanin = synchronized_fanin(
        link,
        fabric,
        n_flows=n_servers,
        sru_bytes=cfg.sru_bytes,
        rng=rng,
        n_blocks=n_blocks,
        port=port,
    )
    result = IncastResult(
        n_servers=n_servers,
        goodput_Bps=fanin.goodput_Bps,
        timeouts=fanin.timeouts,
        block_time_s=fanin.block_time_s,
        repeat_timeouts=fanin.repeat_timeouts,
    )
    if obs is not None:
        labels = {"config": cfg.name, "servers": n_servers}
        m = obs.metrics
        m.gauge("net.incast.goodput_Bps", **labels).set(result.goodput_Bps)
        m.counter("net.incast.timeouts", **labels).inc(fanin.timeouts)
        m.counter("net.incast.repeat_timeouts", **labels).inc(fanin.repeat_timeouts)
        m.counter("net.incast.bytes_read", **labels).inc(fanin.total_bytes)
    return result


def sweep_senders(
    cfg: IncastConfig,
    sender_counts: list[int],
    seed: int = 42,
    n_blocks: int = 20,
) -> list[IncastResult]:
    """Goodput vs sender count — one curve of Fig 9."""
    return [
        simulate_incast(cfg, n, np.random.default_rng(seed + n), n_blocks=n_blocks)
        for n in sender_counts
    ]
