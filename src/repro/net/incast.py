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
:class:`IncastConfig` maps the published testbeds onto a
:class:`~repro.net.params.Link` + :class:`~repro.net.params.FabricParams`
pair, and :func:`simulate_incast` is a client fetching blocks through one
port of an exact-mode :class:`~repro.net.fabric.Topology` — the same
windowed, tail-dropping engine every other fabric consumer rides.  The
only randomness is RTO jitter, drawn from the topology's generator
seeded by ``IncastConfig.seed``, so two same-seed runs produce identical
:class:`IncastResult`\\ s.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.fabric import Topology
from repro.net.params import FabricParams, Link
from repro.obs import RequestContext
from repro.sim import Simulator


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
    seed: int = 42                    # RTO jitter

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


def simulate_incast(cfg: IncastConfig, n_servers: int, n_blocks: int = 20) -> IncastResult:
    """Fetch ``n_blocks`` striped blocks; returns aggregate goodput.

    Each block is ``n_servers`` concurrent flows of one request unit
    (``sru_bytes`` rounded down to whole packets) through the client's
    port ``incast.<cfg.name>.<n_servers>``, followed by a barrier.  Every
    flow carries its own :class:`~repro.obs.RequestContext`, whose
    ``rtos`` counter is that flow's timeouts within the block.
    """
    if n_servers < 1 or n_blocks < 1:
        raise ValueError("need at least one server and one block")
    fabric = cfg.as_fabric()
    if fabric.buffer_pkts is None:
        raise ValueError("incast needs a finite buffer_pkts")
    sim = Simulator()
    obs = sim.obs
    link = cfg.as_link()
    topo = Topology(sim, 0, link, link, fabric=fabric)
    port = topo.named_port(f"incast.{cfg.name}.{n_servers}", link)
    sru_bytes = max(1, cfg.sru_bytes // cfg.pkt_bytes) * cfg.pkt_bytes
    flows: list[RequestContext] = []

    def client():
        for _ in range(n_blocks):
            block = [
                obs.request_context(op="read", origin="incast") if obs is not None
                else RequestContext(0, op="read", origin="incast")
                for _ in range(n_servers)
            ]
            procs = [sim.spawn(topo.to_port(port, sru_bytes, ctx=c)) for c in block]
            for p in procs:
                yield p
            flows.extend(block)

    sim.spawn(client())
    elapsed = sim.run()
    timeouts = sum(c.rtos for c in flows)
    repeat_timeouts = sum(c.rtos - 1 for c in flows if c.rtos > 1)
    result = IncastResult(
        n_servers=n_servers,
        goodput_Bps=n_blocks * n_servers * sru_bytes / elapsed,
        timeouts=timeouts,
        block_time_s=elapsed / n_blocks,
        repeat_timeouts=repeat_timeouts,
    )
    if obs is not None:
        labels = {"config": cfg.name, "servers": n_servers}
        m = obs.metrics
        m.gauge("net.incast.goodput_Bps", **labels).set(result.goodput_Bps)
        m.counter("net.incast.timeouts", **labels).inc(timeouts)
        m.counter("net.incast.repeat_timeouts", **labels).inc(repeat_timeouts)
    return result
