"""Property suite for the fluid fabric mode (hypothesis-generated).

Four claims of :mod:`repro.net.fluid`, over random topologies and flow
sets rather than the pinned x14/x20 curves:

1. **Solo exactness** — a lone flow of any size finishes at the
   exact-mode instant (the latency floor *is* the windowed ramp's
   closed form), provided the buffer holds the maximum window
   (``buffer_pkts >= max_cwnd``, true of every shipped fabric): a
   buffer smaller than the window makes even an uncontended exact flow
   drop and halve, which is loss behaviour, not a latency floor.
2. **Cohort tolerance** — synchronized same-size cohorts in the
   calibrated short-flow regime (flows of at most a few window rounds,
   buffers >= 64 packets — the RPC-storm and small-transfer shapes the
   mode is built for) finish within 15% of exact mode.  Long-lived
   flows under persistent deep overload are *out of contract*: both
   engines sit on an RTO knife edge there, and docs/performance.md says
   to use exact mode for those.
3. **Byte conservation** — delivered ``total_bytes`` per port are
   identical in both modes for *any* flow set, including heterogeneous
   mixes far outside the tolerance domain.
4. **Determinism** — rerunning the same flow set gives bit-identical
   makespans and engine counters (no wall-clock, no hidden RNG).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import FabricParams, Link, Topology
from repro.sim import Simulator

BANDWIDTHS = (112e6, 1.25e9)


def run_flows(mode: str, sizes_bytes, buffer_pkts, cwnd_cap, bandwidth):
    """One simulation: flows fan in to server 0 at t=0; returns totals."""
    fab = FabricParams(
        name="prop", buffer_pkts=buffer_pkts, min_rto_s=0.2, seed=3, mode=mode,
    )
    sim = Simulator()
    topo = Topology(
        sim, max(4, len(sizes_bytes)), Link(bandwidth), Link(bandwidth),
        fabric=fab,
    )
    for i, nbytes in enumerate(sizes_bytes):
        sim.spawn(topo.to_server(0, nbytes, src_client=i, cwnd_cap=cwnd_cap))
    sim.run()
    bytes_by_port = {
        p.name: p.total_bytes for p in topo.server_ports if p.total_bytes
    }
    return sim.now, bytes_by_port


@given(
    npkts=st.integers(1, 3000),
    buffer_pkts=st.one_of(st.none(), st.integers(64, 256)),
    cwnd_cap=st.one_of(st.none(), st.integers(1, 64)),
    bandwidth=st.sampled_from(BANDWIDTHS),
)
@settings(max_examples=40, deadline=None)
def test_solo_flow_matches_exact(npkts, buffer_pkts, cwnd_cap, bandwidth):
    """An uncontended flow finishes at the exact-mode instant."""
    sizes = [npkts * 1500]
    t_exact, _ = run_flows("exact", sizes, buffer_pkts, cwnd_cap, bandwidth)
    t_fluid, _ = run_flows("fluid", sizes, buffer_pkts, cwnd_cap, bandwidth)
    assert t_fluid == pytest.approx(t_exact, rel=1e-9)


@given(
    n_flows=st.integers(2, 12),
    npkts=st.integers(1, 12),
    buffer_pkts=st.sampled_from([64, 128]),
    cwnd_cap=st.one_of(st.none(), st.just(64)),
    bandwidth=st.sampled_from(BANDWIDTHS),
)
@settings(max_examples=40, deadline=None)
def test_short_cohort_within_tolerance(n_flows, npkts, buffer_pkts,
                                       cwnd_cap, bandwidth):
    """Synchronized short-flow cohorts: makespan within 15% of exact."""
    sizes = [npkts * 1500] * n_flows
    t_exact, _ = run_flows("exact", sizes, buffer_pkts, cwnd_cap, bandwidth)
    t_fluid, _ = run_flows("fluid", sizes, buffer_pkts, cwnd_cap, bandwidth)
    assert abs(t_fluid / t_exact - 1.0) <= 0.15, (t_exact, t_fluid)


@given(
    sizes=st.lists(st.integers(1, 200), min_size=1, max_size=8),
    buffer_pkts=st.sampled_from([16, 64, 128]),
    bandwidth=st.sampled_from(BANDWIDTHS),
)
@settings(max_examples=40, deadline=None)
def test_bytes_conserved_everywhere(sizes, buffer_pkts, bandwidth):
    """Per-port delivered bytes match exact mode for ANY flow mix.

    This domain is deliberately wider than the tolerance contract
    (heterogeneous sizes, 16-packet buffers): even where makespans
    diverge, no byte may be created or lost.
    """
    sizes_bytes = [s * 1500 for s in sizes]
    _, by_port_exact = run_flows("exact", sizes_bytes, buffer_pkts, None, bandwidth)
    _, by_port_fluid = run_flows("fluid", sizes_bytes, buffer_pkts, None, bandwidth)
    assert by_port_fluid == by_port_exact
    assert sum(by_port_fluid.values()) == sum(sizes_bytes)


@given(
    sizes=st.lists(st.integers(1, 100), min_size=1, max_size=6),
    buffer_pkts=st.sampled_from([32, 64]),
)
@settings(max_examples=25, deadline=None)
def test_fluid_mode_deterministic(sizes, buffer_pkts):
    """Two identical runs are bit-identical (no hidden nondeterminism)."""
    sizes_bytes = [s * 1500 for s in sizes]
    a = run_flows("fluid", sizes_bytes, buffer_pkts, None, 112e6)
    b = run_flows("fluid", sizes_bytes, buffer_pkts, None, 112e6)
    assert a == b
