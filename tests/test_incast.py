"""Tests for the TCP incast model (Fig 9)."""

import pytest

from repro import obs as obs_mod
from repro.net import ONE_GE, TEN_GE, IncastConfig, simulate_incast, windowed_rounds


def test_single_sender_no_timeouts():
    res = simulate_incast(ONE_GE, 1)
    assert res.timeouts == 0
    # one flow fetching a small SRU is RTT-bound, not line-rate-bound: every
    # window round serializes its packets, then waits a full RTT for the ack
    sru_pkts = ONE_GE.sru_bytes // ONE_GE.pkt_bytes
    pkt_time_s = ONE_GE.pkt_bytes / ONE_GE.link_Bps
    rounds = windowed_rounds(sru_pkts, ONE_GE.init_cwnd, ONE_GE.max_cwnd)
    assert res.block_time_s == pytest.approx(
        rounds * ONE_GE.rtt_s + sru_pkts * pkt_time_s, rel=1e-12
    )
    assert res.block_time_s == pytest.approx(852e-6)


def test_lone_sender_never_times_out():
    # one flow's window (≤ max_cwnd = buffer) always fits the empty port,
    # so a lone sender sees zero drops and zero RTOs
    cfg = IncastConfig(sru_bytes=256 * 1024, buffer_pkts=64, max_cwnd=64)
    res = simulate_incast(cfg, 1, n_blocks=4)
    assert res.timeouts == 0
    assert res.repeat_timeouts == 0
    assert res.goodput_Bps > 0


def test_small_fanin_no_collapse():
    res = simulate_incast(ONE_GE, 4)
    assert res.goodput_Bps / ONE_GE.link_Bps > 0.4
    assert res.timeouts == 0


def test_buffer_deeper_than_demand():
    # 8 flows × 2 packets of SRU = 16 packets, against a 512-packet
    # buffer: the whole burst fits at once, every block
    cfg = IncastConfig(buffer_pkts=512, sru_bytes=3000)
    res = simulate_incast(cfg, 8, n_blocks=3)
    assert res.timeouts == 0
    assert res.goodput_Bps * res.block_time_s * 3 == pytest.approx(3 * 8 * 3000)


def test_window_cap_of_one():
    # init_cwnd = max_cwnd = 1: each flow injects exactly one packet per
    # round; 4 flows never overflow a 4-packet buffer, but progress is one
    # SRU packet per flow per round, so a block takes ≥ sru_pkts RTTs
    cfg = IncastConfig(buffer_pkts=4, init_cwnd=1, max_cwnd=1, sru_bytes=15000)
    res = simulate_incast(cfg, 4, n_blocks=2)
    assert res.timeouts == 0
    sru_pkts = 15000 // cfg.pkt_bytes
    assert res.block_time_s >= sru_pkts * cfg.rtt_s


def test_goodput_collapse_at_high_fanin():
    """The Fig 9 signature: goodput falls by >10x past the cliff."""
    small = simulate_incast(ONE_GE, 4)
    big = simulate_incast(ONE_GE, 64)
    assert big.timeouts > 0
    assert big.goodput_Bps < small.goodput_Bps / 10.0


def test_low_min_rto_restores_goodput():
    cfg_fixed = IncastConfig(min_rto_s=1e-3)
    collapsed = simulate_incast(ONE_GE, 64)
    fixed = simulate_incast(cfg_fixed, 64)
    assert collapsed.timeouts > 0
    assert fixed.goodput_Bps > 10.0 * collapsed.goodput_Bps
    assert fixed.goodput_Bps / cfg_fixed.link_Bps > 0.3


def test_jitter_helps_at_extreme_fanin():
    """10GE, hundreds of senders: randomized low RTO beats fixed low RTO."""
    fixed = IncastConfig(
        name="10GE", link_Bps=1250e6, rtt_s=40e-6, buffer_pkts=64,
        sru_bytes=8 * 1024, min_rto_s=1e-3, rto_jitter=False, seed=3,
    )
    jit = IncastConfig(
        name="10GE", link_Bps=1250e6, rtt_s=40e-6, buffer_pkts=64,
        sru_bytes=8 * 1024, min_rto_s=1e-3, rto_jitter=True, seed=3,
    )
    n = 1024
    g_fixed = simulate_incast(fixed, n, n_blocks=5)
    g_jit = simulate_incast(jit, n, n_blocks=5)
    # synchronized retransmissions collide again and again with a fixed
    # timeout; randomization de-synchronizes them
    assert g_jit.repeat_timeouts < 0.8 * g_fixed.repeat_timeouts
    assert g_jit.goodput_Bps > 1.2 * g_fixed.goodput_Bps


def test_sweep_monotone_setup():
    results = [simulate_incast(ONE_GE, n, n_blocks=5) for n in (1, 2, 4)]
    assert [r.n_servers for r in results] == [1, 2, 4]
    assert all(r.goodput_Bps > 0 for r in results)


def test_bytes_conserved_per_block():
    cfg = ONE_GE
    res = simulate_incast(cfg, 8, n_blocks=3)
    sru_pkts = cfg.sru_bytes // cfg.pkt_bytes
    assert res.goodput_Bps * (res.block_time_s * 3) == pytest.approx(
        3 * 8 * sru_pkts * cfg.pkt_bytes, rel=1e-9
    )


def test_port_accounting():
    """The incast port's own series agree with the result's counts."""
    cfg = IncastConfig(name="t")
    with obs_mod.use() as o:
        res = simulate_incast(cfg, 64, n_blocks=5)
        counters = o.metrics.snapshot()["counters"]
    sru_pkts = cfg.sru_bytes // cfg.pkt_bytes
    assert res.timeouts > 0
    assert counters["net.fabric.timeouts{port=incast.t.64}"] == res.timeouts
    assert counters["net.fabric.drops_pkts{port=incast.t.64}"] > 0
    assert counters["net.fabric.bytes{port=incast.t.64}"] == 5 * 64 * sru_pkts * cfg.pkt_bytes


def test_same_seed_runs_identical():
    """RTO jitter is the only randomness and flows through the config's
    seed: two same-seed runs must produce identical IncastResults."""
    cfg = IncastConfig(min_rto_s=1e-3, rto_jitter=True, buffer_pkts=32, seed=11)
    a = simulate_incast(cfg, 48, n_blocks=5)
    b = simulate_incast(cfg, 48, n_blocks=5)
    assert a == b
    # a different seed perturbs the jitter
    c = simulate_incast(IncastConfig(
        min_rto_s=1e-3, rto_jitter=True, buffer_pkts=32, seed=12), 48, n_blocks=5)
    assert c != a


def test_invalid_server_count():
    with pytest.raises(ValueError):
        simulate_incast(ONE_GE, 0)


def test_needs_finite_buffer():
    # an ideal port never overflows, so there is no incast to model
    with pytest.raises(ValueError):
        simulate_incast(IncastConfig(buffer_pkts=None), 4)


def test_configs_exposed():
    assert ONE_GE.link_Bps < TEN_GE.link_Bps
    assert ONE_GE.as_fabric().rtt_s > TEN_GE.as_fabric().rtt_s
