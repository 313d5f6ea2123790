"""Fig 9 — TCP incast goodput collapse and the low/randomized-RTO fix.

Report: synchronized reads on 1GE collapse as senders grow (200 ms min
RTO idles the link); a ~1 ms minimum RTO restores goodput; at thousands
of senders on 10GE the timeout must also be randomized.
"""

from benchmarks.conftest import print_table
from repro.net import ONE_GE, IncastConfig, simulate_incast


def run_fig9():
    counts = [1, 2, 4, 8, 16, 32, 47]
    legacy = [simulate_incast(ONE_GE, n, n_blocks=10) for n in counts]
    fixed_cfg = IncastConfig(min_rto_s=1e-3)
    fixed = [simulate_incast(fixed_cfg, n, n_blocks=10) for n in counts]
    # 10GE extreme fan-in: fixed vs jittered 1ms RTO
    base10 = dict(link_Bps=1250e6, rtt_s=40e-6, buffer_pkts=64, sru_bytes=8 * 1024, min_rto_s=1e-3)
    n_big = 1024
    ten_fixed = simulate_incast(IncastConfig(name="10GE", **base10), n_big, n_blocks=5)
    ten_jit = simulate_incast(IncastConfig(name="10GE", rto_jitter=True, **base10), n_big, n_blocks=5)
    return counts, legacy, fixed, ten_fixed, ten_jit


def test_fig09_incast(run_once):
    counts, legacy, fixed, ten_fixed, ten_jit = run_once(run_fig9)
    rows = [
        [n, f"{l.goodput_MBps:.1f}", l.timeouts, f"{f.goodput_MBps:.1f}", f.timeouts]
        for n, l, f in zip(counts, legacy, fixed)
    ]
    print_table(
        "Fig 9 (left): 1GE synchronized reads, goodput vs senders",
        ["senders", "200ms RTO MB/s", "timeouts", "1ms RTO MB/s", "timeouts"],
        rows,
        widths=[9, 16, 10, 14, 10],
    )
    print_table(
        "Fig 9 (right): 10GE, 1024 senders",
        ["min RTO", "goodput MB/s", "timeouts", "repeat timeouts"],
        [
            ["1ms fixed", f"{ten_fixed.goodput_MBps:.0f}", ten_fixed.timeouts, ten_fixed.repeat_timeouts],
            ["1ms+rand", f"{ten_jit.goodput_MBps:.0f}", ten_jit.timeouts, ten_jit.repeat_timeouts],
        ],
        widths=[11, 14, 10, 16],
    )
    peak = max(r.goodput_Bps for r in legacy)
    floor = legacy[-1].goodput_Bps
    # collapse: >10x drop from the small-fan-in peak by 47 senders
    assert floor < peak / 10.0
    assert legacy[-1].timeouts > 0
    # the 1 ms fix holds goodput high across the sweep
    assert fixed[-1].goodput_Bps > 10.0 * floor
    # at extreme fan-in, randomization beats a fixed low RTO
    assert ten_jit.goodput_Bps > 1.2 * ten_fixed.goodput_Bps
    assert ten_jit.repeat_timeouts < 0.8 * ten_fixed.repeat_timeouts
