"""X17 — fabric-aware collective I/O on a shallow-buffer switch.

Two-phase collective I/O is a pair of synchronized fan-ins: the phase-1
shuffle converges every rank's flow on each aggregator's switch port,
and phase 2 converges the aggregators on the storage servers.  On a
2008-era top-of-rack switch (32-packet output buffers, 200 ms min RTO —
the PDSI incast regime) a fabric-blind shuffle is an incast by
construction: the very first round of windows overflows the aggregator
ports, whole windows are lost, and each victim sits dark for an RTO
that is ~2000× the RTT.

The fabric-aware scheme (``repro.collective.aggsel``) never enters that
regime.  It chooses the aggregator count against the port buffer math,
gives each aggregator a stripe-aligned *server column* (phase-2 fan-in
of one per server port, zero shared lock blocks), caps concurrent
shuffle senders per port at ``SwitchPort.safe_fanin``, and paces each
admitted flow to its share of the buffer so the in-flight windows fit
the buffer at once.  The per-port drop/RTO counters confirm the
mechanism: blind schemes rack up drops and full-window timeouts at the
aggregator ports, the fabric-aware run shows exactly zero.

A second test pins the degenerate case: under the (default) ideal
fabric the rewritten engine reproduces the pre-fabric collective
results *bit for bit* — the goldens below were captured from the
historical inline arithmetic.
"""

import pytest

from benchmarks.conftest import print_table
from repro.collective import CollectiveConfig, run_collective_write
from repro.net.params import FabricParams
from repro.pfs.params import GPFS_LIKE, PFSParams

N_RANKS = 32
N_AGGREGATORS = 8
BUFFER_PKTS = 32
SCHEMES = ("naive-even", "layout-aware", "fabric-aware")

#: Pre-PR collective makespans under the ideal fabric (exact floats).
#: Key: (params, n_aggregators, scheme) → makespan_s.
IDEAL_GOLDENS = {
    ("gpfs4", 2, "naive-even"): 0.039750954356198756,
    ("gpfs4", 2, "layout-aware"): 0.017974322254996494,
    ("gpfs4", 4, "naive-even"): 0.08769074548458544,
    ("gpfs4", 4, "layout-aware"): 0.025483284068428005,
    ("gpfs4", 8, "naive-even"): 0.18357032621426014,
    ("gpfs4", 8, "layout-aware"): 0.04065557538482672,
    ("generic8", 2, "naive-even"): 0.03184149671860396,
    ("generic8", 2, "layout-aware"): 0.014493632143165593,
    ("generic8", 4, "naive-even"): 0.07018829095820493,
    ("generic8", 4, "layout-aware"): 0.017715072477218687,
    ("generic8", 8, "naive-even"): 0.12721696250402018,
    ("generic8", 8, "layout-aware"): 0.025468674147484542,
}


def _golden_params():
    return {"gpfs4": GPFS_LIKE.with_servers(4), "generic8": PFSParams()}


def run_ideal_goldens():
    params = _golden_params()
    out = {}
    for (pname, n, scheme) in IDEAL_GOLDENS:
        cfg = CollectiveConfig(n_ranks=4 * n, n_aggregators=n)
        r = run_collective_write(cfg, params[pname], scheme=scheme)
        out[(pname, n, scheme)] = r.makespan_s
    return out


def test_x17_ideal_fabric_bit_identical(run_once):
    """fabric=None collective results match the pre-PR engine exactly."""
    got = run_once(run_ideal_goldens)
    rows = [
        [p, n, scheme.split("-")[0], f"{got[(p, n, scheme)]:.9f}",
         "ok" if got[(p, n, scheme)] == want else "DRIFT"]
        for (p, n, scheme), want in IDEAL_GOLDENS.items()
    ]
    print_table(
        "X17a: ideal-fabric goldens (bit-identical with pre-fabric engine)",
        ["params", "aggs", "scheme", "makespan_s", "check"],
        rows,
        widths=[10, 6, 8, 16, 7],
    )
    for key, want in IDEAL_GOLDENS.items():
        assert got[key] == want, key  # exact — no tolerance


def run_shallow_sweep():
    fabric = FabricParams(name=f"1GE-{BUFFER_PKTS}pkt", buffer_pkts=BUFFER_PKTS)
    params = PFSParams(fabric=fabric)
    cfg = CollectiveConfig(n_ranks=N_RANKS, n_aggregators=N_AGGREGATORS)
    return {s: run_collective_write(cfg, params, scheme=s) for s in SCHEMES}


@pytest.mark.slow
def test_x17_fabric_collective(run_once, job_observability):
    res = run_once(run_shallow_sweep)
    rows = [
        [
            r.scheme, r.n_aggregators, r.fanin_cap or "-",
            f"{r.phase1_s * 1e3:.2f}", f"{r.makespan_s * 1e3:.2f}",
            f"{r.bandwidth_MBps:.1f}",
            r.shuffle_drops_pkts, r.shuffle_rtos, r.lock_migrations,
        ]
        for r in res.values()
    ]
    print_table(
        f"X17b: collective write, {N_RANKS} ranks, {BUFFER_PKTS}-pkt port buffers",
        ["scheme", "aggs", "cap", "p1 ms", "total ms", "MB/s", "drops", "RTOs", "locks"],
        rows,
        widths=[14, 6, 6, 9, 10, 8, 7, 6, 7],
    )
    naive, layout, aware = (res[s] for s in SCHEMES)
    # the headline: fabric awareness beats the best fabric-blind scheme
    assert aware.bandwidth_MBps >= 1.3 * layout.bandwidth_MBps, (aware, layout)
    assert aware.bandwidth_MBps >= 1.3 * naive.bandwidth_MBps, (aware, naive)
    # mechanism: the blind shuffles are incasts — tail drops and
    # full-window RTOs at the aggregator ports; the capped+paced shuffle
    # never overflows a buffer
    for blind in (naive, layout):
        assert blind.shuffle_drops_pkts > 0 and blind.shuffle_rtos > 0, blind
    assert aware.shuffle_drops_pkts == 0 and aware.shuffle_rtos == 0
    # placement: server columns are stripe-aligned — no shared lock blocks
    assert aware.lock_migrations == 0 and layout.lock_migrations == 0
    assert naive.lock_migrations > 0
    # the count rule engaged: thin shuffle slices shrank the fleet
    assert 1 <= aware.n_aggregators <= N_AGGREGATORS
    assert aware.fanin_cap * res["fabric-aware"].plan.phase1_fanin_cap > 0
    # the collective.* instrumentation made it into the job report
    snap = job_observability.metrics.snapshot()
    assert any(k.startswith("collective.aggregators") for k in snap["gauges"])
    assert any(k.startswith("collective.shuffle_bytes") for k in snap["counters"])
