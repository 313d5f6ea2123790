"""X14 — checkpoint restart goodput vs stripe width under finite switch buffers.

The PDSI incast study (Phanishayee et al., FAST'08) is about exactly this
pattern: a client reads a block striped over W servers, all W replies
converge on the client's switch output port, and once W exceeds what the
port buffer absorbs, full-window losses put servers into 200 ms
retransmission timeouts — goodput collapses by an order of magnitude
even though disks and links are idle.  With the shared network fabric
this now falls out of the regular ``SimPFS`` data path: the same
checkpoint read-back, run under an ideal fabric, a finite-buffer fabric
with the legacy 200 ms minimum RTO, and the published ~1 ms fix.

Per-port drop/occupancy metrics land in the active ``repro.obs`` job
report (the bench fixture attaches one), which is how the collapse is
diagnosed: drops spike at the client port exactly at the cliff.
"""

from benchmarks.conftest import print_table
from repro.net.params import FabricParams
from repro.pfs.params import PFSParams
from repro.pfs.system import SimPFS
from repro.sim import Simulator

TOTAL_BYTES = 4 << 20
OP_BYTES = 1 << 20
WIDTHS = [2, 4, 8, 16, 32]
BUFFER_PKTS = 64


def _restart_goodput(width: int, fabric: FabricParams) -> float:
    """Write a checkpoint, then one client reads it back striped over
    ``width`` servers; returns read goodput in MB/s."""
    params = PFSParams(n_servers=width, stripe_unit=64 * 1024, fabric=fabric)
    sim = Simulator()
    pfs = SimPFS(sim, params)

    def write():
        yield from pfs.op_create(0, "/ckpt")
        pos = 0
        while pos < TOTAL_BYTES:
            yield from pfs.op_write(0, "/ckpt", pos, OP_BYTES)
            pos += OP_BYTES

    sim.spawn(write())
    sim.run()
    t0 = sim.now

    def read():
        pos = 0
        while pos < TOTAL_BYTES:
            yield from pfs.op_read(1, "/ckpt", pos, OP_BYTES)
            pos += OP_BYTES

    sim.spawn(read())
    sim.run()
    return TOTAL_BYTES / (sim.now - t0) / 1e6


def run_x14(obs):
    ideal = FabricParams()
    legacy = FabricParams(name="1GE-200ms", buffer_pkts=BUFFER_PKTS, min_rto_s=0.2, seed=7)
    fixed = FabricParams(name="1GE-1ms", buffer_pkts=BUFFER_PKTS, min_rto_s=1e-3, seed=7)
    rows = []
    drops_key = "net.fabric.drops_pkts{port=client1}"
    for w in WIDTHS:
        g_ideal = _restart_goodput(w, ideal)
        before = obs.metrics.snapshot()["counters"].get(drops_key, 0.0)
        g_legacy = _restart_goodput(w, legacy)
        drops = obs.metrics.snapshot()["counters"].get(drops_key, 0.0) - before
        g_fixed = _restart_goodput(w, fixed)
        rows.append((w, g_ideal, g_legacy, int(drops), g_fixed))
    return rows


def test_x14_fabric_stripe(run_once, job_observability):
    rows = run_once(run_x14, job_observability)
    print_table(
        f"X14: restart read goodput vs stripe width ({BUFFER_PKTS}-pkt port buffer)",
        ["width", "ideal MB/s", "200ms RTO MB/s", "port drops", "1ms RTO MB/s"],
        [[w, f"{gi:.1f}", f"{gl:.1f}", d, f"{gf:.1f}"] for w, gi, gl, d, gf in rows],
        widths=[7, 12, 16, 12, 14],
    )
    by_width = {w: (gi, gl, d, gf) for w, gi, gl, d, gf in rows}
    # the ideal fabric never collapses: widest stripe at least as fast as narrow
    assert by_width[32][0] > 0.8 * by_width[4][0]
    # below the cliff the finite-buffer fabric tracks ideal loosely
    assert by_width[4][1] > 0.4 * by_width[4][0]
    # past the port buffer: goodput collapses >5x and port drops spike
    # (below the cliff a handful of fast-retransmit drops are tolerable)
    assert by_width[32][1] < by_width[8][1] / 5.0
    assert by_width[2][2] == 0
    assert by_width[32][2] > 2 * by_width[8][2] > 0
    # the published fix: ~1 ms minimum RTO restores most of the goodput
    assert by_width[32][3] > 4.0 * by_width[32][1]
    # per-port occupancy metrics are in the job report
    snap = job_observability.metrics.snapshot()
    assert any(
        k.startswith("net.fabric.occupancy_pkts{") for k in snap["gauges"]
    )
    assert any(
        k.startswith("net.fabric.occupancy_pkts.hist{") for k in snap["histograms"]
    )
