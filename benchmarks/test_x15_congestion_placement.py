"""X15 — congestion-aware placement vs blind round-robin under hot ports.

The placement study (report §4.2.3) scores strategies on load balance
and migration cost, but the finite-buffer fabric (X14) shows the real
cost of a bad layout: a chunk assigned to a switch port that is already
hot suffers tail drops and full-window RTOs, and the whole write stalls
behind it.  This bench closes the loop measured end-to-end: two hot
server ports carry skewed background traffic (an external tenant —
rebuild or scrub flows — converging on them through the shared switch),
while a foreground client writes a stream of new files.

* ``placement=None`` (blind round-robin): 1/4 of the files land on the
  two hot ports and each such write eats one or more 200 ms RTOs;
* ``placement="congestion"``: the strategy senses each switch port's
  occupancy and drop counts (EWMA-smoothed via ``FabricFeedback``, read
  off the ports themselves — the run is the same with no recorder
  attached) and steers new chunks onto cold ports, recovering most of
  the lost goodput.

Per-port drop counters in the job report confirm the mechanism: under
round-robin the hot ports show foreground drop spikes and the cold
ports none; with congestion-aware placement the foreground stops
feeding the hot ports entirely.
"""

import pytest

from benchmarks.conftest import print_table
from repro.net.params import FabricParams
from repro.pfs.params import PFSParams
from repro.pfs.system import SimPFS
from repro.sim import Simulator, Timeout

N_SERVERS = 8
BUFFER_PKTS = 64
HOT_SERVERS = (0, 1)
BG_FLOWS_PER_PORT = 2
BG_BYTES = 4 << 20
N_FILES = 48
FILE_BYTES = 64 * 1024
WARMUP_S = 0.02


def _drops_by_port(obs) -> dict[str, float]:
    counters = obs.metrics.snapshot()["counters"]
    out = {}
    for i in range(N_SERVERS):
        out[f"server{i}"] = counters.get(
            f"net.fabric.drops_pkts{{port=server{i}}}", 0.0
        )
    return out


def _run_skewed(placement, obs):
    """Foreground goodput (MB/s) writing new files while background flows
    keep HOT_SERVERS' switch ports saturated.  Returns (goodput_MBps,
    per-port foreground-window drop deltas, hot-chunk fraction, diversions)."""
    fabric = FabricParams(
        name=f"1GE-{BUFFER_PKTS}pkt", buffer_pkts=BUFFER_PKTS, seed=11
    )
    params = PFSParams(
        n_servers=N_SERVERS,
        stripe_unit=FILE_BYTES,
        fabric=fabric,
        placement=placement,
    )
    sim = Simulator()
    pfs = SimPFS(sim, params)
    live = {"bg": True}

    def background(server: int):
        # an external tenant's flows convergent on one switch output port;
        # not placement-controlled — the skew the foreground must dodge
        while live["bg"]:
            yield from pfs.topology.to_server(server, BG_BYTES)

    for s in HOT_SERVERS:
        for _ in range(BG_FLOWS_PER_PORT):
            sim.spawn(background(s))

    window = {}

    def foreground():
        yield Timeout(WARMUP_S)  # long enough for the hot ports to show
        window["start"] = sim.now
        for i in range(N_FILES):
            path = f"/out/f{i}"
            yield from pfs.op_create(0, path)
            yield from pfs.op_write(0, path, 0, FILE_BYTES)
        window["end"] = sim.now
        live["bg"] = False

    before = _drops_by_port(obs)
    sim.spawn(foreground())
    sim.run()
    after = _drops_by_port(obs)
    drops = {p: after[p] - before[p] for p in after}
    goodput = N_FILES * FILE_BYTES / (window["end"] - window["start"]) / 1e6
    if pfs.placement is None:
        servers = [f % N_SERVERS for f in range(N_FILES)]  # legacy shift layout
        diversions = 0
    else:
        servers = list(pfs.placement._chunk_server.values())
        diversions = pfs.placement.strategy.diversions
    hot_fraction = sum(s in HOT_SERVERS for s in servers) / len(servers)
    return goodput, drops, hot_fraction, diversions


def run_x15(obs):
    rows = {}
    for label, placement in (("round-robin", None), ("congestion", "congestion")):
        rows[label] = _run_skewed(placement, obs)
    return rows


def test_x15_congestion_placement(run_once, job_observability):
    rows = run_once(run_x15, job_observability)
    table = []
    for label, (goodput, drops, hot_frac, diversions) in rows.items():
        hot = sum(drops[f"server{s}"] for s in HOT_SERVERS)
        cold = sum(
            drops[f"server{s}"] for s in range(N_SERVERS) if s not in HOT_SERVERS
        )
        table.append(
            [label, f"{goodput:.2f}", f"{hot_frac:.3f}", int(hot), int(cold), diversions]
        )
    print_table(
        f"X15: foreground goodput under {len(HOT_SERVERS)} hot ports "
        f"({BUFFER_PKTS}-pkt buffers)",
        ["placement", "MB/s", "hot frac", "hot drops", "cold drops", "diverted"],
        table,
        widths=[13, 10, 10, 11, 12, 10],
    )
    g_rr, drops_rr, hot_rr, _ = rows["round-robin"]
    g_ca, drops_ca, hot_ca, diverted = rows["congestion"]
    # the headline: congestion-aware placement recovers the goodput blind
    # round-robin loses to tail drops at the hot ports
    assert g_ca >= 1.5 * g_rr, (g_ca, g_rr)
    # mechanism (placement): round-robin blindly lands 1/4 of the files on
    # the hot ports; feedback steers nearly all chunks off them
    assert hot_rr == pytest.approx(len(HOT_SERVERS) / N_SERVERS)
    assert hot_ca < 0.10
    assert diverted >= int(0.8 * hot_rr * N_FILES)
    # mechanism (fabric): the per-port drop counters localize the damage —
    # hot ports drop, cold ports stay clean in both runs (diverted traffic
    # must not create a new hotspot)
    hot_drops_rr = sum(drops_rr[f"server{s}"] for s in HOT_SERVERS)
    cold_drops_rr = sum(
        drops_rr[f"server{s}"] for s in range(N_SERVERS) if s not in HOT_SERVERS
    )
    cold_drops_ca = sum(
        drops_ca[f"server{s}"] for s in range(N_SERVERS) if s not in HOT_SERVERS
    )
    assert hot_drops_rr > 100 * max(1.0, cold_drops_rr)
    assert cold_drops_ca <= cold_drops_rr + BUFFER_PKTS
    # the job report mirrors the port state the decision was made on
    snap = job_observability.metrics.snapshot()
    assert any(k.startswith("net.fabric.drops_pkts{") for k in snap["counters"])
    assert any(k.startswith("net.fabric.occupancy_pkts{") for k in snap["gauges"])
