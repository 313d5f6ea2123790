"""The fabric equivalence contract (golden numbers).

The ideal fabric (infinite switch buffers, no contention) must reproduce
the pre-refactor inline latency+bandwidth arithmetic *exactly*: these
makespans were captured from the tree immediately before the data path
was routed through ``repro.net.fabric``, for the seed IOR patterns on
every file-system personality.  If one of these moves, the degenerate
fabric configuration is no longer bit-stable with the historical model —
that is a regression, not a tolerance issue.
"""

import dataclasses

import pytest

from repro.net.params import FabricParams, IDEAL_FABRIC
from repro.pfs.params import GPFS_LIKE, LUSTRE_LIKE, PANFS_LIKE, PFSParams
from repro.plfs.simbridge import run_direct_n1, run_plfs, run_readback
from repro.workloads.patterns import n1_segmented, n1_strided

#: (personality, pattern, scheme) -> makespan_s captured pre-refactor.
GOLDEN_MAKESPANS = {
    ("generic", "n1-strided", "direct"): 0.02074609835044017,
    ("generic", "n1-strided", "plfs"): 0.020487964830806796,
    ("generic", "n1-segmented", "direct"): 0.0231782590662682,
    ("generic", "n1-segmented", "plfs"): 0.020487964830806796,
    ("lustre-like", "n1-strided", "direct"): 0.11508509105177736,
    ("lustre-like", "n1-strided", "plfs"): 0.022153493333333336,
    ("lustre-like", "n1-segmented", "direct"): 0.10048246402950212,
    ("lustre-like", "n1-segmented", "plfs"): 0.022153493333333336,
    ("panfs-like", "n1-strided", "direct"): 0.02074609835044017,
    ("panfs-like", "n1-strided", "plfs"): 0.020487964830806796,
    ("panfs-like", "n1-segmented", "direct"): 0.0231782590662682,
    ("panfs-like", "n1-segmented", "plfs"): 0.020487964830806796,
    ("gpfs-like", "n1-strided", "direct"): 0.5790707375808246,
    ("gpfs-like", "n1-strided", "plfs"): 0.021653494096883275,
    ("gpfs-like", "n1-segmented", "direct"): 0.020746098350440167,
    ("gpfs-like", "n1-segmented", "plfs"): 0.021653494096883275,
}

#: (via_plfs,) -> readback makespan_s on the generic personality.
GOLDEN_READBACK = {
    False: 0.015881035521872252,
    True: 0.01588103552187223,
}

PERSONALITIES = {
    "generic": PFSParams(),
    "lustre-like": LUSTRE_LIKE,
    "panfs-like": PANFS_LIKE,
    "gpfs-like": GPFS_LIKE,
}

#: the seed IOR runs: 4 ranks x 8 segments of 64 KiB
SEED_IOR = {
    "n1-strided": n1_strided(4, 64 * 1024, 8),
    "n1-segmented": n1_segmented(4, 64 * 1024, 8),
}


@pytest.mark.parametrize("pname", sorted(PERSONALITIES))
@pytest.mark.parametrize("pattern", sorted(SEED_IOR))
def test_ideal_fabric_matches_pre_refactor_golden(pname, pattern):
    params = PERSONALITIES[pname]
    assert params.fabric is IDEAL_FABRIC
    direct = run_direct_n1(params, SEED_IOR[pattern])
    plfs = run_plfs(params, SEED_IOR[pattern])
    assert direct.makespan_s == GOLDEN_MAKESPANS[(pname, pattern, "direct")]
    assert plfs.makespan_s == GOLDEN_MAKESPANS[(pname, pattern, "plfs")]


@pytest.mark.parametrize("via_plfs", [False, True])
def test_ideal_fabric_readback_matches_golden(via_plfs):
    res = run_readback(PFSParams(), SEED_IOR["n1-strided"], via_plfs=via_plfs)
    assert res.makespan_s == GOLDEN_READBACK[via_plfs]


def test_explicit_ideal_fabric_equals_default():
    """Setting fabric=IDEAL_FABRIC explicitly changes nothing."""
    pattern = SEED_IOR["n1-strided"]
    a = run_direct_n1(PFSParams(), pattern)
    b = run_direct_n1(PFSParams().with_fabric(IDEAL_FABRIC), pattern)
    assert a.makespan_s == b.makespan_s == GOLDEN_MAKESPANS[
        ("generic", "n1-strided", "direct")
    ]


def test_placement_knob_defaults_to_none():
    """The placement knob ships off: no personality opts in implicitly."""
    assert PFSParams().placement is None
    for params in PERSONALITIES.values():
        assert params.placement is None


@pytest.mark.parametrize("pname", sorted(PERSONALITIES))
@pytest.mark.parametrize("pattern", sorted(SEED_IOR))
def test_placement_none_keeps_goldens_bit_identical(pname, pattern):
    """Explicitly setting placement=None takes the legacy StripeLayout
    path: every pinned makespan stays bit-identical, striding and
    personality alike."""
    params = dataclasses.replace(PERSONALITIES[pname], placement=None)
    direct = run_direct_n1(params, SEED_IOR[pattern])
    plfs = run_plfs(params, SEED_IOR[pattern])
    assert direct.makespan_s == GOLDEN_MAKESPANS[(pname, pattern, "direct")]
    assert plfs.makespan_s == GOLDEN_MAKESPANS[(pname, pattern, "plfs")]


@pytest.mark.parametrize("via_plfs", [False, True])
def test_placement_none_keeps_readback_goldens(via_plfs):
    params = dataclasses.replace(PFSParams(), placement=None)
    res = run_readback(params, SEED_IOR["n1-strided"], via_plfs=via_plfs)
    assert res.makespan_s == GOLDEN_READBACK[via_plfs]


def test_finite_buffers_change_the_answer():
    """A congested fabric is a different physical system: same pattern,
    strictly slower checkpoint than the ideal golden value."""
    congested = run_direct_n1(
        PFSParams().with_fabric(FabricParams(name="1GE-8pkt", buffer_pkts=8, seed=3)),
        SEED_IOR["n1-strided"],
    )
    assert congested.makespan_s > GOLDEN_MAKESPANS[("generic", "n1-strided", "direct")]


# -- dfs grep: every remote read rides the default leaf/spine fabric -------
#
# (makespan_s, local_tasks, remote_tasks) per backend configuration on the
# default ClusterSpec fabric (2 racks, 320 MB/s uplinks, infinite
# buffers).  The all-local HDFS and layout rows read no network bytes.

DFS_SPEC_KW = dict(n_nodes=16, chunk_bytes=16 << 20)
DFS_JOB_KW = dict(n_chunks=64, cpu_s_per_chunk=0.05)

GOLDEN_GREP = {
    "hdfs": (1.0428608, 64, 0),
    "naive-shim": (2.3523870535715314, 16, 48),
    "tuned-shim": (1.3443870535714126, 16, 48),
    "layout-shim": (1.0548608, 64, 0),
}


def _dfs_backend(label: str):
    from repro.dfs import ClusterSpec, HDFSBackend, PVFSShimBackend

    spec = ClusterSpec(**DFS_SPEC_KW)
    return {
        "hdfs": lambda: HDFSBackend(spec),
        "naive-shim": lambda: PVFSShimBackend(spec, readahead_bytes=64 * 1024),
        "tuned-shim": lambda: PVFSShimBackend(spec, readahead_bytes=4 << 20),
        "layout-shim": lambda: PVFSShimBackend(
            spec, readahead_bytes=4 << 20, expose_layout=True
        ),
    }[label]()


@pytest.mark.parametrize("label", sorted(GOLDEN_GREP))
def test_routed_dfs_grep_matches_golden(label):
    """run_grep rides the shared Topology; on the default infinite-buffer
    leaf/spine fabric the (makespan, locality) triple is pinned ==."""
    from repro.dfs import GrepJob, run_grep

    res = run_grep(GrepJob(**DFS_JOB_KW), _dfs_backend(label))
    gold = GOLDEN_GREP[label]
    assert res.makespan_s == gold[0]
    assert (res.local_tasks, res.remote_tasks) == (gold[1], gold[2])


def test_finite_fabric_dfs_grep_changes_the_answer():
    """With finite buffers the remote shuffle reads are real windowed
    flows: the rack-blind naive shim gets slower, locality counts stay."""
    from repro.dfs import ClusterSpec, GrepJob, PVFSShimBackend, run_grep

    spec = ClusterSpec(
        **DFS_SPEC_KW,
        fabric=FabricParams(name="finite", buffer_pkts=64, seed=7),
    )
    res = run_grep(
        GrepJob(**DFS_JOB_KW), PVFSShimBackend(spec, readahead_bytes=4 << 20)
    )
    assert (res.local_tasks, res.remote_tasks) == (16, 48)
    assert res.makespan_s != GOLDEN_GREP["tuned-shim"][0]


# -- pnfs scaling: every chunk/extent is a windowed flow ------------------
#
# run_scaling_experiment([1, 4, 8], nbytes_per_client=16 MiB, NFSParams()):
# aggregate MB/s per protocol on the ideal fabric.

GOLDEN_PNFS_SCALING = {
    1: (78.61073376695472, 79.02598210080123),
    4: (111.15043497000536, 310.8330893932394),
    8: (111.13301125087803, 608.1455731762605),
}


def test_routed_pnfs_scaling_matches_golden():
    """NFS/pNFS writes ride Topology ports; the ideal-fabric scaling
    curve is pinned ==."""
    from repro.pnfs.server import NFSParams, run_scaling_experiment

    rows = run_scaling_experiment(
        [1, 4, 8], nbytes_per_client=16 << 20, params=NFSParams()
    )
    for row in rows:
        nfs_gold, pnfs_gold = GOLDEN_PNFS_SCALING[row["clients"]]
        assert row["nfs_MBps"] == nfs_gold
        assert row["pnfs_MBps"] == pnfs_gold


# -- giga Fig-7 create storm: the service path Fig 7 runs stays pinned -----
#
# run_storm(ns, 8, 150, lookups_per_client=0):
# (makespan_s, creates, splits, entries_moved, redirects_create,
#  partitions) per server count, on the default ServiceParams.

GOLDEN_GIGA_METARATES = {
    1: (0.37216400000000577, 1200, 28, 916, 0, 29),
    4: (0.16160799999999848, 1200, 28, 916, 72, 29),
    8: (0.14274799999999893, 1200, 28, 918, 79, 29),
}


@pytest.mark.parametrize("n_servers", sorted(GOLDEN_GIGA_METARATES))
def test_giga_fig7_storm_matches_golden(n_servers):
    """The Fig-7 create storm on the default service must equal the
    capture ==."""
    from repro.giga import run_storm

    res = run_storm(n_servers, 8, 150, lookups_per_client=0)
    gold = GOLDEN_GIGA_METARATES[n_servers]
    assert res.makespan_s == gold[0]
    assert res.creates == gold[1]
    assert res.splits == gold[2]
    assert res.entries_moved == gold[3]
    assert res.redirects_create == gold[4]
    assert res.partitions == gold[5]


def test_finite_fabric_pnfs_scaling_changes_the_answer():
    from repro.pnfs.server import NFSParams, run_scaling_experiment

    params = NFSParams(fabric=FabricParams(name="finite", buffer_pkts=64, seed=7))
    rows = run_scaling_experiment([4], nbytes_per_client=4 << 20, params=params)
    assert rows[0]["pnfs_MBps"] != GOLDEN_PNFS_SCALING[4][1]
