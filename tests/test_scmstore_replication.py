"""Tests for the SCM object store, replication tradeoffs, HEC extensions,
and ScalaTrace compression."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pfs import PFSParams, SimPFS
from repro.replication import ReplicationConfig, simulate_replicated_run, sweep_replication
from repro.scmstore import ObjectStore, PLACEMENT_POLICIES, run_mixed_workload
from repro.scmstore.store import KINDS
from repro.sim import Simulator
from repro.tracing.records import TraceEvent, TraceLog
from repro.tracing.scalatrace import Loop, compress, compress_log, expand, signatures


# ------------------------------------------------------------- scm store
def test_store_write_and_locate():
    s = ObjectStore(policy="mixed")
    s.write("data", ("data", 1, 0))
    s.write("data", ("data", 1, 1))
    assert ("data", 1, 0) in s.location
    s.check_invariants()


def test_rewrite_invalidates_old_page():
    s = ObjectStore(policy="mixed")
    s.write("atime", ("atime", 1))
    first = s.location[("atime", 1)]
    s.write("atime", ("atime", 1))
    assert s.location[("atime", 1)] != first
    s.check_invariants()


def test_store_param_validation():
    with pytest.raises(ValueError):
        ObjectStore(policy="chaos")
    with pytest.raises(ValueError):
        ObjectStore(n_segments=2)
    s = ObjectStore()
    with pytest.raises(ValueError):
        s.write("colour", ("x",))


def test_cleaning_triggers_and_invariants_hold():
    s = ObjectStore(n_segments=16, pages_per_segment=32, policy="mixed")
    rng = np.random.default_rng(0)
    for i in range(3000):
        s.write("atime", ("atime", int(rng.integers(0, 40))))
    assert s.stats.segments_erased > 0
    s.check_invariants()


def test_stream_mapping_per_policy():
    assert ObjectStore(policy="mixed").stream_of("atime") == "all"
    sm = ObjectStore(policy="split-meta")
    assert sm.stream_of("data") == "data"
    assert sm.stream_of("meta") == sm.stream_of("atime") == "hot"
    sa = ObjectStore(policy="split-all")
    assert {sa.stream_of(k) for k in ("data", "meta", "atime")} == {"data", "meta", "atime"}


def test_cleaner_keeps_each_page_in_its_written_stream():
    """Keys not shaped ``(kind, ...)`` clean into the stream they were
    written to; the cleaner must not re-derive a kind from the key."""
    s = ObjectStore(8, 4, "split-all")
    rng = np.random.default_rng(0)
    for _ in range(2000):
        s.write("atime", ("obj", int(rng.integers(10))))
        s.write("meta", f"m{int(rng.integers(4))}")
    assert s.stats.cleaner_moves > 0
    s.check_invariants()
    meta = {seg for key, (seg, _) in s.location.items() if isinstance(key, str)}
    atime = {seg for key, (seg, _) in s.location.items() if isinstance(key, tuple)}
    assert not meta & atime


def test_store_full_raises_up_front():
    s = ObjectStore(8, 4, "mixed")  # (8 - 2 - 2) * 4 keys
    for key in range(16):
        s.write("data", key)
    with pytest.raises(RuntimeError, match="store full"):
        s.write("data", 16)
    s.write("data", 0)  # rewrites still fit
    s.check_invariants()


@given(
    policy=st.sampled_from(PLACEMENT_POLICIES),
    writes=st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 11)), max_size=300),
)
@settings(max_examples=60, deadline=None)
def test_store_invariants_under_random_writes(policy, writes):
    s = ObjectStore(8, 4, policy)
    for kind, key in writes:
        s.write(kind, key)
    s.check_invariants()
    # location agrees with the device mapping, one live page per key
    assert len(s.location) == len({key for _, key in writes})
    pps = s.device.params.pages_per_block
    phys = np.array([seg * pps + page for seg, page in s.location.values()], dtype=np.int64)
    assert len(np.unique(phys)) == len(phys)
    assert np.array_equal(s.device.mapping[s.device.page_owner[phys]], phys)


def test_separation_reduces_cleaning_overhead():
    """The report's finding: separating data/meta/atime cuts cleaning
    overhead significantly under read-intensive workloads."""
    results = {
        policy: run_mixed_workload(
            policy, np.random.default_rng(7),
            n_segments=48, pages_per_segment=64,
        )
        for policy in PLACEMENT_POLICIES
    }
    assert results["split-all"].cleaning_overhead < 0.5 * results["mixed"].cleaning_overhead
    assert results["split-meta"].cleaning_overhead <= results["mixed"].cleaning_overhead


# ------------------------------------------------------------- replication
def test_replication_config_validation():
    with pytest.raises(ValueError):
        ReplicationConfig(replicas=0)
    with pytest.raises(ValueError):
        ReplicationConfig(replicas=20, n_servers=10)


def test_single_replica_loses_data():
    cfg = ReplicationConfig(replicas=1, server_mttf_s=5 * 86400.0)
    out = simulate_replicated_run(cfg, 365 * 86400.0, np.random.default_rng(1))
    assert out.data_loss_events > 0
    assert out.availability < 1.0


def test_more_replicas_more_available_less_bandwidth():
    duration = 365 * 86400.0
    outs = sweep_replication(
        ReplicationConfig(n_servers=12, server_mttf_s=10 * 86400.0, recover_s=6 * 3600.0),
        duration, seed=3,
    )
    # availability non-decreasing, write fan-out fraction increasing
    avail = [o.availability for o in outs]
    fan = [o.write_bandwidth_fraction for o in outs]
    assert avail[2] >= avail[0]
    assert all(b >= a for a, b in zip(fan, fan[1:]))
    # at some point fan-out throttling kicks in and utilization drops
    util = [o.utilization for o in outs]
    assert util[-1] < util[1]


def test_sweep_has_interior_optimum():
    """The tradeoff the Michigan/UCSC tools expose: some replication is
    much better than none, but maximal replication wastes bandwidth."""
    outs = sweep_replication(
        ReplicationConfig(n_servers=12, server_mttf_s=5 * 86400.0, recover_s=12 * 3600.0),
        2 * 365 * 86400.0, seed=5,
    )
    util = [o.utilization for o in outs]
    best = int(np.argmax(util))
    assert 0 < best < len(util) - 1


# ------------------------------------------------------------- HEC extensions
def test_group_open_beats_open_storm():
    n_ranks = 64

    def storm(pfs):
        def opener(r):
            yield from pfs.op_open(r, "/f")
        return [opener(r) for r in range(n_ranks)]

    sim1 = Simulator()
    pfs1 = SimPFS(sim1, PFSParams())
    sim1.spawn(pfs1.op_create(0, "/f"))
    sim1.run()
    t0 = sim1.now
    for p in storm(pfs1):
        sim1.spawn(p)
    t_storm = sim1.run() - t0

    sim2 = Simulator()
    pfs2 = SimPFS(sim2, PFSParams())
    sim2.spawn(pfs2.op_create(0, "/f"))
    sim2.run()
    t0 = sim2.now

    def group():
        yield from pfs2.op_group_open(list(range(n_ranks)), "/f")

    sim2.spawn(group())
    t_group = sim2.run() - t0
    assert t_group < t_storm / 10.0
    assert pfs2.counters["group_opens"] == 1


def test_stat_layout_returns_real_geometry():
    sim = Simulator()
    pfs = SimPFS(sim, PFSParams(n_servers=6, stripe_unit=1 << 16))
    got = {}

    def job():
        yield from pfs.op_create(0, "/f")
        got.update((yield from pfs.op_stat_layout(0, "/f")))

    sim.spawn(job())
    sim.run()
    assert got["n_servers"] == 6
    assert got["stripe_unit"] == 1 << 16
    assert got["start_shift"] == pfs.lookup("/f").shift


# ------------------------------------------------------------- scalatrace
def test_compress_simple_repeat():
    seq = ["a", "b", "a", "b", "a", "b"]
    comp = compress(seq)
    assert expand(comp) == seq
    assert len(comp) == 1
    assert isinstance(comp[0], Loop)
    assert comp[0].count == 3


def test_compress_nested_loops():
    inner = ["x", "y"] * 3 + ["z"]
    seq = inner * 4
    comp = compress(seq)
    assert expand(comp) == seq
    from repro.tracing.scalatrace import compressed_size

    assert compressed_size(comp) < len(seq) / 3


def test_compress_irreducible():
    seq = ["a", "b", "c", "d"]
    assert compress(seq) == seq


def test_signatures_delta_encode_strides():
    log = TraceLog()
    for i in range(6):
        log.add(TraceEvent(float(i), 0, "write", 1000 + 320 * i, 64))
    sigs = signatures(log, 0)
    # after the first record, deltas are constant -> compressible
    assert len({s.delta for s in sigs[1:]}) == 1


def test_compress_log_strided_checkpoint():
    """A strided checkpoint trace compresses by ~the step count."""
    log = TraceLog()
    n_ranks, steps = 4, 50
    t = 0.0
    for s in range(steps):
        for r in range(n_ranks):
            log.add(TraceEvent(t, r, "write", (s * n_ranks + r) * 128, 128))
            t += 1.0
    out = compress_log(log)
    assert out["raw_events"] == n_ranks * steps
    assert out["ratio"] >= steps / 3.1


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=0, max_size=40))
@settings(max_examples=80, deadline=None)
def test_compress_lossless_property(seq):
    assert expand(compress(seq)) == seq
