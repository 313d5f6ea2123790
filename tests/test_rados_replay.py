"""Tests for RADOS-lite."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rados import RadosCluster, RadosError


# ------------------------------------------------------------- rados
def test_write_replicates_to_acting_set():
    c = RadosCluster(n_osds=6, replicas=3)
    acting = c.write("obj.a", b"payload")
    assert len(acting) == 3
    assert len(set(acting)) == 3
    for o in acting:
        assert c._store[o]["obj.a"] == b"payload"
    c.check_invariants()


def test_read_from_primary_and_missing():
    c = RadosCluster(n_osds=4, replicas=2)
    c.write("x", b"1")
    assert c.read("x") == b"1"
    with pytest.raises(KeyError):
        c.read("nope")


def test_failure_recovers_replication():
    c = RadosCluster(n_osds=6, replicas=3)
    rng = np.random.default_rng(0)
    for i in range(40):
        c.write(f"o{i}", bytes(rng.integers(0, 256, 100, dtype=np.uint8)))
    victim = c.primary("o0")
    moved = c.fail_osd(victim)
    assert moved > 0
    assert c.degraded_objects() == []
    c.check_invariants()
    assert c.read("o0") is not None
    assert c.osdmap.epoch == 2


def test_placement_moves_minimally_on_failure():
    """CRUSH property: one failed OSD of n relocates ~1/n of the copies."""
    n = 10
    c = RadosCluster(n_osds=n, replicas=3)
    for i in range(300):
        c.write(f"o{i}", b"D" * 100)
    total = c.total_stored_bytes()
    moved = c.fail_osd(0)
    # only the failed OSD's share (~1/n of all copies) is re-created
    assert moved <= 0.25 * total
    assert moved >= 0.03 * total


def test_rejoin_backfills():
    c = RadosCluster(n_osds=5, replicas=2)
    for i in range(30):
        c.write(f"o{i}", b"x" * 50)
    c.fail_osd(2)
    c.check_invariants()
    moved = c.rejoin_osd(2)
    assert moved >= 0
    c.check_invariants()
    assert c.degraded_objects() == []


def test_quorum_enforced():
    c = RadosCluster(n_osds=3, replicas=3)
    c.write("x", b"1")
    with pytest.raises(RadosError):
        c.fail_osd(0)  # cannot satisfy 3 replicas with 2 OSDs


def test_object_loss_detected():
    c = RadosCluster(n_osds=6, replicas=2)
    c.write("x", b"1")
    a, b = c.acting_set("x")
    # destroy both copies behind the cluster's back, then force re-peer
    c._store[a].pop("x")
    c._store[b].pop("x")
    with pytest.raises(RadosError, match="lost"):
        c.fail_osd(next(o for o in c.osdmap.up if o not in (a, b)))


def test_bad_params():
    with pytest.raises(ValueError):
        RadosCluster(n_osds=2, replicas=3)
    c = RadosCluster(n_osds=4)
    with pytest.raises(ValueError):
        c.rejoin_osd(99)


@given(
    n_objects=st.integers(5, 25),
    kills=st.lists(st.integers(0, 7), min_size=1, max_size=3, unique=True),
)
@settings(max_examples=25, deadline=None)
def test_durability_under_failures_property(n_objects, kills):
    """With r=3 and failures separated by recovery, no data is ever lost
    and the cluster returns to full replication."""
    c = RadosCluster(n_osds=8, replicas=3)
    blobs = {}
    for i in range(n_objects):
        blobs[f"o{i}"] = bytes([i]) * 64
        c.write(f"o{i}", blobs[f"o{i}"])
    for osd in kills:
        if osd in c.osdmap.up and len(c.osdmap.up) > 3:
            c.fail_osd(osd)
            c.check_invariants()
    for name, data in blobs.items():
        assert c.read(name) == data
    assert c.degraded_objects() == []
