"""Tests for distributed metadata service (PLFS follow-on #1)."""

import pytest

from repro.pfs import PFSParams, SimPFS
from repro.sim import Simulator


def _create_storm(n_mds: int, n_files: int = 64) -> float:
    sim = Simulator()
    pfs = SimPFS(sim, PFSParams(n_mds=n_mds))

    def creator(i):
        yield from pfs.op_create(i, f"/dir/f.{i}")

    for i in range(n_files):
        sim.spawn(creator(i))
    makespan = sim.run()
    assert all(pfs.exists(f"/dir/f.{i}") for i in range(n_files))
    return makespan


def test_single_mds_serializes():
    t = _create_storm(1, n_files=50)
    assert t == pytest.approx(50 * PFSParams().mds_op_s, rel=0.01)


def test_multiple_mds_scale_create_storm():
    t1 = _create_storm(1)
    t4 = _create_storm(4)
    t8 = _create_storm(8)
    assert t4 < t1 / 2
    assert t8 < t4


def test_path_routing_deterministic():
    sim = Simulator()
    pfs = SimPFS(sim, PFSParams(n_mds=4))
    assert pfs._mds_for("/a/b") is pfs._mds_for("/a/b")
    # paths spread over multiple servers
    servers = {pfs._mds_for(f"/f{i}") for i in range(40)}
    assert len(servers) > 1


def test_mds_attribute_backwards_compatible():
    sim = Simulator()
    pfs = SimPFS(sim, PFSParams())
    assert pfs.mds is pfs.mds_servers[0]
    assert len(pfs.mds_servers) == 1
