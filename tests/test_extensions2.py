"""Tests for the second extension wave: GIGA+ readdir, correlated
failures, and bench results export."""

import json

import numpy as np
import pytest

from repro.faults.errors import ServerDown
from repro.giga import GigaService, ServiceParams
from repro.replication import ReplicationConfig, simulate_replicated_run
from repro.sim import Simulator


# ------------------------------------------------------------- giga readdir
def _populated_service(n_files=60, n_servers=4, threshold=10):
    sim = Simulator()
    service = GigaService(
        sim, ServiceParams(n_servers=n_servers, split_threshold=threshold)
    )
    loader_client = service.client(0)

    def loader():
        for i in range(n_files):
            yield from service.client_create(loader_client, f"f{i}")

    sim.spawn(loader())
    sim.run()
    return sim, service


def _readdir(sim, service):
    """Run one readdir from a fresh (maximally stale) client."""
    result = {}

    def scanner():
        result["names"] = yield from service.client_readdir(service.client(1))

    sim.spawn(scanner())
    sim.run()
    return result["names"]


def test_readdir_returns_all_entries():
    sim, service = _populated_service()
    assert _readdir(sim, service) == sorted(f"f{i}" for i in range(60))
    assert service.counters["readdir_pages"] == len(service.bitmap)


def test_readdir_visits_every_partition():
    sim, service = _populated_service(n_files=100, threshold=8)
    assert len(service.bitmap) > 4
    assert len(_readdir(sim, service)) == 100


def test_readdir_takes_time_proportional_to_partitions():
    sim, service = _populated_service()
    t0 = sim.now
    _readdir(sim, service)
    min_expected = len(service.bitmap) * service.params.client_rpc_s
    assert sim.now - t0 >= min_expected


def test_readdir_down_owner_raises_instead_of_partial_listing():
    sim, service = _populated_service()
    victim = service.map.owner(0)
    service.servers[victim].crash()      # before the coordinator notices
    with pytest.raises(ServerDown) as err:
        _readdir(sim, service)
    assert err.value.server == victim


# ------------------------------------------------------------- correlated failures
def test_correlated_prob_validation():
    with pytest.raises(ValueError):
        ReplicationConfig(correlated_prob=1.5)


def test_correlated_failures_hurt_two_replicas():
    """With rack-correlated failures, r=2 loses data far more often —
    the effect that pushes real systems to 3 replicas across racks."""
    year = 365 * 86400.0
    base = dict(replicas=2, n_servers=12, server_mttf_s=20 * 86400.0, recover_s=12 * 3600.0)
    indep = simulate_replicated_run(
        ReplicationConfig(**base, correlated_prob=0.0), 3 * year, np.random.default_rng(3)
    )
    corr = simulate_replicated_run(
        ReplicationConfig(**base, correlated_prob=0.3), 3 * year, np.random.default_rng(3)
    )
    assert corr.data_loss_events > indep.data_loss_events
    assert corr.availability < indep.availability


def test_correlated_single_replica_unchanged():
    cfg_args = dict(replicas=1, server_mttf_s=10 * 86400.0)
    a = simulate_replicated_run(
        ReplicationConfig(**cfg_args, correlated_prob=0.0),
        365 * 86400.0, np.random.default_rng(5),
    )
    b = simulate_replicated_run(
        ReplicationConfig(**cfg_args, correlated_prob=0.9),
        365 * 86400.0, np.random.default_rng(5),
    )
    assert a.data_loss_events == b.data_loss_events


# ------------------------------------------------------------- results export
def test_print_table_exports_json(tmp_path, capsys, monkeypatch):
    import benchmarks.conftest as bc

    monkeypatch.setattr(bc, "_RESULTS_DIR", str(tmp_path))
    bc.print_table("Demo Table: A/B", ["x", "y"], [[1, 2.5], ["z", 0.0001]])
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    payload = json.loads(files[0].read_text())
    assert payload["title"] == "Demo Table: A/B"
    assert payload["header"] == ["x", "y"]
    assert payload["rows"][0] == ["1", "2.50"]
    out = capsys.readouterr().out
    assert "Demo Table" in out
