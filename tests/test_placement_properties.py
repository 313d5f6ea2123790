"""Property-based tests for every placement strategy.

Four invariants hold for any strategy (report §4.2.3 and the CRUSH
paper's claims), checked here under hypothesis-generated configurations:

* **validity** — every ``(file, chunk)`` maps into ``[0, n_servers)``;
* **determinism** — a strategy is a pure function of its construction
  parameters: two same-seed instances agree everywhere;
* **near-minimal migration** — growing a CRUSH-like cluster from N to
  N+1 servers moves a bounded multiple of the ``1/(N+1)`` minimum,
  while modulo striping reshuffles most of the data;
* **degrade-to-base** — ``CongestionAwarePlacement`` with no feedback,
  or with every port reporting zero occupancy, equals its wrapped
  strategy chunk for chunk.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.net import FabricFeedback, FabricParams, Link, SwitchPort
from repro.placement import (
    CongestionAwarePlacement,
    CrushLikePlacement,
    RaidGroupPlacement,
    RoundRobinPlacement,
    migration_fraction,
    synthetic_file_sizes,
)


def _strategies(n_servers: int):
    base = [
        RoundRobinPlacement(n_servers),
        CrushLikePlacement(n_servers),
        RaidGroupPlacement(n_servers, group_size=min(3, n_servers)),
    ]
    return base + [CongestionAwarePlacement(b) for b in list(base)]


@given(
    n_servers=st.integers(1, 24),
    file_id=st.integers(0, 10_000),
    chunk=st.integers(0, 10_000),
)
@settings(max_examples=80, deadline=None)
def test_every_chunk_maps_to_a_valid_server(n_servers, file_id, chunk):
    for strat in _strategies(n_servers):
        s = strat.place(file_id, chunk)
        assert 0 <= s < n_servers, strat.name


@given(
    n_servers=st.integers(2, 16),
    file_id=st.integers(0, 5_000),
    chunk=st.integers(0, 5_000),
)
@settings(max_examples=60, deadline=None)
def test_determinism_across_instances(n_servers, file_id, chunk):
    """Two independently-built same-config strategies agree everywhere."""
    for a, b in zip(_strategies(n_servers), _strategies(n_servers)):
        assert a.place(file_id, chunk) == b.place(file_id, chunk), a.name


@given(n_servers=st.integers(4, 12), seed=st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_crush_migration_bounded_near_minimal(n_servers, seed):
    """CRUSH claim: growing N -> N+1 moves close to the 1/(N+1) minimum.
    Allow a 3x envelope over the minimum; modulo striping blows far past it."""
    rng = np.random.default_rng(seed)
    sizes = synthetic_file_sizes(150, rng)
    minimum = 1.0 / (n_servers + 1)
    crush_moved = migration_fraction(
        CrushLikePlacement(n_servers), CrushLikePlacement(n_servers + 1), sizes
    )
    assert crush_moved <= 3.0 * minimum
    rr_moved = migration_fraction(
        RoundRobinPlacement(n_servers), RoundRobinPlacement(n_servers + 1), sizes
    )
    assert rr_moved > 3.0 * minimum
    assert crush_moved < rr_moved


@given(
    n_servers=st.integers(2, 12),
    file_id=st.integers(0, 2_000),
    chunk=st.integers(0, 2_000),
)
@settings(max_examples=60, deadline=None)
def test_congestion_degrades_to_base_on_idle_fabric(n_servers, file_id, chunk):
    """All ports at zero occupancy (and no drops) -> exactly the wrapped
    strategy's choice, whether feedback is absent or present-but-idle."""
    idle = FabricParams(name="idle", buffer_pkts=64)
    ports = [SwitchPort(Link(125e6), idle, name=f"server{i}") for i in range(n_servers)]
    clock = {"t": 0.0}
    feedback = FabricFeedback(ports, now_fn=lambda: clock["t"], interval_s=1.0)
    for base in (
        RoundRobinPlacement(n_servers),
        CrushLikePlacement(n_servers),
        RaidGroupPlacement(n_servers, group_size=min(3, n_servers)),
    ):
        bare = CongestionAwarePlacement(base)
        wired = CongestionAwarePlacement(base, feedback=feedback)
        clock["t"] += 2.0  # force a refresh: still all-idle ports
        want = base.place(file_id, chunk)
        assert bare.place(file_id, chunk) == want
        assert wired.place(file_id, chunk) == want
        assert wired.diversions == 0


@given(n_servers=st.integers(2, 12), file_id=st.integers(0, 1_000))
@settings(max_examples=40, deadline=None)
def test_congestion_candidates_respect_base_structure(n_servers, file_id):
    """Alternates stay inside the wrapped strategy's structural universe:
    a RAID-group file can only ever be diverted within its group."""
    group = min(3, n_servers)
    base = RaidGroupPlacement(n_servers, group_size=group)
    strat = CongestionAwarePlacement(base, fanout=8)
    members = set(base.group_of(file_id))
    for chunk in range(6):
        for s in strat.candidates(file_id, chunk):
            assert s in members
