"""Property-based tests for every placement strategy.

Three invariants hold for any strategy, checked here under
hypothesis-generated configurations:

* **validity** — every ``(file, chunk)`` maps into ``[0, n_servers)``;
* **determinism** — a strategy is a pure function of its construction
  parameters: two same-seed instances agree everywhere;
* **degrade-to-base** — ``CongestionAwarePlacement`` with no feedback,
  or with every port reporting zero occupancy, equals its wrapped
  strategy chunk for chunk.
"""

from hypothesis import given, settings, strategies as st

from repro.net import FabricFeedback, FabricParams, Link, SwitchPort
from repro.placement import CongestionAwarePlacement, RoundRobinPlacement


def _strategies(n_servers: int):
    base = RoundRobinPlacement(n_servers)
    return [base, CongestionAwarePlacement(base)]


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
    base = RoundRobinPlacement(n_servers)
    bare = CongestionAwarePlacement(base)
    wired = CongestionAwarePlacement(base, feedback=feedback)
    clock["t"] += 2.0  # force a refresh: still all-idle ports
    want = base.place(file_id, chunk)
    assert bare.place(file_id, chunk) == want
    assert wired.place(file_id, chunk) == want
    assert wired.diversions == 0
