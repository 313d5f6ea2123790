"""Tests for the round-robin placement strategy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.placement import RoundRobinPlacement


def test_round_robin_determinism_and_range():
    p = RoundRobinPlacement(5)
    assert p.place(3, 0) == 3
    assert p.place(3, 7) == (3 + 7) % 5
    for f in range(10):
        for c in range(10):
            assert 0 <= p.place(f, c) < 5


def test_invalid_params():
    with pytest.raises(ValueError):
        RoundRobinPlacement(0)


@given(
    n_servers=st.integers(2, 12),
    file_id=st.integers(0, 1000),
    chunk=st.integers(0, 1000),
)
@settings(max_examples=60, deadline=None)
def test_all_strategies_in_range(n_servers, file_id, chunk):
    strat = RoundRobinPlacement(n_servers)
    s = strat.place(file_id, chunk)
    assert 0 <= s < n_servers
    assert strat.place(file_id, chunk) == s  # deterministic
