"""Tests for the keyed always-on counter."""

from repro.sim import Counter


def test_counter_accumulates():
    c = Counter()
    c.add("ops")
    c.add("ops", 2)
    c.add("bytes", 4096)
    assert c["ops"] == 3
    assert c["bytes"] == 4096
    assert c["missing"] == 0
    assert c.as_dict() == {"ops": 3, "bytes": 4096}
