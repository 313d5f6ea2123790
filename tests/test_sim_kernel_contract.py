"""The kernel's observable contract, pinned so a faster kernel keeps it.

Registry mirrors equal the always-on totals after every run slice, a
contended resource grants FIFO with the same wait/utilization figures,
the peak heap depth survives a run that stops short, and the yield-target
fallbacks (subclasses, unsupported objects) still behave.
"""

import pytest

from repro import obs
from repro.sim import Acquire, Resource, SimulationError, Simulator, Timeout

MIRRORED = ("events_scheduled", "events_dispatched", "processes_spawned", "processes_finished")


def _registry(bundle) -> dict:
    counters = bundle.metrics.snapshot()["counters"]
    return {k: counters[f"sim.{k}"] for k in MIRRORED}


def _totals(*sims) -> dict:
    return {k: sum(s.event_stats()[k] for s in sims) for k in MIRRORED}


def _sleeper(delays):
    for d in delays:
        yield Timeout(d)


def test_mirrors_equal_event_stats_after_every_until_slice():
    with obs.use(obs.Observability(name="slices")) as o:
        sim = Simulator()
        for i in range(4):
            sim.spawn(_sleeper([0.5 * (i + 1)] * 3), name=f"s{i}")
        for until in (0.75, 1.5, 3.0, None):
            sim.run(until=until)
            assert _registry(o) == _totals(sim)
        assert _totals(sim)["processes_finished"] == 4


def test_mirrors_sum_two_simulators_sharing_one_bundle():
    with obs.use(obs.Observability(name="shared")) as o:
        a = Simulator()
        a.spawn(_sleeper([1.0, 1.0]))
        a.run(until=1.0)
        assert _registry(o) == _totals(a)
        b = Simulator()
        b.spawn(_sleeper([0.5] * 5))
        b.spawn(_sleeper([2.0]))
        b.run(until=1.0)
        assert _registry(o) == _totals(a, b)
        a.run()
        assert _registry(o) == _totals(a, b)
        b.run()
        assert _registry(o) == _totals(a, b)
        assert o.metrics.snapshot()["gauges"]["sim.now"] == b.now == 2.5


def test_mirrors_hold_after_a_slice_that_reraises_a_crash():
    with obs.use(obs.Observability(name="crash")) as o:
        sim = Simulator()

        def doomed():
            yield Timeout(1.0)
            raise ValueError("boom")

        sim.spawn(doomed())
        sim.spawn(_sleeper([0.5, 2.0]))
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        assert _registry(o) == _totals(sim)
        assert o.metrics.snapshot()["gauges"]["sim.now"] == 1.0
        sim.run()
        assert _registry(o) == _totals(sim)


def _contended():
    """Six jobs on a capacity-2 resource, arriving and holding unevenly."""
    sim = Simulator()
    res = Resource(sim, capacity=2, name="pair")
    order = []

    def job(i, arrive, hold):
        yield Timeout(arrive)
        grant = yield Acquire(res)
        order.append(i)
        yield Timeout(hold)
        res.release(grant)

    for i, (arrive, hold) in enumerate(
        [(0.0, 3.0), (0.1, 1.3), (0.2, 0.7), (0.25, 2.1), (0.9, 0.4), (1.0, 1.7)]
    ):
        sim.spawn(job(i, arrive, hold), name=f"job{i}")
    sim.run()
    return sim, res, order


def test_contended_resource_grants_fifo_with_pinned_statistics():
    sim, res, order = _contended()
    assert order == [0, 1, 2, 3, 4, 5]
    assert res.total_grants == 6
    # values taken from the kernel that granted through an Event per waiter
    assert res.total_wait == 7.550000000000001
    assert sim.now == 5.1


def test_peak_heap_depth_survives_a_run_that_stops_short():
    sim = Simulator()

    def burst():
        yield Timeout(1.0)
        for _ in range(12):
            sim.spawn(_sleeper([0.25, 5.0]))
        yield Timeout(0.5)

    sim.spawn(burst())
    for _ in range(3):
        sim.spawn(_sleeper([3.0]))
    sim.run(until=2.0)
    assert sim.event_stats()["pending_events"] == 15
    assert sim.max_heap_depth == 16


def test_timeout_subclass_takes_the_fallback_path():
    class Pause(Timeout):
        __slots__ = ()

    sim = Simulator()
    got = []

    def sleeper():
        got.append((yield Pause(1.5, value="woke")))
        got.append(sim.now)

    sim.spawn(sleeper())
    sim.run()
    assert got == ["woke", 1.5]


def test_unsupported_yield_target_raises_its_message():
    sim = Simulator()

    def bad():
        yield 42

    sim.spawn(bad(), name="bad")
    with pytest.raises(SimulationError, match=r"^process 'bad' yielded unsupported 42$"):
        sim.run()
