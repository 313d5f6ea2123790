"""Discrete-event simulation kernel used by every simulated substrate.

The kernel is a small, deterministic coroutine scheduler in the style of
SimPy: simulation *processes* are Python generators that ``yield`` request
objects (:class:`Timeout`, :class:`Acquire`, :class:`Wait`, or another
:class:`Process`) and are resumed by the :class:`Simulator` when the request
completes.  All state advances at discrete event times; there is no real
concurrency, so runs are exactly reproducible.

Example
-------
>>> from repro.sim import Simulator, Timeout
>>> sim = Simulator()
>>> log = []
>>> def worker(name, delay):
...     yield Timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.spawn(worker("a", 2.0))
>>> _ = sim.spawn(worker("b", 1.0))
>>> sim.run()
2.0
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from repro.sim.core import (
    Acquire,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    Wait,
)
from repro.sim.resources import Resource, Store
from repro.sim.stats import Counter

__all__ = [
    "Acquire",
    "Counter",
    "Event",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "Wait",
]
