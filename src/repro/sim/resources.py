"""Shared resources for simulation processes.

:class:`Resource` models a server with fixed capacity and a FIFO queue —
the building block for disk heads, NICs, and service threads.
:class:`Store` is an unbounded FIFO message channel used for request
queues between simulated components.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.core import Event, Process, SimulationError, Simulator


class Grant:
    """Token returned by an :class:`Acquire`; proof of holding one unit."""

    __slots__ = ("resource", "acquired_at", "released")

    def __init__(self, resource: "Resource", acquired_at: float) -> None:
        self.resource = resource
        self.acquired_at = acquired_at
        self.released = False


class Resource:
    """Capacity-limited resource with FIFO admission.

    Processes request a unit with ``grant = yield Acquire(res)`` and must
    call ``res.release(grant)`` when done.  Utilization statistics are
    tracked for reporting.

    Under an active ``repro.obs`` bundle the resource also feeds
    ``sim.resource.wait_s`` / ``service_s{resource=<name>}`` histograms.
    Construction keeps only the registry handle; each histogram is
    registered by the first grant (release), so a resource nobody ever
    acquired leaves no series behind.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._queue: Deque[tuple[Process, float]] = deque()  # (waiter, enqueued at)
        self._busy_time = 0.0
        self._last_change = 0.0
        self.total_grants = 0
        self.total_wait = 0.0
        obs = getattr(sim, "obs", None)
        self._metrics = obs.metrics if obs is not None else None
        self._h_wait = self._h_service = None

    def _histogram(self, what: str):
        return self._metrics.histogram(
            f"sim.resource.{what}", resource=self.name or "anon"
        )

    # internal protocol used by Acquire dispatch
    def _enqueue(self, proc: Process) -> None:
        if self.in_use < self.capacity:
            self._grant(proc, self.sim.now)
        else:
            self._queue.append((proc, self.sim.now))

    def _grant(self, proc: Process, enqueued_at: float) -> None:
        sim = self.sim
        now = sim.now
        self._busy_time += self.in_use * (now - self._last_change)
        self._last_change = now
        self.in_use += 1
        self.total_grants += 1
        wait = now - enqueued_at
        self.total_wait += wait
        if self._metrics is not None:
            if self._h_wait is None:
                self._h_wait = self._histogram("wait_s")
            self._h_wait.observe(wait)
        # the waiter resumes with its grant token: one heap entry at now
        sim._schedule(now, proc._step, Grant(self, now))

    def release(self, grant: Grant) -> None:
        if grant.resource is not self:
            raise SimulationError("grant released on the wrong resource")
        if grant.released:
            raise SimulationError("grant released twice")
        grant.released = True
        if self._metrics is not None:
            if self._h_service is None:
                self._h_service = self._histogram("service_s")
            self._h_service.observe(self.sim.now - grant.acquired_at)
        now = self.sim.now
        self._busy_time += self.in_use * (now - self._last_change)
        self._last_change = now
        self.in_use -= 1
        if self._queue and self.in_use < self.capacity:
            self._grant(*self._queue.popleft())

    def utilization(self) -> float:
        """Time-averaged fraction of capacity in use since t=0."""
        now = self.sim.now
        if now == 0.0:
            return 0.0
        busy = self._busy_time + self.in_use * (now - self._last_change)
        return busy / (now * self.capacity)

    def mean_wait(self) -> float:
        return self.total_wait / self.total_grants if self.total_grants else 0.0


class Store:
    """Unbounded FIFO channel: ``put`` items, processes ``yield store.get()``."""

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._get_name = f"get:{name}"
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.total_put = 0

    def put(self, item: Any) -> None:
        self.total_put += 1
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item (FIFO)."""
        ev = Event(self.sim, name=self._get_name)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)

    def peek(self) -> Optional[Any]:
        return self._items[0] if self._items else None
