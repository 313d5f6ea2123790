"""Core event loop, events, and coroutine processes.

Determinism contract: events scheduled for the same simulated time fire in
the order they were scheduled (FIFO tie-break via a monotone sequence
number).  No wall-clock or nondeterministic source is consulted anywhere.
"""

from __future__ import annotations

import time as _time
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional

from repro.obs import current as _current_obs


class SimulationError(RuntimeError):
    """Raised for protocol violations inside the simulation kernel."""


class Event:
    """A one-shot occurrence that processes may wait on.

    An event starts *pending*; :meth:`succeed` (or :meth:`fail`) triggers it
    exactly once, resuming every waiter.  Waiters that arrive after the
    trigger are resumed immediately at the current simulation time.
    """

    __slots__ = ("sim", "_value", "_exc", "_done", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._done = False
        self._waiters: list[Process] = []

    @property
    def triggered(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimulationError(f"event {self.name!r} not yet triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._done:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._done = True
        self._value = value
        self._flush()
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._done:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._done = True
        self._exc = exc
        self._flush()
        return self

    def _add_waiter(self, proc: "Process") -> None:
        if self._done:
            self.sim._schedule(self.sim.now, proc._resume_from_event, self)
        else:
            self._waiters.append(proc)

    def _flush(self) -> None:
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self.sim._schedule(self.sim.now, proc._resume_from_event, self)


class Timeout:
    """Yield target: resume the process after ``delay`` simulated seconds."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout {delay!r}")
        self.delay = float(delay)
        self.value = value


class Wait:
    """Yield target: block until ``event`` triggers; returns its value."""

    __slots__ = ("event",)

    def __init__(self, event: Event) -> None:
        self.event = event


class Acquire:
    """Yield target: block until a unit of ``resource`` is granted.

    The yield expression evaluates to a *grant* token which must later be
    passed to ``resource.release(grant)``.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: Any) -> None:
        self.resource = resource


class Process:
    """A running generator coroutine inside a :class:`Simulator`.

    A process is itself waitable: yielding a ``Process`` blocks until it
    finishes and evaluates to its return value (the generator's
    ``StopIteration`` value).  Uncaught exceptions propagate to waiters, or
    to :meth:`Simulator.run` if nobody is waiting.
    """

    __slots__ = ("sim", "gen", "name", "done_event")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "") -> None:
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"spawn() needs a generator, got {type(gen).__name__}; "
                "did you forget a yield in the process function?"
            )
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.done_event = Event(sim, name=f"done:{self.name}")

    def _resume_from_event(self, event: Event) -> None:
        try:
            value = event.value
        except BaseException as exc:  # propagate failure into the coroutine
            self._step(exc=exc)
            return
        self._step(value=value)

    def _step(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        try:
            if exc is None:
                target = self.gen.send(value)  # send(None) also starts the generator
            else:
                target = self.gen.throw(exc)
        except StopIteration as stop:
            self.sim.processes_finished += 1
            self.done_event.succeed(stop.value)
            return
        except BaseException as err:
            if self.done_event._waiters:
                self.done_event.fail(err)
            else:
                self.done_event._done = True
                self.done_event._exc = err
                self.sim._crash(err)
            return
        # the two hot targets by exact type; _dispatch handles the rest
        kind = type(target)
        if kind is Timeout:
            sim = self.sim
            heappush(sim._heap, (sim.now + target.delay, sim._seq, self._step, (target.value,)))
            sim._seq += 1
        elif kind is Acquire:
            target.resource._enqueue(self)
        else:
            self._dispatch(target)

    def _dispatch(self, target: Any) -> None:
        sim = self.sim
        if isinstance(target, Timeout):
            sim._schedule(sim.now + target.delay, self._step, target.value)
        elif isinstance(target, Wait):
            target.event._add_waiter(self)
        elif isinstance(target, Event):
            target._add_waiter(self)
        elif isinstance(target, Process):
            target.done_event._add_waiter(self)
        elif isinstance(target, Acquire):
            target.resource._enqueue(self)
        else:
            self._step(exc=SimulationError(f"process {self.name!r} yielded unsupported {target!r}"))


class Simulator:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    obs:
        Optional :class:`repro.obs.Observability` bundle; defaults to the
        globally active one (``repro.obs.current()``).  When set, the
        kernel mirrors its scheduled/dispatched event and process
        lifecycle totals into the bundle's registry at the end of every
        :meth:`run` slice, and resources built on this simulator record
        wait/service histograms.

    Independently of ``obs``, the kernel keeps **always-on totals** cheap
    enough for uninstrumented runs — events scheduled/dispatched,
    processes spawned/finished, max heap depth, wall-clock per
    :meth:`run` slice — snapshot via :meth:`event_stats`.

    **Batching facilities** (used by high-fan-in consumers such as the
    fluid fabric engine, :mod:`repro.net.fluid`):

    * :meth:`call_at_coalesced` — idempotent scheduling: repeated
      requests for the same ``(time, key)`` share one heap entry, so a
      tick that ten thousand flows want to observe costs one event.
      Duplicates are counted in ``event_stats()["wakeups_coalesced"]``.
    * :meth:`acquire_event` / :meth:`recycle_event` — a freelist of
      :class:`Event` objects for hot single-waiter request/response
      cycles; reuses are counted in ``event_stats()["events_pooled"]``.

    Both are pure overlays: nothing in the kernel's determinism contract
    (same-time events fire in scheduling order) changes.
    """

    def __init__(self, obs=None) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        self._seq = 0
        self._crashed: Optional[BaseException] = None
        # always-on kernel totals (see event_stats); plain int/float bumps
        self.events_dispatched = 0
        self.processes_spawned = 0
        self.processes_finished = 0
        self.max_heap_depth = 0
        self.run_wall_s = 0.0
        self.run_slices = 0
        # batching overlays: coalesced tick wakeups + pooled events
        self._coalesced: dict[tuple, bool] = {}
        self.wakeups_coalesced = 0
        self._event_pool: list[Event] = []
        self.events_pooled = 0
        self.obs = obs if obs is not None else _current_obs()
        # registry counters mirroring four of the totals, and the totals
        # they last received: topped up once per run slice, not per event
        self._mirrors: tuple = ()
        self._mirrored = (0, 0, 0, 0)
        self._g_now = None
        if self.obs is not None:
            m = self.obs.metrics
            self._mirrors = tuple(m.counter(f"sim.{k}") for k in (
                "events_scheduled", "events_dispatched", "processes_spawned",
                "processes_finished",
            ))
            self._g_now = m.gauge("sim.now")

    # -- scheduling --------------------------------------------------
    def _schedule(self, time: float, fn: Callable, *args: Any) -> None:
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past ({time} < {self.now})")
        heappush(self._heap, (time, self._seq, fn, args))
        self._seq += 1

    def call_at(self, time: float, fn: Callable, *args: Any) -> None:
        """Schedule a plain callback at an absolute simulated time."""
        self._schedule(time, fn, *args)

    def call_after(self, delay: float, fn: Callable, *args: Any) -> None:
        """Schedule a plain callback ``delay`` seconds from now."""
        self._schedule(self.now + delay, fn, *args)

    def call_at_coalesced(self, time: float, key: Any, fn: Callable, *args: Any) -> bool:
        """Schedule ``fn`` at ``time``, coalescing duplicate requests.

        The first request for a given ``(time, key)`` pays one heap
        entry; every further request for the same pair before it fires
        is dropped (the callback is already scheduled) and counted in
        ``event_stats()["wakeups_coalesced"]``.  Returns True when this
        call actually scheduled, False when it coalesced.

        This is the homogeneous-wakeup batcher: a fan-in of N identical
        per-tick wakeups (e.g. N flows all wanting the fluid engine to
        recompute rates at the next tick boundary) costs one event
        instead of N.  ``fn``/``args`` are taken from the *first*
        request, so every caller sharing a key must pass the same
        callback.
        """
        k = (time, key)
        if k in self._coalesced:
            self.wakeups_coalesced += 1
            return False
        self._coalesced[k] = True
        self._schedule(time, self._fire_coalesced, k, fn, args)
        return True

    def _fire_coalesced(self, k: tuple, fn: Callable, args: tuple) -> None:
        del self._coalesced[k]
        fn(*args)

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def acquire_event(self, name: str = "") -> Event:
        """An :class:`Event` from the freelist (or a fresh one).

        Pooled events are for hot single-waiter cycles: the owner waits,
        the peer triggers, the owner calls :meth:`recycle_event` after
        resuming.  Reuse counts land in
        ``event_stats()["events_pooled"]``.
        """
        pool = self._event_pool
        if pool:
            ev = pool.pop()
            ev.name = name
            ev._value = None
            ev._exc = None
            ev._done = False
            self.events_pooled += 1
            return ev
        return Event(self, name=name)

    def recycle_event(self, ev: Event) -> None:
        """Return a finished event to the freelist.

        Caller contract: the event has triggered, every waiter has
        already resumed, and no other process holds a reference — the
        object is reused (and reset) by the next :meth:`acquire_event`.
        """
        if ev._waiters:
            raise SimulationError(
                f"cannot recycle event {ev.name!r}: waiters still attached"
            )
        self._event_pool.append(ev)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new process; it takes its first step at the current time."""
        proc = Process(self, gen, name=name)
        self._schedule(self.now, proc._step)
        self.processes_spawned += 1
        return proc

    def _crash(self, exc: BaseException) -> None:
        if self._crashed is None:
            self._crashed = exc

    # -- execution ---------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the queue drains or ``until`` is reached.

        Returns the final simulation time.  An exception that escapes a
        process with no waiter aborts the run and is re-raised here.

        The loop pops, sets ``now``, calls and checks for a crash; the
        heap's peak depth is sampled before every pop.
        """
        heap = self._heap
        stop = float("inf") if until is None else until
        peak = self.max_heap_depth
        n_disp = 0
        wall0 = _time.perf_counter()
        self.run_slices += 1
        try:
            while heap:
                if len(heap) > peak:
                    peak = len(heap)
                if heap[0][0] > stop:
                    break
                time, _seq, fn, args = heappop(heap)
                self.now = time
                n_disp += 1
                fn(*args)
                if self._crashed is not None:
                    exc, self._crashed = self._crashed, None
                    raise exc
            # stopped short of a pending event, or drained before ``until``
            if until is not None and (heap or until > self.now):
                self.now = until
        finally:
            self.events_dispatched += n_disp
            self.max_heap_depth = max(peak, len(heap))
            self.run_wall_s += _time.perf_counter() - wall0
            # keep the mirrors truthful even when a crashed process re-raises
            if self._g_now is not None:
                totals = (self._seq, self.events_dispatched, self.processes_spawned,
                          self.processes_finished)
                for counter, total, last in zip(self._mirrors, totals, self._mirrored):
                    counter.value += total - last
                self._mirrored = totals
                self._g_now.set(self.now)
                g = self.obs.metrics.gauge("sim.max_heap_depth")
                if self.max_heap_depth > g.value:
                    g.set(float(self.max_heap_depth))
        return self.now

    # -- kernel introspection (flight-recorder pillar 2) --------------
    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled (the FIFO tie-break sequence)."""
        return self._seq

    def event_stats(self) -> dict:
        """Always-on kernel totals; available with or without a bundle."""
        return {
            "events_scheduled": self.events_scheduled,
            "events_dispatched": self.events_dispatched,
            "processes_spawned": self.processes_spawned,
            "processes_finished": self.processes_finished,
            "max_heap_depth": self.max_heap_depth,
            "pending_events": len(self._heap),
            "wakeups_coalesced": self.wakeups_coalesced,
            "events_pooled": self.events_pooled,
            "run_slices": self.run_slices,
            "run_wall_s": self.run_wall_s,
            "events_per_s": (
                self.events_dispatched / self.run_wall_s if self.run_wall_s > 0 else 0.0
            ),
            "now": self.now,
        }
