"""The one server fault contract (prose version: docs/faults.md)."""

from __future__ import annotations

from repro.sim import Simulator, Wait


class FaultableServer:
    """Crash/recover/slowdown state of every server a
    :class:`repro.faults.FaultSchedule` can target.

    * ``up`` / ``park`` — ``crash(park=False)`` is the connection-refused
      flavor: a request reaching the down server is *rejected* in zero
      sim time.  ``crash(park=True)`` is the silent-hang flavor: requests
      are *parked* until :meth:`recover` and then served FIFO, so clients
      notice only through their own timeouts.  Work already in service
      when the crash lands runs to completion.  Both calls are
      idempotent; a second ``crash`` only switches the flavor.
    * ``slowdown`` — multiplier on service time (fault kind
      ``disk_slowdown``); 1.0 is the exact float no-op.

    Each outage is one ``faults.server_down`` span and one step of the
    ``faults.servers_down`` gauge, and counts into ``counters`` as
    ``crashes`` / ``recoveries`` / ``slowdowns`` / ``requests_rejected``.
    Subclasses serve requests behind :meth:`_parked_until_up` and may
    override :meth:`_on_crash` / :meth:`_on_recover` (called once per
    real transition, after the state change) for side effects such as
    membership notices.
    """

    def __init__(self, sim: Simulator, index: int, name: str, counters) -> None:
        self.sim = sim
        self.index = index
        self.name = name
        self.counters = counters
        self.up = True
        self.park = False
        self.slowdown = 1.0
        self._down_since = 0.0
        self._downtime = 0.0
        self._up_event = None
        self._down_span = None
        self._g_down = None    # faults.servers_down, held from the first crash

    def crash(self, park: bool = False) -> None:
        """Take the server down.  Idempotent; ``park`` picks the flavor."""
        if not self.up:
            self.park = park
            return
        self.up = False
        self.park = park
        self._down_since = self.sim.now
        self._up_event = self.sim.event(f"{self.name}.up")
        self.counters.add("crashes")
        self._on_crash()
        obs = self.sim.obs
        if obs is not None:
            if self._g_down is None:
                self._g_down = obs.metrics.gauge("faults.servers_down")
            self._g_down.inc()
            self._down_span = obs.tracer.start(
                "faults.server_down", at=self.sim.now, server=self.index, park=park
            )

    def recover(self) -> None:
        """Bring the server back; parked requests drain FIFO."""
        if self.up:
            return
        self.up = True
        self._downtime += self.sim.now - self._down_since
        self.counters.add("recoveries")
        ev, self._up_event = self._up_event, None
        ev.succeed(self.sim.now)
        self._on_recover()
        if self._g_down is not None:
            self._g_down.dec()
        if self._down_span is not None:
            self._down_span.finish(at=self.sim.now)
            self._down_span = None

    def set_disk_slowdown(self, multiplier: float) -> None:
        """Multiply service time by ``multiplier`` from now on."""
        if multiplier <= 0:
            raise ValueError("disk slowdown multiplier must be positive")
        self.slowdown = multiplier
        self.counters.add("slowdowns")

    def downtime_s(self) -> float:
        """Cumulative seconds spent down (including a still-open outage)."""
        total = self._downtime
        if not self.up:
            total += self.sim.now - self._down_since
        return total

    def _on_crash(self) -> None:
        """Subclass hook: the server just went down."""

    def _on_recover(self) -> None:
        """Subclass hook: the server just came back."""

    def _parked_until_up(self):
        """Gate one request that found the server down (a sim process).

        Reject flavor: counts ``requests_rejected`` and returns False at
        once, for the caller to fail the request its own way.  Park
        flavor: waits out the outage (re-checking, since a recover/crash
        flip can land before this process resumes) and returns True.
        """
        if not self.park:
            self.counters.add("requests_rejected")
            return False
        while not self.up:
            yield Wait(self._up_event)
        return True
