"""Deterministic, seeded fault schedules driven as simulator processes.

A :class:`FaultSchedule` is an ordered list of timed :class:`FaultEvent`
records — storage-server crash/recover, disk slowdown (service-time
multiplier), fabric port or whole-leaf-switch blackout/restore, and
application interrupts —
built by hand or derived from a
:class:`repro.failure.traces.InterruptTrace`.  :meth:`FaultSchedule.inject`
spawns one simulator process that sleeps to each event time and applies
the event to a :class:`repro.pfs.SimPFS`; every injection is counted in
the active observability registry (``faults.injected{kind=...}``).

Failure diagnosis contract: a schedule that references a missing server,
applies a nonsense multiplier, or otherwise blows up *inside the
injector process* is re-raised as :class:`repro.sim.SimulationError`
tagged with the simulated timestamp — ``Simulator.run`` would otherwise
surface a bare ``IndexError`` with no hint of when the bad event fired.

Determinism: server assignment and any sampling use one
``numpy.random.Generator`` seeded at construction; two schedules built
with the same arguments are identical, and two runs of the same schedule
produce identical event sequences and identical ``faults.*`` metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.net.params import LeafSpineParams
from repro.sim import SimulationError, Simulator, Timeout

#: Event kinds the injector understands.
KINDS = (
    "server_crash",
    "server_recover",
    "disk_slowdown",
    "port_blackout",
    "port_restore",
    "leaf_blackout",
    "leaf_restore",
    "app_interrupt",
    "disk_loss",
)

@dataclass(frozen=True)
class FaultEvent:
    """One timed fault: ``kind`` applied to ``target`` at ``at_s``.

    ``value`` carries the kind-specific payload (disk slowdown
    multiplier); ``park`` selects the crash flavour — ``False`` rejects
    requests instantly ("connection refused"), ``True`` parks them until
    recovery (silent non-response; clients need timeouts to notice).

    ``disk_loss`` is the *durability* fault: the target server's stored
    shares are permanently wiped (``SimPFS.lose_disk``), as when a crash
    comes back with a replaced disk.  Unlike a crash — an availability
    fault whose data survives recovery — lost shares stay lost until a
    scrubber (:mod:`repro.scrub`) rebuilds them elsewhere.
    """

    at_s: float
    kind: str
    target: int = 0
    value: float = 0.0
    park: bool = False

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError(f"event time must be >= 0, got {self.at_s}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "disk_slowdown" and self.value <= 0:
            raise ValueError(f"disk_slowdown needs a positive multiplier, got {self.value}")


class FaultSchedule:
    """An immutable, time-sorted fault schedule."""

    def __init__(self, events: Iterable[FaultEvent], name: str = "faults") -> None:
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.at_s, KINDS.index(e.kind), e.target))
        )
        self.name = name
        self._validate()

    def _validate(self) -> None:
        # every blackout must be lifted later: a permanently dark port (or
        # leaf switch) makes windowed flows RTO-loop forever and the
        # simulation never drains
        for black, restore, what in (
            ("port_blackout", "port_restore", "port"),
            ("leaf_blackout", "leaf_restore", "leaf"),
        ):
            open_blackouts: dict[int, float] = {}
            for ev in self.events:
                if ev.kind == black:
                    open_blackouts[ev.target] = ev.at_s
                elif ev.kind == restore:
                    open_blackouts.pop(ev.target, None)
            if open_blackouts:
                target, at = next(iter(sorted(open_blackouts.items())))
                raise ValueError(
                    f"{black} of {what} {target} at t={at}s has no matching "
                    f"{restore}; a permanently dark {what} would wedge the run"
                )

    # -- construction helpers -----------------------------------------
    @classmethod
    def from_interrupt_trace(
        cls,
        trace,
        *,
        horizon_s: float,
        kind: str = "server_crash",
        n_servers: int = 0,
        downtime_s: Optional[float] = None,
        park: bool = False,
        seed: int = 0,
        name: Optional[str] = None,
        n_racks: int = 0,
        burst_servers: int = 2,
        blackout_s: Optional[float] = None,
        lose_disks: bool = False,
        racks: Optional[Sequence[int]] = None,
    ) -> "FaultSchedule":
        """Map an :class:`~repro.failure.traces.InterruptTrace` onto sim time.

        The trace's interrupt times (years since deployment) scale
        linearly onto ``[0, horizon_s)``.  With ``kind="server_crash"``
        each interrupt crashes a server drawn from the seeded RNG and —
        when ``downtime_s`` is given — recovers it ``downtime_s`` later;
        with ``kind="app_interrupt"`` the events carry no target and are
        consumed by checkpoint drivers (:mod:`repro.workloads.checkpoint`).

        With ``kind="domain_burst"`` each interrupt becomes a *correlated*
        failure inside one failure domain — the rack-level events the
        LANL data motivates (one PDU / one switch takes out a whole
        enclosure at once): a ``leaf_blackout`` of a rack (restored
        ``blackout_s`` later), plus a simultaneous crash burst of
        ``burst_servers`` distinct servers drawn from that rack (each
        recovering after ``downtime_s``, and — with ``lose_disks=True`` —
        each suffering a ``disk_loss``, so the burst destroys shares
        rather than merely hiding them).  The rack is drawn from the
        seeded RNG unless ``racks`` pins an explicit per-burst rack
        sequence (cycled); rack membership is
        :meth:`repro.net.params.LeafSpineParams.server_rack`.  Blackout/restore
        pairing is preserved by construction, so :meth:`_validate` holds.
        """
        if kind not in ("server_crash", "app_interrupt", "domain_burst"):
            raise ValueError(
                "trace-driven schedules support server_crash/app_interrupt/"
                f"domain_burst, not {kind!r}"
            )
        times = trace.times_in_seconds(horizon_s)
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []
        if kind == "app_interrupt":
            events.extend(FaultEvent(at_s=float(t), kind=kind) for t in times)
        elif kind == "domain_burst":
            if n_servers < 1 or n_racks < 1:
                raise ValueError("domain_burst schedules need n_servers and n_racks >= 1")
            if burst_servers < 1:
                raise ValueError("domain_burst schedules need burst_servers >= 1")
            black_s = blackout_s if blackout_s is not None else 2.0
            down_s = downtime_s if downtime_s is not None else black_s
            shape = LeafSpineParams(n_racks=n_racks)
            members_of = [
                [s for s in range(n_servers) if shape.server_rack(s, n_servers) == rack]
                for rack in range(n_racks)
            ]
            for i, t in enumerate(times):
                if racks is not None:
                    rack = int(racks[i % len(racks)])
                    if not 0 <= rack < n_racks:
                        raise ValueError(f"rack {rack} out of range for {n_racks} racks")
                else:
                    rack = int(rng.integers(0, n_racks))
                members = members_of[rack]
                count = min(burst_servers, len(members))
                picks = rng.choice(members, size=count, replace=False)
                events.append(FaultEvent(at_s=float(t), kind="leaf_blackout", target=rack))
                events.append(
                    FaultEvent(at_s=float(t) + black_s, kind="leaf_restore", target=rack)
                )
                for srv in sorted(int(s) for s in picks):
                    events.append(
                        FaultEvent(at_s=float(t), kind="server_crash", target=srv, park=park)
                    )
                    if lose_disks:
                        events.append(FaultEvent(at_s=float(t), kind="disk_loss", target=srv))
                    events.append(
                        FaultEvent(at_s=float(t) + down_s, kind="server_recover", target=srv)
                    )
        else:
            if n_servers < 1:
                raise ValueError("server_crash schedules need n_servers >= 1")
            targets = rng.integers(0, n_servers, size=len(times))
            for t, srv in zip(times, targets):
                events.append(
                    FaultEvent(at_s=float(t), kind="server_crash", target=int(srv), park=park)
                )
                if downtime_s is not None:
                    events.append(
                        FaultEvent(
                            at_s=float(t) + downtime_s, kind="server_recover", target=int(srv)
                        )
                    )
        return cls(events, name=name or f"trace:{trace.system}")

    # -- queries --------------------------------------------------------
    def app_interrupt_times(self) -> list[float]:
        """Times of the application-level interrupts, sorted."""
        return [ev.at_s for ev in self.events if ev.kind == "app_interrupt"]

    def until(self, horizon_s: float) -> "FaultSchedule":
        """The schedule restricted to events strictly before ``horizon_s``.

        A blackout whose matching restore falls at or past the horizon
        would strand a permanently dark port/leaf and fail
        :meth:`_validate`; instead the truncation synthesizes the missing
        restore *at* the horizon, so any prefix of a valid schedule is
        itself a valid schedule.
        """
        kept = [ev for ev in self.events if ev.at_s < horizon_s]
        for black, restore in (
            ("port_blackout", "port_restore"),
            ("leaf_blackout", "leaf_restore"),
        ):
            open_targets: dict[int, float] = {}
            for ev in kept:
                if ev.kind == black:
                    open_targets[ev.target] = ev.at_s
                elif ev.kind == restore:
                    open_targets.pop(ev.target, None)
            kept.extend(
                FaultEvent(at_s=horizon_s, kind=restore, target=target)
                for target in sorted(open_targets)
            )
        return FaultSchedule(kept, name=self.name)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- injection ------------------------------------------------------
    def inject(self, sim: Simulator, pfs) -> object:
        """Spawn the injector process applying this schedule to ``pfs``.

        Returns the spawned :class:`repro.sim.Process`.  Any exception
        raised while applying an event is wrapped in
        :class:`~repro.sim.SimulationError` carrying the simulated
        timestamp and the offending event, so a bad schedule is
        diagnosable instead of surfacing as a bare ``IndexError`` from
        ``Simulator.run``.
        """
        obs = getattr(sim, "obs", None)

        def _injector():
            for ev in self.events:
                if ev.at_s > sim.now:
                    yield Timeout(ev.at_s - sim.now)
                try:
                    self._apply(ev, pfs)
                except SimulationError:
                    raise
                except Exception as exc:
                    raise SimulationError(
                        f"fault injection failed at t={sim.now:.6f}s "
                        f"applying {ev!r}: {exc}"
                    ) from exc
                if obs is not None:
                    obs.metrics.counter("faults.injected", kind=ev.kind).inc()

        return sim.spawn(_injector(), name=f"faults:{self.name}")

    @staticmethod
    def _apply(ev: FaultEvent, pfs) -> None:
        """Apply one event to a target system (``SimPFS``, ``GigaService``).

        The whole contract: ``pfs.servers[i]`` is a
        :class:`repro.faults.server.FaultableServer` (the single
        implementation of ``crash(park=)`` / ``recover()`` /
        ``set_disk_slowdown()``), ``pfs.topology`` is a
        :class:`repro.net.fabric.Topology`, and a system with durable
        state offers ``lose_disk(server)``.
        """
        if ev.kind == "server_crash":
            pfs.servers[ev.target].crash(park=ev.park)
        elif ev.kind == "server_recover":
            pfs.servers[ev.target].recover()
        elif ev.kind == "disk_slowdown":
            pfs.servers[ev.target].set_disk_slowdown(ev.value)
        elif ev.kind == "port_blackout":
            pfs.topology.set_port_down(ev.target, True)
        elif ev.kind == "port_restore":
            pfs.topology.set_port_down(ev.target, False)
        elif ev.kind == "leaf_blackout":
            pfs.topology.set_leaf_down(ev.target, True)
        elif ev.kind == "leaf_restore":
            pfs.topology.set_leaf_down(ev.target, False)
        elif ev.kind == "disk_loss":
            pfs.lose_disk(ev.target)
        # app_interrupt: consumed by workload drivers, nothing to apply here
