"""Unified observability: metrics registry, spans, per-job I/O reports.

The PDSI report's own explorations (Ninjat tracing, CView activity
surfaces, fsstats surveys) are observability tools; this package gives
the reproduction one cross-cutting instrumentation layer in the style of
Darshan's lightweight always-on I/O monitoring:

* :class:`MetricsRegistry` — named counters / gauges / fixed-bucket
  histograms, cheap enough to leave on and fully deterministic;
* :class:`Tracer` / :class:`Span` — interval tracing on simulated,
  logical, or wall time, with parent/child nesting, a JSONL exporter,
  and a bridge to :class:`repro.tracing.records.TraceLog`;
* :mod:`repro.obs.report` — Darshan-style per-job summaries
  (``python -m repro.obs.report`` pretty-prints or diffs them).

One :class:`Observability` bundle is *activated* for a job::

    from repro import obs
    with obs.use(obs.Observability(name="fig8")) as o:
        run_experiment()          # Simulator() etc. pick it up
    report = o.report()

Instrumented components look the bundle up once at construction time
(``obs.current()`` or ``Simulator.obs``); with nothing active every hook
is a single ``is None`` test, so uninstrumented runs stay fast.  What is
looked up at construction is the bundle *handle*, not its series: a
component registers a metric series the first time it has something to
record in it and holds the resolved series from then on
(:class:`HeldSeries`), so recording costs follow what happened, not
what exists, and reading (:meth:`MetricsRegistry.value`) registers
nothing.  ``docs/observability.md`` § "What the recorder costs" has the
numbers.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.clock import Clock, LogicalClock, MonotonicClock, SimClock
from repro.obs.context import (
    PathSegment,
    RequestContext,
    critical_path,
    critical_path_duration,
    request_spans,
    request_timeline,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    HeldSeries,
    MetricsRegistry,
)
from repro.obs.spans import Span, Tracer, spans_to_tracelog

__all__ = [
    "Clock",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "LogicalClock",
    "MetricsRegistry",
    "MonotonicClock",
    "Observability",
    "PathSegment",
    "RequestContext",
    "SimClock",
    "Span",
    "Tracer",
    "activate",
    "critical_path",
    "critical_path_duration",
    "current",
    "deactivate",
    "request_spans",
    "request_timeline",
    "spans_to_tracelog",
    "tracer",
    "use",
]


class Observability:
    """One job's instrumentation bundle: a registry plus a tracer.

    The default :class:`LogicalClock` keeps everything deterministic;
    pass ``clock=MonotonicClock()`` to time spans in wall seconds (the
    resulting report is then machine-dependent).
    """

    def __init__(self, name: str = "job", clock: Optional[Clock] = None) -> None:
        self.name = name
        self.clock: Clock = clock if clock is not None else LogicalClock()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self.clock)
        self._next_rid = 0
        metrics = self.metrics
        self._c_requests = HeldSeries(
            lambda tenant: metrics.counter("obs.requests", tenant=tenant)
        )

    def request_context(
        self, op: str = "", tenant: str = "default", origin: str = ""
    ) -> RequestContext:
        """Mint a new :class:`RequestContext` with a bundle-sequential id.

        Client edges call this once per end-to-end request (or accept a
        caller-supplied context and skip minting); ids restart at 1 for
        every bundle, so same-seed runs trace identically.
        """
        self._next_rid += 1
        self._c_requests[tenant].inc()
        return RequestContext(self._next_rid, tenant=tenant, op=op, origin=origin)

    def report(self, meta: Optional[dict] = None, top_spans: int = 10) -> dict:
        from repro.obs.report import build_report

        return build_report(self, meta=meta, top_spans=top_spans)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Observability({self.name!r}, {len(self.metrics)} metrics, "
            f"{len(self.tracer.spans)} spans)"
        )


_active: Optional[Observability] = None
_fallback_tracer: Optional[Tracer] = None


def current() -> Optional[Observability]:
    """The active bundle, or ``None`` when observability is off."""
    return _active


def activate(obs: Observability) -> Observability:
    """Install ``obs`` as the active bundle for subsequently built components."""
    global _active
    _active = obs
    return obs


def deactivate() -> None:
    global _active
    _active = None


@contextmanager
def use(obs: Optional[Observability] = None) -> Iterator[Observability]:
    """Activate a bundle for the duration of a ``with`` block."""
    global _active
    previous = _active
    _active = obs if obs is not None else Observability()
    try:
        yield _active
    finally:
        _active = previous


def tracer() -> Tracer:
    """The active tracer, else a shared non-retaining wall-clock tracer.

    Library code that only needs durations (IOR phase timing, search
    wall time) calls this: with observability on it records real spans
    on the job's deterministic clock; off, it times with
    ``perf_counter`` and keeps nothing.
    """
    if _active is not None:
        return _active.tracer
    global _fallback_tracer
    if _fallback_tracer is None:
        _fallback_tracer = Tracer(MonotonicClock(), retain=False)
    return _fallback_tracer
