"""Flight recorder: request contexts, critical-path analysis, timelines.

Pillar 1 of the observability tentpole (see docs/observability.md).  A
:class:`RequestContext` is minted at a client edge — ``SimPFS.op_read``
/ ``op_write``, a collective write, a GIGA+ create, a DFS job, a pNFS
write — and threaded through every layer the request touches: span
attributes (``rid`` / ``tenant``), fabric drop/RTO attribution, retry
and reconstruction bookkeeping.  Afterwards the trace can answer *which
request, which tenant, which phase* for every span and damage counter:

* :func:`request_spans` — all spans belonging to one request (a span
  inherits its request from the nearest ancestor carrying ``rid``);
* :func:`critical_path` — the longest dependent chain through a span
  tree, as contiguous :class:`PathSegment`\\ s that tile the root span
  exactly (their durations sum to the root's duration);
* :func:`request_timeline` — one request's spans bridged into a
  :class:`repro.tracing.records.TraceLog`, so the existing CView
  binning (:func:`repro.tracing.cview.cview_bins`) can render a
  per-request activity surface.

Everything here is analysis-time: the only hot-path cost of a context
is integer bumps on its damage counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from repro.obs.spans import Span, Tracer, spans_to_tracelog

#: Tenant used when an edge mints a context without an explicit tenant.
DEFAULT_TENANT = "default"


@dataclass
class RequestContext:
    """One end-to-end request as seen by the flight recorder.

    ``request_id`` is sequential per :class:`repro.obs.Observability`
    bundle (deterministic given a deterministic schedule).  The damage
    counters are always-on plain integers bumped by the fabric and the
    resilient data path, so a request can report its own drops, RTOs,
    retries, and reconstructions without a registry lookup.
    """

    request_id: int
    tenant: str = DEFAULT_TENANT
    op: str = ""          # op kind at the client edge ("read", "write", ...)
    origin: str = ""      # subsystem that minted it ("pfs", "collective", ...)
    # -- damage attribution (bumped in-line by fabric / fault paths) --
    drops_pkts: int = 0
    rtos: int = 0
    retries: int = 0
    reconstructions: int = 0

    def span_attrs(self) -> dict:
        """The attrs an edge span carries so traces are request-addressable."""
        return {"rid": self.request_id, "tenant": self.tenant}


@dataclass(frozen=True)
class PathSegment:
    """One contiguous interval of the critical path, owned by one span."""

    span_id: int
    name: str
    t0: float
    t1: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def _finished(spans: Iterable[Span]) -> list[Span]:
    return [s for s in spans if s.finished]


def critical_path(
    trace: Union[Tracer, Iterable[Span]], root: Optional[Span] = None
) -> list[PathSegment]:
    """The longest dependent chain through a span tree.

    Backward sweep (the classic trace-analysis algorithm): starting at
    the root's end, repeatedly descend into the *last-finishing child*
    before the cursor; time not covered by any child is attributed to
    the span itself.  The returned segments are chronological, disjoint,
    and tile ``[root.start, root.end]`` exactly — so
    ``sum(seg.duration)`` equals the root span's duration, and each
    segment names the span that kept the request alive during it.

    ``trace`` is a :class:`Tracer` or any iterable of spans; unfinished
    spans are ignored.  ``root`` defaults to the longest finished span
    that has no (present) parent.  Returns ``[]`` on an empty trace.
    """
    spans = _finished(trace.spans if isinstance(trace, Tracer) else list(trace))
    if not spans:
        return []
    by_id = {s.span_id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent_id is not None and s.parent_id in by_id:
            children.setdefault(s.parent_id, []).append(s)
    if root is None:
        roots = [s for s in spans if s.parent_id is None or s.parent_id not in by_id]
        root = max(roots, key=lambda s: (s.duration, -s.span_id))
    segments: list[PathSegment] = []

    def descend(span: Span, t_hi: float, floor: float) -> None:
        # attribute [max(span.start, floor), t_hi]; children outside the
        # window are clamped so the tiling stays exact even on odd trees
        lo = max(span.start, floor)
        t = t_hi
        while t > lo:
            kids = [c for c in children.get(span.span_id, ()) if lo < c.end <= t]
            if not kids:
                segments.append(PathSegment(span.span_id, span.name, lo, t))
                return
            c = max(kids, key=lambda s: (s.end, s.span_id))
            if t > c.end:
                segments.append(PathSegment(span.span_id, span.name, c.end, t))
            descend(c, c.end, lo)
            t = max(lo, c.start)

    descend(root, root.end, root.start)
    segments.reverse()  # emitted latest-first; return chronological
    return segments


def critical_path_duration(segments: Sequence[PathSegment]) -> float:
    return sum(seg.duration for seg in segments)


def request_spans(trace: Union[Tracer, Iterable[Span]], request_id: int) -> list[Span]:
    """All spans belonging to one request, in span-id order.

    A span belongs to request ``rid`` if it carries ``attrs["rid"] ==
    rid`` or its nearest ``rid``-carrying ancestor does — edges stamp
    the root span only, children inherit through the parent chain.
    """
    spans = list(trace.spans if isinstance(trace, Tracer) else trace)
    by_id = {s.span_id: s for s in spans}
    memo: dict[int, Optional[int]] = {}

    def rid_of(s: Span) -> Optional[int]:
        cached = memo.get(s.span_id, _MISSING)
        if cached is not _MISSING:
            return cached
        rid = s.attrs.get("rid")
        if rid is None and s.parent_id is not None:
            parent = by_id.get(s.parent_id)
            rid = rid_of(parent) if parent is not None else None
        memo[s.span_id] = rid
        return rid

    return [s for s in spans if rid_of(s) == request_id]


_MISSING = object()


def request_timeline(
    trace: Union[Tracer, Iterable[Span]], request_id: int, rank_key: str = "client"
):
    """One request's finished spans as a :class:`~repro.tracing.records.TraceLog`.

    The bridge reuses the span→trace-event mapping of
    :meth:`repro.obs.spans.Tracer.to_tracelog`; ``rank_key`` defaults to
    ``"client"`` because PFS edge spans label the issuing client.  Feed
    the result to :func:`repro.tracing.cview.cview_bins` for a CView
    activity surface of just this request.
    """
    return spans_to_tracelog(_finished(request_spans(trace, request_id)), rank_key)
