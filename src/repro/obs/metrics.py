"""Always-on metric primitives: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` hands out metric instances keyed by
``(name, labels)``; callers cache the returned object and bump plain
attributes on the hot path, so recording costs one attribute store.
Everything is deterministic: no wall clock, no hashing order — the
snapshot is emitted in sorted key order, so two identical runs produce
byte-identical exports.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Optional, Sequence, Tuple

LabelItems = Tuple[Tuple[str, str], ...]

#: Log-spaced upper bounds for latency-shaped histograms (seconds).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0,
)

#: Upper bounds for request/transfer sizes (bytes).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    512.0, 4096.0, 65536.0, 1048576.0, 16777216.0, 268435456.0,
)


def _label_items(labels: dict) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def render_key(name: str, labels: LabelItems) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotone accumulator.  Bump via :meth:`inc` or ``.value`` directly."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({render_key(self.name, self.labels)}={self.value:g})"


class Gauge:
    """Instantaneous (non-monotone) value with set/inc/dec."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({render_key(self.name, self.labels)}={self.value:g})"


class Histogram:
    """Fixed-bucket histogram with running sum/min/max.

    ``edges`` are inclusive upper bounds; an observation ``x`` lands in
    the first bucket whose edge satisfies ``x <= edge``, values above the
    last edge land in the overflow bucket (``counts[-1]``), so
    ``len(counts) == len(edges) + 1``.
    """

    __slots__ = ("name", "labels", "edges", "counts", "sum", "count", "min", "max")

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        edges: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ValueError("histogram edges must be a non-empty ascending sequence")
        self.name = name
        self.labels = labels
        self.edges: Tuple[float, ...] = tuple(float(e) for e in edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, x: float) -> None:
        self.counts[bisect_left(self.edges, x)] += 1
        self.sum += x
        self.count += 1
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({render_key(self.name, self.labels)}, n={self.count})"


class HeldSeries(dict):
    """Series resolved once per key and then held: ``held[key]`` is a dict hit.

    ``registry.counter(name, **labels)`` sorts its labels and probes the
    registry on every call.  A site that records under a few keys wraps
    that lookup — ``HeldSeries(lambda key: registry.counter(...))`` —
    and pays it on a key's first use only; until then nothing is
    registered, so a key that never records leaves no series behind.
    """

    __slots__ = ("_resolve",)

    def __init__(self, resolve) -> None:
        super().__init__()
        self._resolve = resolve

    def __missing__(self, key):
        series = self[key] = self._resolve(key)
        return series


class MetricsRegistry:
    """Deterministic registry of named, labelled metrics.

    ``counter`` / ``gauge`` / ``histogram`` create on first use and return
    the cached instance afterwards; a name+labels pair is pinned to one
    metric type for the registry's lifetime.
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[Tuple[str, LabelItems], object] = {}

    def _get(self, cls, name: str, labels: dict, **kwargs):
        key = (name, _label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {render_key(*key)!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels
    ) -> Histogram:
        return self._get(
            Histogram, name, labels, edges=buckets or DEFAULT_LATENCY_BUCKETS
        )

    def value(self, name: str, default: float = 0.0, **labels) -> float:
        """Read one counter or gauge without registering it.

        A series that was never recorded reads as ``default`` and stays
        unregistered, so sensing a registry cannot grow it.
        """
        metric = self._metrics.get((name, _label_items(labels)))
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            raise TypeError(
                f"metric {render_key(name, metric.labels)!r} is a Histogram; "
                "it has no single value"
            )
        return metric.value  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[object]:
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def find(self, prefix: str = "") -> list:
        """All metrics whose name starts with ``prefix``, sorted by key."""
        return [m for m in self if m.name.startswith(prefix)]  # type: ignore[attr-defined]

    def snapshot(self) -> dict:
        """Sorted, JSON-ready view of every metric (deterministic)."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            full = render_key(*key)
            if isinstance(metric, Counter):
                counters[full] = metric.value
            elif isinstance(metric, Gauge):
                gauges[full] = metric.value
            else:
                histograms[full] = metric.as_dict()  # type: ignore[union-attr]
        return {"counters": counters, "gauges": gauges, "histograms": histograms}
