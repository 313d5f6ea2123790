"""What one benchmark child process does: set up, then measure or trace.

``run.py`` starts every workload in a fresh interpreter so that set-up
time and peak memory belong to that workload alone.  A child has one of
three roles:

``setup``    set-up only: imports, input generation, temp dir, one
             discarded warm-up run.  The parent times it from before the
             interpreter starts (CLOCK_MONOTONIC is shared).
``measure``  set-up, then timed runs for ``seconds``, alternating
             recorder-off (``repro.obs.current() is None``) and
             recorder-on (inside ``obs.use(Observability())``) so drift
             in the machine hits both kinds alike.
``trace``    set-up, then off/on runs whose phases are kept as benchmark
             spans, then this workload's isolated probes.

The repo's ``src`` is imported here, never by the parent, so imports are
paid inside the timed set-up.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import os
import resource
import statistics
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
#: real_io's product metrics.  End-to-end by meaning and measured with
#: the recorder off, but they exist on one workload only, so the driver
#: contract (every end-to-end metric on every workload) files them
#: under per_layer.
PRODUCT_METRICS = ("write_MBps", "open_s", "read_MBps")
DEFAULT_SEED = 0
MIN_RUNS = 2


class Span:
    """One benchmark span; also the stopwatch the workloads read."""

    __slots__ = ("rec", "row")

    def __init__(self, rec: "Recorder", name: str) -> None:
        self.rec = rec
        self.row = {"id": next(rec.ids), "name": name, "start": 0.0, "end": 0.0,
                    "parent": None, "workload": rec.workload}

    def __enter__(self) -> "Span":
        stack = self.rec.stack
        self.row["parent"] = stack[-1] if stack else None
        stack.append(self.row["id"])
        self.row["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.row["end"] = time.perf_counter()
        self.rec.stack.pop()
        if self.rec.keep:
            self.rec.spans.append(self.row)

    @property
    def wall_s(self) -> float:
        return self.row["end"] - self.row["start"]


class Recorder:
    """Benchmark spans in memory; ``keep=False`` times without retaining."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.keep = False
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.ids = itertools.count(1)

    def span(self, name: str) -> Span:
        return Span(self, name)


def drift(ref: dict, stats: dict, pinned: bool) -> float:
    """Largest relative deviation of ``stats`` from ``ref``.

    ``pinned`` means ``ref`` came from ``expected.json``: a statistic it
    does not name is unpinned, which reads as full drift.  Otherwise the
    first run to report a statistic becomes its reference.
    """
    worst = 0.0
    for key, value in stats.items():
        if key not in ref:
            if pinned:
                worst = 1.0
            else:
                ref[key] = value
        elif value != ref[key]:
            worst = max(worst, abs(value - ref[key]) / abs(ref[key]) if ref[key] else 1.0)
    return worst


def merged(rows: list[dict]) -> dict:
    """One value per key: the count all rows agree on, else the median."""
    out = {}
    for key in {k for row in rows for k in row}:
        values = [row[key] for row in rows if key in row]
        same = all(v == values[0] for v in values)
        out[key] = values[0] if same else statistics.median(values)
    return out


class Child:
    def __init__(self, name: str, seed: int, scale: int, corrupt: bool, out_dir: Path) -> None:
        self.loadavg = os.getloadavg()[0]
        # deferred: the parent's stopwatch for set-up is already running
        from repro import obs
        from workloads import WORKLOADS

        self.obs = obs
        self.rec = Recorder(name)
        self.scale = scale
        self.workload = WORKLOADS[name](seed, scale, out_dir / "tmp")
        if corrupt:
            self.workload.corrupt = True
        pinned = seed == DEFAULT_SEED and scale == 1
        expected = json.loads((PERF / "expected.json").read_text())
        self.ref = dict(expected.get(name, {})) if pinned else {}
        self.pinned = pinned and bool(self.ref)
        self.attempted = self.failed = 0
        self.drift = 0.0
        self.one_run(recorded=False)    # the discarded warm-up run
        self.ready = time.monotonic()

    def one_run(self, recorded: bool) -> tuple[float, dict]:
        obs = self.obs
        gc.collect()
        scope = obs.use(obs.Observability(name="perf")) if recorded else contextlib.nullcontext()
        kind = "on" if recorded else "off"
        with scope:
            if (obs.current() is not None) != recorded:
                raise RuntimeError("a flight-recorder bundle leaked into a recorder-off run")
            with self.rec.span(f"{self.workload.name}.run.{kind}") as sp:
                result = self.workload.run(self.rec)
        self.attempted += result["ops"]
        self.failed += result["failed"]
        self.drift = max(self.drift, result["closed_form_dev"],
                         drift(self.ref, result["stats"], self.pinned))
        return sp.wall_s, result

    def verdict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "sim_drift": self.drift,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ready": self.ready,
        }

    def alternate(self, seconds: float, traced: bool) -> dict:
        """Timed off/on runs, sharing ``seconds`` equally between the two kinds.

        The next run is of the kind that has had less host time so far (a
        recorder-on run can cost several recorder-off ones, and both
        medians need the same window against the machine's noise), unless
        it would overrun; each kind runs at least ``MIN_RUNS`` times.
        """
        runs = {False: [], True: []}
        spent = {False: 0.0, True: 0.0}
        deadline = time.perf_counter() + seconds
        while True:
            now = time.perf_counter()
            fits = [
                recorded for recorded in sorted(runs, key=spent.get)
                if len(runs[recorded]) < MIN_RUNS
                or now + spent[recorded] / len(runs[recorded]) <= deadline
            ]
            if not fits:
                break
            recorded = fits[0]
            # a traced child keeps the spans of every other run of a kind, so
            # kept and dropped on-runs price the benchmark's own tracing
            self.rec.keep = traced and len(runs[recorded]) % 2 == 0
            wall, result = self.one_run(recorded)
            spent[recorded] += wall
            runs[recorded].append(
                {"wall_s": wall, "ops": result["ops"], "kept": self.rec.keep,
                 "layers": result["layers"], "stats": result["stats"]}
            )
        self.rec.keep = False
        return runs

    def measure(self, seconds: float) -> dict:
        runs = self.alternate(seconds, traced=False)
        return {
            **self.verdict(),
            "off": [r["ops"] / r["wall_s"] for r in runs[False]],
            "on": [r["ops"] / r["wall_s"] for r in runs[True]],
            "product": {k: [r["layers"][k] for r in runs[False]]
                        for k in PRODUCT_METRICS if k in runs[False][0]["layers"]},
        }

    def trace(self, seconds: float) -> dict:
        from probes import PROBES

        # probes get the rest of the budget; they are fixed work
        runs = self.alternate(seconds * 0.7, traced=True)
        layers = merged([r["layers"] for r in runs[True]])
        off = merged([r["layers"] for r in runs[False]])
        layers.update({k: off[k] for k in PRODUCT_METRICS if k in off})
        self.rec.keep = True
        for probe in PROBES[self.workload.name]:
            layers.update(probe(self.rec, self.scale, self.workload))

        def median_wall(rows):
            return statistics.median(r["wall_s"] for r in rows)

        kept = [r for r in runs[True] if r["kept"]]
        dropped = [r for r in runs[True] if not r["kept"]]
        verdict = self.verdict()
        layers.update({
            "obs.overhead_ratio": median_wall(runs[True]) / median_wall(runs[False]),
            "bench.trace_overhead_ratio": median_wall(kept) / median_wall(dropped),
            "bench.loadavg_start": self.loadavg,
            "sim_drift": verdict["sim_drift"],
            "failed_ops_share": verdict["failed"] / verdict["attempted"],
        })
        return {**verdict, "layers": layers, "spans": self.rec.spans,
                "stats": runs[True][-1]["stats"]}


def child_main(role: str, name: str, seed: int, scale: int, seconds: float,
               corrupt: bool, out_dir: Path) -> dict:
    child = Child(name, seed, scale, corrupt, out_dir)
    if role == "setup":
        return child.verdict()
    return child.measure(seconds) if role == "measure" else child.trace(seconds)
