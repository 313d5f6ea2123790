#!/usr/bin/env python3
"""The repo's benchmark: four workloads, end-to-end and per-layer metrics.

Three ways in (perf/README.md has the tables)::

    python3 perf/run.py [--seed N] [-o out.json] [--quick] [--workload W]
        every workload, untraced then traced; prints every metric by
        name with its unit, writes out.json and .perf_out/perf_trace.jsonl,
        exits non-zero if any output was wrong
    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
        one workload the way the driver runs it; the last stdout line is
        {"correct", "attempted", "failed", "metrics"}
    python3 perf/run.py --compare A.json B.json
        one row per workload x end-to-end metric against its bound

Metric names, units, directions and bounds live in ``BENCHMARK.json``
and nowhere else.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import DEFAULT_SEED, PRODUCT_METRICS, child_main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perf_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Rows of the end-to-end table that BENCHMARK.json cannot bound: its
#: end_to_end metrics must exist on every workload and never read 0.
#: name -> bound; unit and direction are the per_layer entry's.
EXTRA_END_TO_END = {
    **{name: 0.25 for name in PRODUCT_METRICS},
    "sim_drift": 0.0,
    "failed_ops_share": 0.0,
}
#: Per-layer metrics in these units are exact counts: same seed, same value.
EXACT_UNITS = ("count", "B", "B/MiB")
SETUPS = 3
QUICK_SCALE = 16


# -- children -------------------------------------------------------------
def spawn(role: str, name: str, seed: int, scale: int, seconds: float, corrupt: bool) -> dict:
    """Run one child to completion; its last stdout line is its result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role, "--workload", name,
           "--seed", str(seed), "--scale", str(scale), "--seconds", str(seconds)]
    if corrupt:
        cmd.append("--inject-corruption")
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"perf: {role} child of {name} exited {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def summary(values: list[float], unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "unit": unit}


def run_untraced(name: str, seed: int, scale: int, seconds: float, corrupt: bool) -> dict:
    """Tracing off: every end-to-end metric, with quartiles and counts."""
    setups = [spawn("setup", name, seed, scale, 0, corrupt) for _ in range(SETUPS - 1)]
    m = spawn("measure", name, seed, scale, seconds, corrupt)
    samples = {
        "setup_s": [c["setup_s"] for c in setups + [m]],
        "ops_per_s": m["off"],
        "recorded_ops_per_s": m["on"],
        "peak_rss_mb": [m["rss_mb"]],
        **m["product"],
        "sim_drift": [m["sim_drift"]],
        "failed_ops_share": [m["failed"] / m["attempted"]],
    }
    units = {**END_TO_END, **PER_LAYER}
    return {
        "attempted": m["attempted"],
        "failed": m["failed"],
        "correct": m["failed"] == 0 and m["sim_drift"] == 0,
        "end_to_end": {k: summary(v, units[k]["unit"]) for k, v in samples.items()},
    }


def run_traced(name: str, seed: int, scale: int, seconds: float, corrupt: bool) -> dict:
    """Tracing on: every per-layer metric; 0 where the layer did not run."""
    t = spawn("trace", name, seed, scale, seconds, corrupt)
    unknown = sorted(set(t["layers"]) - set(PER_LAYER))
    if unknown:
        raise SystemExit(f"perf: {name} measured metrics BENCHMARK.json does not list: {unknown}")
    return {
        "attempted": t["attempted"],
        "failed": t["failed"],
        "correct": t["failed"] == 0 and t["sim_drift"] == 0,
        "per_layer": {k: {"value": t["layers"].get(k, 0), "unit": spec["unit"]}
                      for k, spec in PER_LAYER.items()},
        "spans": t["spans"],
        "stats": t["stats"],
    }


def write_trace(spans: list[dict]) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "perf_trace.jsonl", "w") as fp:
        for span in spans:
            fp.write(json.dumps(span, sort_keys=True) + "\n")


# -- the driver's single-workload run -------------------------------------
def driver_run(name: str, seed: int, seconds: float, trace: int) -> int:
    if trace:
        r = run_traced(name, seed, 1, seconds, False)
        write_trace(r["spans"])
        metrics = r["per_layer"]
    else:
        r = run_untraced(name, seed, 1, seconds, False)
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in r["end_to_end"].items() if k in END_TO_END}
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0


# -- the full run ---------------------------------------------------------
def filesystem_of(path: Path) -> str:
    best = ("", "unknown")
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return best[1]
    for line in mounts:
        _dev, mount, fstype = line.split()[:3]
        if str(path).startswith(mount) and len(mount) > len(best[0]):
            best = (mount, fstype)
    return best[1]


def environment() -> dict:
    git = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "tmp_filesystem": filesystem_of(OUT_DIR),
        "git_rev": git.stdout.strip() if git.returncode == 0 else "unknown",
        "loadavg": os.getloadavg()[0],
    }


def full_run(args) -> int:
    scale = QUICK_SCALE if args.quick else 1
    seconds = args.seconds if args.seconds is not None else (0 if args.quick else SPEC["run_seconds"])
    doc = {"schema": "perf-v1", "quick": args.quick, "seed": args.seed, "scale": scale,
           "seconds": seconds, "env": environment(), "workloads": {}}
    spans, stats = [], {}
    for name in args.workload_list or WORKLOADS:
        untraced = run_untraced(name, args.seed, scale, seconds, args.inject_corruption)
        traced = run_traced(name, args.seed, scale, seconds, args.inject_corruption)
        spans += traced.pop("spans")
        stats[name] = traced.pop("stats")
        row = doc["workloads"][name] = {
            "correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "end_to_end": untraced["end_to_end"],
            "per_layer": traced["per_layer"],
        }
        print(f"== {name}: {row['attempted']} ops attempted, {row['failed']} failed, "
              f"{'correct' if row['correct'] else 'WRONG OUTPUT'}")
        for metric, s in row["end_to_end"].items():
            print(f"  {metric:<34} {s['value']:>14.6g} {s['unit']:<6} "
                  f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]")
        for metric, s in row["per_layer"].items():
            if metric in EXTRA_END_TO_END:
                continue    # already in the end-to-end rows above
            print(f"  {metric:<34} {s['value']:>14.6g} {s['unit']}")
    write_trace(spans)
    if args.write_expected:
        (ROOT / "perf" / "expected.json").write_text(
            json.dumps(stats, sort_keys=True, indent=1) + "\n")
    if args.output:
        Path(args.output).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return 0 if all(w["correct"] for w in doc["workloads"].values()) else 1


# -- compare --------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if a["quick"] or b["quick"]:
        raise SystemExit("perf: --compare refuses --quick outputs; they measure nothing")
    rules = {**{k: (m["better"], m["bound"]) for k, m in END_TO_END.items()},
             **{k: (PER_LAYER[k]["better"], bound) for k, bound in EXTRA_END_TO_END.items()}}
    bad = 0
    print(f"{'workload':<12} {'metric':<20} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B vs A':>8} {'bound':>6}  verdict")
    for name in (w for w in WORKLOADS if w in a["workloads"] and w in b["workloads"]):
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, (better, bound) in rules.items():
            if metric not in wa["end_to_end"] or metric not in wb["end_to_end"]:
                continue
            sa, sb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            if bound == 0:
                same = sb["value"] == sa["value"]
                rel = 0.0 if same else float("inf")
                verdict = "identical" if same else "DIFFERS"
            else:
                rel = (sb["value"] - sa["value"]) / sa["value"]
                worse = rel if better == "lower" else -rel
                spread = max((s["q3"] - s["q1"]) / s["value"] for s in (sa, sb))
                if worse > bound:
                    verdict = "REGRESSED"
                elif spread > bound:
                    verdict = "unresolved (spread %.1f%% > bound)" % (100 * spread)
                else:
                    verdict = "within bound"
            bad += verdict in ("DIFFERS", "REGRESSED")
            cells = ["%.6g [%.6g, %.6g]" % (s["value"], s["q1"], s["q3"]) for s in (sa, sb)]
            print(f"{name:<12} {metric:<20} {cells[0]:>34} {cells[1]:>34} "
                  f"{100 * rel:>+7.1f}% {100 * bound:>5.0f}%  {verdict}")
        for metric, spec in PER_LAYER.items():
            va, vb = (w["per_layer"][metric]["value"] for w in (wa, wb))
            if spec["unit"] in EXACT_UNITS and va != vb:
                bad += 1
                print(f"{name:<12} {metric:<20} exact count differs: {va} vs {vb}")
    print("all rows within bounds, all exact counts identical" if not bad
          else f"{bad} row(s) outside their bound or differing")
    return 1 if bad else 0


# -- entry ----------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", dest="workload_list", choices=WORKLOADS,
                    help="restrict to this workload (repeatable in a full run)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, help="how long one child measures")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="driver mode: one workload, end-to-end (0) or per-layer (1) metrics")
    ap.add_argument("-o", "--output", help="full run: write the JSON document here")
    ap.add_argument("--quick", action="store_true",
                    help="sizes / 16 and minimum repeats; a smoke run, refused by --compare")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--write-expected", action="store_true",
                    help="full run: pin this run's simulated statistics in perf/expected.json")
    ap.add_argument("--inject-corruption", action="store_true",
                    help="test hook: real_io flips one stored byte before read-back")
    ap.add_argument("--role", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    ap.add_argument("--scale", type=int, default=1, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro").is_dir():
        print(f"perf: {SRC}/repro is missing; the benchmark runs the repo's own source",
              file=sys.stderr)
        return 2
    if args.role:
        sys.path.insert(0, str(SRC))
        print(json.dumps(child_main(args.role, args.workload_list[0], args.seed, args.scale,
                                    args.seconds, args.inject_corruption, OUT_DIR)))
        return 0
    if args.trace is not None:
        if args.workload_list is None or len(args.workload_list) != 1 or args.seconds is None:
            ap.error("--trace needs exactly one --workload and --seconds")
        return driver_run(args.workload_list[0], args.seed, args.seconds, args.trace)
    return full_run(args)


if __name__ == "__main__":
    raise SystemExit(main())
