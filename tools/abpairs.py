#!/usr/bin/env python
"""Alternating parent/change runs of the benchmark workloads.

Runs ``python3 perf/run.py --workload W --seed N --seconds S --trace 0`` in
two checkouts, ``--pairs`` times each, alternating which side goes first,
and prints for every end-to-end metric of ``BENCHMARK.json``: both medians
with quartiles, the pairs the change won (a tie counts for neither side),
whether the change's median is within the metric's regression bound, and
whether the rule for claiming a gain holds — the change wins at least nine
tenths of the pairs and the medians differ by more than the distance
between the parent's own quartiles.  Every run made is printed.

Usage: ``python tools/abpairs.py PARENT_DIR CHANGE_DIR --workload real_io
[--pairs 10] [--seconds 20] [--seed 0]``.  ``--workload`` also takes a comma
list or ``all``: the workloads run one after the other, one table each.  The
exit status reports only whether every run of every workload completed with
correct output; no timing is gated.

``--layers`` runs one ``--trace 1`` child per side instead and prints the
per-layer metrics side by side: an exact count (unit ``count``, ``B`` or
``B/MiB``, the rule of ``perf/run.py --compare``) reads ``identical`` or
``DIFFERS``, any other metric shows change/parent.  A differing count also
fails the exit status.  Layers neither side ran are left out, but
``sim_drift`` and ``failed_ops_share`` always print: they must read 0, so
they are compared exactly like a count and their 0 is shown, not implied.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
MIN_PAIRS = 10      # fewer pairs than this support no claim either way
EXACT_UNITS = ("count", "B", "B/MiB")   # same seed, same value (perf/run.py)
#: The bound-0 rows of perf/run.py's EXTRA_END_TO_END: 0 on every workload.
ZERO_ROWS = ("sim_drift", "failed_ops_share")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One driver-mode run in ``checkout``; its metric values.

    ``trace`` 0 gives the end-to-end metrics, 1 the per-layer ones.
    """
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}\n{proc.stderr.strip()}")
    doc = json.loads(proc.stdout)
    if not doc["correct"]:
        raise RuntimeError(f"{checkout}: wrong output ({doc['failed']} failed operations)")
    return {name: m["value"] for name, m in doc["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def num(v: float) -> str:
    return f"{v:,.0f}" if abs(v) >= 1000 else f"{v:.3f}"


def verdict(metric: dict, parent: list[float], change: list[float]) -> str:
    """One table row: medians, quartiles, pairs won, bound and gain rule."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    won = sum(sign * c > sign * p for p, c in zip(parent, change))
    lost = sum(sign * c < sign * p for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    gap = sign * (cm - pm)
    within = gap >= -metric["bound"] * abs(pm)
    need = 0.9 * len(parent)
    if len(parent) < MIN_PAIRS:
        rule = f"no claim (under {MIN_PAIRS} pairs)"
    elif won >= need and gap > p3 - p1:
        rule = "gain"
    elif lost >= need and -gap > p3 - p1:
        rule = "worse"
    else:
        rule = "no claim"
    return (f"{metric['name']:<19} {metric['better']:<6} "
            f"{num(pm):>9} [{num(p1)}, {num(p3)}]  ->  {num(cm):>9} [{num(c1)}, {num(c3)}]  "
            f"x{cm / pm if pm else float('nan'):.3f}  won {won}/{len(parent)}  "
            f"bound {metric['bound']:.0%} {'held' if within else 'BROKEN'}  {rule}")


def workload_list(arg: str) -> list[str]:
    """``--workload``: one name, a comma list, or ``all``."""
    known = [w["name"] for w in BENCHMARK["workloads"]]
    names = known if arg == "all" else arg.split(",")
    unknown = [n for n in names if n not in known]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown workload {', '.join(unknown)!r}; choose from {', '.join(known)} or all"
        )
    return names


def run_pairs(workload: str, sides: dict, pairs: int, seconds: float, seed: int) -> bool:
    """All pairs of one workload and its table; False if a run went wrong."""
    metrics = BENCHMARK["end_to_end"]
    runs = {side: [] for side in sides}
    print(f"{workload} seed {seed}: {pairs} pairs x {seconds:g} s")
    print("pair side    " + "  ".join(f"{m['name']:>18}" for m in metrics))
    for pair in range(pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            try:
                got = run_once(sides[side], workload, seed, seconds)
            except (RuntimeError, ValueError, KeyError) as exc:
                print(f"{workload} pair {pair} {side}: {exc}", file=sys.stderr)
                return False
            runs[side].append(got)
            print(f"{pair:>4} {side:<7} " + "  ".join(f"{got[m['name']]:>18,.4f}" for m in metrics),
                  flush=True)
    print("\nmetric              better  parent median [q1, q3]  ->  change median [q1, q3]")
    for m in metrics:
        print(verdict(m, *([r[m["name"]] for r in runs[side]] for side in ("parent", "change"))))
    return True


def run_layers(workload: str, sides: dict, seconds: float, seed: int) -> bool:
    """One traced run per side and the per-layer table; False if a run went
    wrong or an exact count differs."""
    got = {}
    for side in ("parent", "change"):
        try:
            got[side] = run_once(sides[side], workload, seed, seconds, trace=1)
        except (RuntimeError, ValueError, KeyError) as exc:
            print(f"{workload} {side}: {exc}", file=sys.stderr)
            return False
    print(f"{workload} seed {seed}: per-layer metrics, one --trace 1 run x {seconds:g} s per side")
    print(f"{'metric':<34} {'unit':<6} {'parent':>14} {'change':>14}  change/parent")
    differs = 0
    for m in BENCHMARK["per_layer"]:
        p, c = (got[side].get(m["name"], 0) for side in ("parent", "change"))
        zero_row = m["name"] in ZERO_ROWS
        if p == 0 and c == 0 and not zero_row:
            continue
        if m["unit"] in EXACT_UNITS or zero_row:
            note = "identical" if p == c else "DIFFERS"
            differs += p != c
        else:
            note = f"x{c / p:.3f}" if p else "n/a"
        p, c = (f"{v:,}" if isinstance(v, int) else num(v) for v in (p, c))
        print(f"{m['name']:<34} {m['unit']:<6} {p:>14} {c:>14}  {note}")
    return differs == 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    ap.add_argument("--workload", required=True, type=workload_list,
                    help="one workload, a comma list, or 'all'")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--layers", action="store_true",
                    help="one --trace 1 run per side: per-layer metrics side by side")
    args = ap.parse_args()

    sides = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}
    ok = True
    for i, workload in enumerate(args.workload):
        if i:
            print()
        if args.layers:
            ok &= run_layers(workload, sides, args.seconds, args.seed)
        else:
            ok &= run_pairs(workload, sides, args.pairs, args.seconds, args.seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
