#!/usr/bin/env python
"""Regenerate the figure tables and report every row that moved.

Runs the fast benchmark set (``pytest -m "not slow" benchmarks``), or
with ``--slow`` every benchmark, with ``REPRO_RESULTS_DIR`` pointed at a
temporary directory, so every printed table is written there as JSON,
and compares each one with its committed copy in ``benchmarks/results/``.
For a table that differs it prints the header if that changed and each
row that changed, old and new.  A table the run prints but nobody
committed is listed and fails the run, since a figure nothing compares
could move unseen; a committed table the run does not regenerate (the
slow-only ones, without ``--slow``) is counted.

A table whose numbers are host wall clock (:data:`WALL_CLOCK`) would
differ on every run and every machine, so it is listed as not
comparable instead of being compared.

A change that moves a figure regenerates that table in the same commit,
so on a committed tree this reports nothing.  Exit status 1 if any
committed table moved, a comparable table has no committed copy, or the
benchmark run failed; 0 otherwise.

Usage: ``python tools/figdrift.py [--slow]``.  The fast set takes about
6 s; ``--slow`` adds the slow-only sweeps, among them the 1M-client X22
storm, for about 2 min and a 1.9 GiB peak on a 2-core VM.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = ROOT / "benchmarks" / "results"

#: Titles of the tables that time the host, not the model.
WALL_CLOCK = {
    "Reed-Solomon encode throughput (1 MiB blocks)",
    "X22 smoke: 2k-client hot-server storm, exact vs fluid",
    "X22: 200k-client hot-server storm (fluid) vs extrapolated exact",
    "X22: 1M-client hot-server storm (fluid mode)",
    "X22: fluid incast sweep (64 KiB per sender, one receiver)",
}


def regenerate(out: Path, slow: bool) -> int:
    """Run the benchmark set, dumping its tables into ``out``."""
    env = dict(os.environ, REPRO_RESULTS_DIR=str(out))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    marker = [] if slow else ["-m", "not slow"]
    cmd = [sys.executable, "-m", "pytest", "-q", *marker, "benchmarks",
           "-p", "no:cacheprovider"]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode


def row_text(row: list) -> str:
    return " | ".join(row)


def moved_lines(old: dict, new: dict) -> list[str]:
    """Human-readable differences between two tables; empty if none."""
    lines = []
    if old["header"] != new["header"]:
        lines.append(f"  header: {row_text(old['header'])}  ->  {row_text(new['header'])}")
    for i in range(max(len(old["rows"]), len(new["rows"]))):
        a = old["rows"][i] if i < len(old["rows"]) else None
        b = new["rows"][i] if i < len(new["rows"]) else None
        if a != b:
            was = row_text(a) if a is not None else "(none)"
            now = row_text(b) if b is not None else "(none)"
            lines.append(f"  row {i + 1}: {was}  ->  {now}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--slow", action="store_true",
                        help="also regenerate the slow-only tables")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        status = regenerate(Path(tmp), args.slow)
        fresh = {p.name: json.loads(p.read_text())
                 for p in sorted(Path(tmp).glob("*.json"))
                 if not p.name.endswith(".report.json")}
    wall = sorted(name for name, table in fresh.items() if table["title"] in WALL_CLOCK)
    fresh = {name: table for name, table in fresh.items() if name not in wall}
    committed = {p.name for p in COMMITTED.glob("*.json")} - set(wall)
    moved = 0
    for name, new in fresh.items():
        if name not in committed:
            continue
        lines = moved_lines(json.loads((COMMITTED / name).read_text()), new)
        if lines:
            moved += 1
            print(f"{name}: {new['title']}")
            print("\n".join(lines))
    uncommitted = sorted(set(fresh) - committed)
    if uncommitted:
        print(f"{len(uncommitted)} tables have no committed copy: {', '.join(uncommitted)}")
    if wall:
        print(f"{len(wall)} tables measure host wall clock, not comparable: {', '.join(wall)}")
    compared = len(committed & set(fresh))
    print(f"{moved} of {compared} committed tables moved; "
          f"{len(committed - set(fresh))} committed tables were not regenerated")
    if status:
        print(f"benchmark run failed (pytest exit {status})")
    return 1 if moved or uncommitted or status else 0


if __name__ == "__main__":
    sys.exit(main())
