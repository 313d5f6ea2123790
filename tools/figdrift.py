#!/usr/bin/env python
"""Regenerate the figure tables and report every row that moved.

Runs the fast benchmark set (``pytest -m "not slow" benchmarks``) with
``REPRO_RESULTS_DIR`` pointed at a temporary directory, so every printed
table is written there as JSON, and compares each one with its committed
copy in ``benchmarks/results/``.  For a table that differs it prints the
header if that changed and each row that changed, old and new.  A table
the fast set prints but nobody committed is listed, not compared; a
committed table the fast set does not regenerate (the slow-only ones) is
counted.

A PR that moves a figure regenerates that table in the same commit, so
on a committed tree this reports nothing.  Exit status 1 if any
committed table moved or the benchmark run failed, 0 otherwise.

Usage: ``python tools/figdrift.py``.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = ROOT / "benchmarks" / "results"


def regenerate(out: Path) -> int:
    """Run the fast benchmark set, dumping its tables into ``out``."""
    env = dict(os.environ, REPRO_RESULTS_DIR=str(out))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "-m", "not slow", "benchmarks",
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
    with tempfile.TemporaryDirectory() as tmp:
        status = regenerate(Path(tmp))
        fresh = {p.name: json.loads(p.read_text())
                 for p in sorted(Path(tmp).glob("*.json"))
                 if not p.name.endswith(".report.json")}
    committed = {p.name for p in COMMITTED.glob("*.json")}
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
    compared = len(committed & set(fresh))
    print(f"{moved} of {compared} committed tables moved; "
          f"{len(committed - set(fresh))} committed tables are not in the fast set")
    if status:
        print(f"benchmark run failed (pytest exit {status})")
    return 1 if moved or status else 0


if __name__ == "__main__":
    sys.exit(main())
