#!/usr/bin/env python
"""Name every ``src/`` function that nothing but the tests runs.

Runs every consumer of the library in this one interpreter under a
``sys.settrace`` hook (and ``threading.settrace`` for new threads) that
records each code object entered, then matches the code objects to the
``def`` statements of ``src/repro`` by file and first line (the first
decorator line, for a decorated function).  The consumers are:

- every benchmark, the slow ones included (``pytest benchmarks``);
- the four ``perf/`` workloads, in-process at ``--quick`` size, with
  the probes of a ``trace`` child;
- every script in ``examples/``;
- the console scripts ``repro-plfs`` (all four subcommands, on a
  container written here) and ``repro-fsstats``, and
  ``repro.obs.report --selftest``;
- every doctest: the fenced examples of ``README.md`` and
  ``docs/*.md`` and the docstrings of every ``repro`` module.

The tier-1 tests are deliberately not consumers: a test that pins only
the function it tests is no reason to keep that function.

Prints the top-level functions and methods never entered, by package,
with their line spans; a nested function is counted inside its parent.
Then checks them against DESIGN.md's "Function reach (audit)" section:
every reported function must be named there in backticks, by its
qualname (``Class.method``) or with a module path in front of it
(``verify.checker.explore``), so each has a written keep reason.
Exits 1 if any consumer failed, so a broken benchmark cannot pass for
dead code, or if a reported function is not named in that section.
Needs pytest for the benchmarks, as they do; nothing else outside the
standard library.  Takes about 6 min and a 2.5 GiB peak on
a 2-core VM, most of it the slow benchmarks.

Usage: ``python tools/reach.py``.
"""

import ast
import contextlib
import doctest
import importlib
import importlib.util
import io
import os
import pkgutil
import re
import runpy
import sys
import tempfile
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
AUDIT_HEADING = "### Function reach (audit)"


class Function:
    """One ``def`` in ``src/repro``."""

    def __init__(self, path: Path, node: ast.AST, qualname: str, nested: bool) -> None:
        self.path = path
        self.qualname = qualname
        self.nested = nested
        self.first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        self.last = node.end_lineno

    @property
    def package(self) -> str:
        parts = self.path.relative_to(SRC).with_suffix("").parts
        return ".".join(parts[:2]) if len(parts) > 2 else parts[0]

    @property
    def lines(self) -> int:
        return self.last - self.first + 1

    def named_by(self, token: str) -> bool:
        """Whether ``token`` is this function's qualname, bare or behind a
        module path (``sim.stats.Counter.__repr__``)."""
        if token == self.qualname:
            return True
        prefix, dot, rest = token.rpartition("." + self.qualname)
        modules = set(self.path.relative_to(SRC).with_suffix("").parts)
        return bool(dot) and not rest and set(prefix.split(".")) <= modules


def functions() -> list[Function]:
    """Every function and method defined under ``src/repro``."""
    found = []

    def walk(path, node, prefix, nested):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                found.append(Function(path, child, qualname, nested))
                walk(path, child, qualname + ".", True)
            elif isinstance(child, ast.ClassDef):
                walk(path, child, prefix + child.name + ".", nested)
            else:
                walk(path, child, prefix, nested)

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(path, ast.parse(path.read_text(), str(path)), "", False)
    return found


# -- the consumers ----------------------------------------------------------
def run_benchmarks() -> None:
    import pytest

    # --benchmark-disable: pytest-benchmark pauses any trace hook while it times
    code = pytest.main(["-q", "-p", "no:cacheprovider", "--benchmark-disable",
                        str(ROOT / "benchmarks")])
    if code != 0:
        raise RuntimeError(f"pytest benchmarks exited {code}")


def run_perf() -> None:
    sys.path.insert(0, str(ROOT / "perf"))
    from run import QUICK_SCALE, WORKLOADS, child_main

    for name in WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            verdict = child_main("trace", name, 0, QUICK_SCALE, 0, False, Path(tmp))
        if verdict["failed"] or verdict["sim_drift"]:
            raise RuntimeError(f"perf workload {name}: failed={verdict['failed']} "
                               f"sim_drift={verdict['sim_drift']}")


def run_examples() -> None:
    argv = sys.argv
    try:
        for script in sorted((ROOT / "examples").glob("*.py")):
            sys.argv = [str(script)]
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = argv


def run_clis() -> None:
    from repro import Plfs
    from repro.obs.report import main as report_main
    from repro.tools.fsstats import main as fsstats_main
    from repro.tools.plfs import main as plfs_main

    with tempfile.TemporaryDirectory() as tmp:
        fs = Plfs(Path(tmp) / "mnt")
        fs.create("/ckpt")
        for rank in range(4):
            with fs.open_write("/ckpt", writer=f"rank{rank}", create=False) as h:
                for step in range(8):
                    h.write(bytes([rank + 1]) * 512, (step * 4 + rank) * 512)
        container = str(Path(tmp) / "mnt" / "ckpt")
        calls = [
            (plfs_main, ["ls", str(Path(tmp) / "mnt")]),
            (plfs_main, ["stat", container]),
            (plfs_main, ["analyze", container]),
            (plfs_main, ["flatten", container, str(Path(tmp) / "ckpt.flat")]),
            (fsstats_main, [str(Path(tmp) / "mnt")]),
            (report_main, ["--selftest"]),
        ]
        for main, argv in calls:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"{main.__module__} {' '.join(argv)} exited {code}")


def run_doctests() -> None:
    failed = 0
    with contextlib.redirect_stdout(io.StringIO()):
        for doc in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
            failed += doctest.testfile(str(doc), module_relative=False).failed
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            failed += doctest.testmod(importlib.import_module(info.name)).failed
    if failed:
        raise RuntimeError(f"{failed} doctest example(s) failed")


CONSUMERS = [
    ("benchmarks", run_benchmarks),
    ("perf workloads", run_perf),
    ("examples", run_examples),
    ("console scripts", run_clis),
    ("doctests", run_doctests),
]


# -- the hook and the report ------------------------------------------------
def audit_names() -> list[str]:
    """Every backticked name in DESIGN.md's function-reach section."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text[text.index(AUDIT_HEADING):]
    end = section.find("\n## ")
    return re.findall(r"`([^`]+)`", section if end < 0 else section[:end])


def entered_code() -> tuple[set, list[str]]:
    """Run every consumer under the hook; return the entered code and failures."""
    entered = set()

    def hook(frame, event, arg):
        entered.add(frame.f_code)    # a global trace function sees only 'call'

    failures = []
    for name, consumer in CONSUMERS:
        started = time.monotonic()
        status = "ok"
        threading.settrace(hook)
        sys.settrace(hook)
        try:
            consumer()
        except Exception:
            status = "FAILED"
            failures.append(name)
            traceback.print_exc()
        finally:
            sys.settrace(None)
            threading.settrace(None)
        print(f"reach: {name:<16} {status:<6} {time.monotonic() - started:6.1f} s",
              flush=True)
    return entered, failures


def main() -> int:
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    # find, not import: code that runs at import time must run under the hook
    origin = importlib.util.find_spec("repro").origin
    if Path(origin).resolve().parent != PACKAGE:
        raise SystemExit(f"reach: would import {origin}, not {PACKAGE}")
    entered, failures = entered_code()
    starts = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in entered}
    defs = functions()
    missed = [f for f in defs if (str(f.path), f.first) not in starts]
    report = [f for f in missed if not f.nested]
    by_package = defaultdict(list)
    for f in report:
        by_package[f.package].append(f)
    for package in sorted(by_package):
        rows = by_package[package]
        print(f"\n{package}  ({len(rows)} functions, {sum(f.lines for f in rows)} lines)")
        for f in rows:
            where = f"{f.path.relative_to(PACKAGE)}:{f.first}-{f.last}"
            print(f"  {where:<36} {f.qualname}")
    print(f"\n{len(missed)} of {len(defs)} functions never entered; "
          f"{len(report)} top-level functions and methods, "
          f"{sum(f.lines for f in report)} lines")
    names = audit_names()
    unexplained = [f for f in report if not any(f.named_by(n) for n in names)]
    for f in unexplained:
        print(f"reach: not in DESIGN.md's reach table: {f.qualname} "
              f"({f.path.relative_to(PACKAGE)}:{f.first})", file=sys.stderr)
    if failures:
        print(f"reach: consumers failed: {', '.join(failures)}", file=sys.stderr)
    return 1 if failures or unexplained else 0


if __name__ == "__main__":
    raise SystemExit(main())
