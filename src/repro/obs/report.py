"""Darshan-style per-job reports over an :class:`Observability` bundle.

``build_report`` folds a job's registry and tracer into one JSON-ready
dict: every counter/gauge/histogram, per-span-type aggregates, the
top-N slowest spans, and a per-rank I/O balance section computed from
byte counters labelled by rank/client/writer/server.  Serialization is
sorted-key JSON, so identical runs produce byte-identical report files.

CLI::

    python -m repro.obs.report job.json            # pretty-print
    python -m repro.obs.report a.json b.json       # field-level diff
    python -m repro.obs.report --selftest          # determinism smoke test
    python -m repro.obs.report --json ...          # machine-readable output

Exit codes (stable; CI relies on them):

====  ===============================================================
0     report printed, diffed reports identical, or selftest passed
1     ``diff`` found differing fields, or selftest failed
2     usage error, unreadable file, or not a report file
====  ===============================================================

``--json`` emits sorted-key JSON instead of the pretty printer: a
single report is echoed verbatim; a diff prints ``{"identical": bool,
"n_diffs": int, "diffs": [...]}`` (exit code unchanged).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Optional

from repro.obs.metrics import Counter

#: Label keys that identify a per-participant breakdown.
ID_LABELS = ("rank", "client", "writer", "server")


def _io_balance(obs) -> dict:
    """Balance stats for byte counters broken down by participant."""
    groups: dict[str, dict[str, float]] = {}
    for metric in obs.metrics:
        if not isinstance(metric, Counter) or "bytes" not in metric.name:
            continue
        for key, value in metric.labels:
            if key in ID_LABELS:
                groups.setdefault(f"{metric.name}/{key}", {})[value] = metric.value
    out: dict[str, dict] = {}
    for name in sorted(groups):
        values = [groups[name][k] for k in sorted(groups[name])]
        total = sum(values)
        mean = total / len(values)
        out[name] = {
            "participants": len(values),
            "total": total,
            "min": min(values),
            "max": max(values),
            "mean": mean,
            "imbalance": (max(values) / mean) if mean else 1.0,
        }
    return out


def build_report(obs, meta: Optional[dict] = None, top_spans: int = 10) -> dict:
    """One job's observability data as a deterministic, JSON-ready dict."""
    finished = obs.tracer.finished_spans()
    slowest = sorted(finished, key=lambda s: (-s.duration, s.span_id))[:top_spans]
    snap = obs.metrics.snapshot()
    return {
        "job": obs.name,
        "clock": type(obs.clock).__name__,
        "meta": meta or {},
        "counters": snap["counters"],
        "gauges": snap["gauges"],
        "histograms": snap["histograms"],
        "spans": {
            "total": len(finished),
            "distinct_nesting": obs.tracer.nesting_depth(),
            "by_name": obs.tracer.by_name(),
            "slowest": [
                {
                    "name": s.name,
                    "id": s.span_id,
                    "t0": s.start,
                    "duration": s.duration,
                    "parent": s.parent_id,
                    "attrs": {k: s.attrs[k] for k in sorted(s.attrs)},
                }
                for s in slowest
            ],
        },
        "io_balance": _io_balance(obs),
    }


def dumps_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


def write_report(report: dict, path: Path | str) -> Path:
    path = Path(path)
    path.write_text(dumps_report(report))
    return path


def load_report(path: Path | str) -> dict:
    return json.loads(Path(path).read_text())


# -- diff ---------------------------------------------------------------
def diff_reports(a: dict, b: dict, _path: str = "") -> list[dict]:
    """Recursive field-level diff; empty list means the reports agree."""
    diffs: list[dict] = []
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            here = f"{_path}.{key}" if _path else str(key)
            if key not in a:
                diffs.append({"path": here, "a": None, "b": b[key]})
            elif key not in b:
                diffs.append({"path": here, "a": a[key], "b": None})
            else:
                diffs.extend(diff_reports(a[key], b[key], here))
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append({"path": f"{_path}.len", "a": len(a), "b": len(b)})
        for i, (x, y) in enumerate(zip(a, b)):
            diffs.extend(diff_reports(x, y, f"{_path}[{i}]"))
    elif a != b:
        diffs.append({"path": _path, "a": a, "b": b})
    return diffs


# -- pretty printer -----------------------------------------------------
def _fmt(v: float) -> str:
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.6g}"
    return f"{v:g}" if isinstance(v, float) else str(v)


def format_report(report: dict, max_rows: int = 40) -> str:
    lines = [f"== job report: {report['job']} (clock={report['clock']})"]
    if report.get("meta"):
        lines.append("   meta: " + ", ".join(f"{k}={v}" for k, v in sorted(report["meta"].items())))
    counters = report.get("counters", {})
    if counters:
        lines.append(f"-- counters ({len(counters)})")
        for key in list(sorted(counters))[:max_rows]:
            lines.append(f"   {key:<60} {_fmt(counters[key])}")
        if len(counters) > max_rows:
            lines.append(f"   ... {len(counters) - max_rows} more")
    gauges = report.get("gauges", {})
    if gauges:
        lines.append(f"-- gauges ({len(gauges)})")
        for key in list(sorted(gauges))[:max_rows]:
            lines.append(f"   {key:<60} {_fmt(gauges[key])}")
    hists = report.get("histograms", {})
    if hists:
        lines.append(f"-- histograms ({len(hists)})")
        for key in list(sorted(hists))[:max_rows]:
            h = hists[key]
            lines.append(
                f"   {key:<60} n={h['count']} mean={_fmt(h['mean'])} "
                f"min={_fmt(h['min'])} max={_fmt(h['max'])}"
            )
        if len(hists) > max_rows:
            lines.append(f"   ... {len(hists) - max_rows} more")
    spans = report.get("spans", {})
    if spans:
        lines.append(
            f"-- spans: total={spans.get('total', 0)} "
            f"distinct_nesting={spans.get('distinct_nesting', 0)}"
        )
        for name, row in spans.get("by_name", {}).items():
            lines.append(
                f"   {name:<40} count={row['count']} "
                f"total_s={_fmt(row['total_s'])} max_s={_fmt(row['max_s'])}"
            )
        if spans.get("slowest"):
            lines.append("   slowest:")
            for s in spans["slowest"]:
                lines.append(
                    f"     {s['name']:<38} {_fmt(s['duration'])}s @t0={_fmt(s['t0'])}"
                )
    balance = report.get("io_balance", {})
    if balance:
        lines.append(f"-- per-participant I/O balance ({len(balance)})")
        for key in sorted(balance):
            row = balance[key]
            lines.append(
                f"   {key:<50} n={row['participants']} total={_fmt(row['total'])} "
                f"min={_fmt(row['min'])} max={_fmt(row['max'])} "
                f"imbalance={row['imbalance']:.3f}"
            )
    return "\n".join(lines)


# -- selftest -----------------------------------------------------------
def _selftest_run() -> dict:
    """A small fig-8 style checkpoint with observability on; returns its report."""
    from repro import obs as obs_mod
    from repro.pfs import LUSTRE_LIKE
    from repro.plfs.simbridge import speedup
    from repro.workloads.patterns import n1_strided

    with obs_mod.use(obs_mod.Observability(name="obs-selftest")) as o:
        pattern = n1_strided(8, 47 * 1024, 4)
        speedup(LUSTRE_LIKE.with_servers(4), pattern)
        return o.report(meta={"scenario": "fig8-small"})


def selftest(verbose: bool = True) -> int:
    """Run the scenario twice; verify content and byte-identical reports."""
    first, second = _selftest_run(), _selftest_run()
    problems: list[str] = []
    if dumps_report(first) != dumps_report(second):
        n = len(diff_reports(first, second))
        problems.append(f"two identical runs differ in {n} report fields")
    if not any(k.startswith("pfs.client.bytes_written{") for k in first["counters"]):
        problems.append("missing per-rank byte counters")
    if not any(k.startswith("pfs.server.service_s{") for k in first["histograms"]):
        problems.append("missing per-server service-time histograms")
    if first["spans"]["distinct_nesting"] < 3:
        problems.append(
            f"span nesting too shallow: {first['spans']['distinct_nesting']} < 3"
        )
    if verbose:
        print(format_report(first, max_rows=12))
        print()
        for p in problems:
            print(f"selftest FAIL: {p}")
        if not problems:
            print(
                f"selftest ok: {len(first['counters'])} counters, "
                f"{len(first['histograms'])} histograms, "
                f"{first['spans']['total']} spans, byte-identical across runs"
            )
    return 1 if problems else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Pretty-print, diff, or self-test per-job observability reports.",
        epilog="exit codes: 0 ok/identical/selftest-pass; "
               "1 diff mismatch or selftest failure; 2 usage or unreadable file",
    )
    parser.add_argument("files", nargs="*", help="one report to print, or two to diff")
    parser.add_argument("--selftest", action="store_true", help="run the determinism smoke test")
    parser.add_argument(
        "--json", action="store_true",
        help="machine-readable sorted-key JSON output instead of the pretty printer",
    )
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    reports = []
    for path in args.files:
        try:
            reports.append(load_report(path))
        except OSError as exc:
            parser.exit(2, f"python -m repro.obs.report: error: {exc}\n")
        except json.JSONDecodeError as exc:
            parser.exit(2, f"python -m repro.obs.report: error: {path}: not a report file ({exc})\n")
    if len(reports) == 1:
        if args.json:
            print(json.dumps(reports[0], sort_keys=True, indent=1))
        else:
            print(format_report(reports[0]))
        return 0
    if len(reports) == 2:
        diffs = diff_reports(reports[0], reports[1])
        if args.json:
            print(json.dumps(
                {"identical": not diffs, "n_diffs": len(diffs), "diffs": diffs},
                sort_keys=True, indent=1,
            ))
            return 1 if diffs else 0
        if not diffs:
            print("reports identical")
            return 0
        for d in diffs:
            print(f"{d['path']}: {d['a']!r} != {d['b']!r}")
        print(f"{len(diffs)} differing fields")
        return 1
    parser.error("pass one report file, two to diff, or --selftest")
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
