"""Smoke test of the benchmark itself (about a minute).

Collected only when named — ``pytest perf`` — because the tier-1 suite's
``testpaths`` is ``tests``.  It runs ``run.py --quick`` (sizes / 16,
minimum repeats) and checks the harness, not the speed: every metric is
there with its unit, counts repeat, wrong bytes are noticed.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
SPEC = json.loads((PERF.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
EXACT_UNITS = ("count", "B", "B/MiB")
END_TO_END = ("setup_s", "ops_per_s", "recorded_ops_per_s", "peak_rss_mb", "sim_drift",
              "failed_ops_share")
REAL_IO_ONLY = ("write_MBps", "open_s", "read_MBps")


def run_quick(out: Path, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--quick", "-o", str(out), *extra],
        capture_output=True, text=True,
    )
    return proc, json.loads(out.read_text())


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perf")
    docs = []
    for tag in ("a", "b"):
        proc, doc = run_quick(tmp / f"{tag}.json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        docs.append(doc)
    return tmp, docs


def test_every_metric_present_with_a_unit(two_runs):
    _, (doc, _) = two_runs
    assert doc["quick"] is True
    assert set(doc["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    measured = set()
    for name, row in doc["workloads"].items():
        assert row["correct"], name
        wanted = END_TO_END + (REAL_IO_ONLY if name == "real_io" else ())
        assert set(wanted) <= set(row["end_to_end"]), name
        assert set(row["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        for section in ("end_to_end", "per_layer"):
            for metric, cell in row[section].items():
                assert NAME.fullmatch(metric), metric
                assert cell["unit"], metric
        assert row["end_to_end"]["sim_drift"]["value"] == 0
        assert row["end_to_end"]["failed_ops_share"]["value"] == 0
        measured |= {m for m, cell in row["per_layer"].items() if cell["value"]}
    # the layers that count damage legitimately read 0 on a healthy run
    idle = {m["name"] for m in SPEC["per_layer"]} - measured
    assert idle <= {"sim_drift", "failed_ops_share", "pfs.retries", "pfs.timeouts",
                    "pfs.reconstructions", "scrub.deferred", "scrub.rebuild_failures",
                    "scrub.unrecoverable", "net.fabric.drops_pkts", "net.fabric.timeouts",
                    "net.fabric.retransmits"}, idle


def test_exact_counts_repeat(two_runs):
    _, (a, b) = two_runs
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in a["workloads"]:
        for metric, unit in units.items():
            if unit in EXACT_UNITS:
                va, vb = (d["workloads"][name]["per_layer"][metric]["value"] for d in (a, b))
                assert va == vb, (name, metric)


def test_trace_has_a_span_per_phase_and_probe(two_runs):
    spans = [json.loads(line) for line in
             (PERF.parent / ".perf_out" / "perf_trace.jsonl").read_text().splitlines()]
    by_id = {(s["workload"], s["id"]): s for s in spans}
    names = {s["name"] for s in spans}
    assert {"ckpt_exact.write", "ckpt_exact.read", "storm_fluid.storm", "meta_scrub.giga",
            "meta_scrub.scrub", "real_io.write", "real_io.open", "real_io.seq_read",
            "real_io.rand_read", "real_io.rs", "probe.sim.kernel", "probe.net.fabric.flow",
            "probe.net.fluid.n1000", "probe.obs.span", "probe.plfs.lookup",
            "probe.erasure.reconstruct"} <= names
    for s in spans:
        assert s["end"] >= s["start"]
        if not s["name"].startswith("probe.") and ".run." not in s["name"]:
            assert ".run." in by_id[(s["workload"], s["parent"])]["name"]


def test_compare_refuses_quick_outputs(two_runs):
    tmp, _ = two_runs
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--compare", str(tmp / "a.json"),
         str(tmp / "b.json")], capture_output=True, text=True,
    )
    assert proc.returncode != 0
    assert "quick" in proc.stderr


def test_corrupted_read_back_is_counted(tmp_path):
    proc, doc = run_quick(tmp_path / "bad.json", "--workload", "real_io", "--inject-corruption")
    assert proc.returncode != 0
    row = doc["workloads"]["real_io"]
    assert not row["correct"]
    assert row["end_to_end"]["failed_ops_share"]["value"] > 0
