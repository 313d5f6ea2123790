"""``tools/abpairs.py --layers``: which rows its per-layer table shows.

The tool is loaded from its file and ``run_once`` is stubbed, so no
``perf/run.py`` child runs.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "abpairs.py"


@pytest.fixture
def abpairs():
    spec = importlib.util.spec_from_file_location("abpairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layers(abpairs, monkeypatch, capsys, parent: dict, change: dict):
    """Run ``run_layers`` on stubbed traced runs; its verdict and table rows."""
    sides = {"parent": Path("parent"), "change": Path("change")}
    runs = {sides["parent"]: parent, sides["change"]: change}
    monkeypatch.setattr(abpairs, "run_once", lambda checkout, *a, **kw: runs[checkout])
    ok = abpairs.run_layers("ckpt_exact", sides, 2.0, 0)
    rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[2:]}
    return ok, rows


def test_zero_rows_print_as_identical(abpairs, monkeypatch, capsys):
    counts = {"sim.events_dispatched": 559_001, "sim_drift": 0.0, "failed_ops_share": 0.0}
    ok, rows = _layers(abpairs, monkeypatch, capsys, counts, dict(counts))
    assert ok
    for name in ("sim_drift", "failed_ops_share"):
        assert rows[name].split()[-1] == "identical"
        assert rows[name].split()[2:4] == ["0.000", "0.000"]


def test_zero_rows_of_layers_not_run_stay_hidden(abpairs, monkeypatch, capsys):
    counts = {"sim.events_dispatched": 559_001, "giga.creates": 0}
    ok, rows = _layers(abpairs, monkeypatch, capsys, counts, dict(counts))
    assert ok
    assert "giga.creates" not in rows
    assert rows["sim.events_dispatched"].split()[-1] == "identical"


def test_differing_count_fails(abpairs, monkeypatch, capsys):
    ok, rows = _layers(abpairs, monkeypatch, capsys,
                       {"sim.events_dispatched": 559_001}, {"sim.events_dispatched": 559_002})
    assert not ok
    assert rows["sim.events_dispatched"].split()[-1] == "DIFFERS"
