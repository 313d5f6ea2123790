"""Registry isolation and run-to-run determinism of the obs layer.

The first two tests are an ordered regression pair for the autouse
``_obs_isolation`` fixture in ``tests/conftest.py``: the first leaks an
activated bundle on purpose, the second proves the leak was contained.
The determinism tests pin that two identical runs in one process
produce identical metrics — which is exactly what breaks when registry
state bleeds between runs.
"""

from repro import obs as obs_mod
from repro.pfs.params import PFSParams
from repro.plfs.simbridge import run_direct_n1
from repro.workloads.patterns import n1_strided

PATTERN = n1_strided(4, 64 * 1024, 4)


def test_a_leak_an_activated_bundle_on_purpose():
    """Simulates the historical bug: activate without deactivate."""
    leaked = obs_mod.activate(obs_mod.Observability(name="leaky"))
    leaked.metrics.counter("leak.marker").inc()
    assert obs_mod.current() is leaked  # the fixture cleans up after us


def test_b_previous_tests_leak_was_reset():
    """Runs after the leak above (file order): the global must be clear."""
    assert obs_mod.current() is None


def test_identical_runs_produce_identical_metrics():
    """Two same-config runs under fresh bundles snapshot byte-identically."""
    snapshots = []
    for _ in range(2):
        with obs_mod.use(obs_mod.Observability(name="det")) as o:
            run_direct_n1(PFSParams(), PATTERN)
            snapshots.append(o.metrics.snapshot())
    assert snapshots[0] == snapshots[1]
    assert snapshots[0]["counters"]  # non-trivial: the run was instrumented


def test_identical_congestion_runs_are_deterministic():
    """The congestion-aware path (placement steered by port feedback) is
    deterministic run-to-run, recorded metrics included."""
    from repro.net.params import FabricParams

    fabric = FabricParams(name="t", buffer_pkts=16, seed=9)
    results = []
    for _ in range(2):
        with obs_mod.use(obs_mod.Observability(name="det-cong")) as o:
            res = run_direct_n1(
                PFSParams(fabric=fabric, placement="congestion"), PATTERN
            )
            results.append((res.makespan_s, o.metrics.snapshot()))
    assert results[0][0] == results[1][0]
    assert results[0][1] == results[1][1]


def test_the_model_never_reads_its_recorder_back():
    """Write-only from the model: outside ``repro.obs`` no module calls a
    registry reader (``.value(...)`` / ``.snapshot()``) or takes one off
    a ``.metrics`` handle, so what a simulation does cannot depend on
    whether a bundle is active."""
    import ast
    from pathlib import Path

    import repro

    def reads_back(node) -> bool:
        if isinstance(node, ast.Call):
            f = node.func
            return isinstance(f, ast.Attribute) and f.attr in ("value", "snapshot")
        if isinstance(node, ast.Attribute) and node.attr in ("value", "snapshot", "find"):
            base = node.value  # ``<x>.metrics.value`` / ``metrics.value``, called or aliased
            return getattr(base, "attr", getattr(base, "id", None)) == "metrics"
        return False

    root = Path(repro.__file__).parent
    readers = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        if path.relative_to(root).parts[0] != "obs"
        for node in ast.walk(ast.parse(path.read_text()))
        if reads_back(node)
    ]
    assert readers == []
