"""Tests for the final fidelity touches: POP/GTC profiles, directory stats."""

import numpy as np

from repro.tracing.fsstats import directory_stats
from repro.workloads import APP_CATALOG, app_pattern, pattern_bytes


# ------------------------------------------------------------- app profiles
def test_pop_gtc_profiles_present():
    assert "pop" in APP_CATALOG and "gtc" in APP_CATALOG
    assert APP_CATALOG["pop"].kind == "strided"
    assert APP_CATALOG["gtc"].kind == "segmented"


def test_pop_gtc_patterns_materialize():
    rng = np.random.default_rng(0)
    for key in ("pop", "gtc"):
        profile = APP_CATALOG[key]
        pat = app_pattern(profile, 8, rng)
        assert len(pat) == 8
        assert pattern_bytes(pat) > 0


# ------------------------------------------------------------- directory stats
def test_directory_stats(tmp_path):
    (tmp_path / "a").write_bytes(b"1")
    (tmp_path / "d1").mkdir()
    (tmp_path / "d1" / "b").write_bytes(b"2")
    (tmp_path / "d1" / "c").write_bytes(b"3")
    (tmp_path / "d1" / "d2").mkdir()
    stats = directory_stats(tmp_path)
    assert stats["directories"] == 3
    assert stats["max_files_per_dir"] == 2
    assert stats["empty_dirs"] == 1
    assert stats["max_depth"] == 2


def test_directory_stats_empty(tmp_path):
    stats = directory_stats(tmp_path)
    assert stats["directories"] == 1
    assert stats["mean_files_per_dir"] == 0.0
