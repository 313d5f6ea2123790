"""Tests for the final fidelity touches: the POP/GTC profiles."""

import numpy as np

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
