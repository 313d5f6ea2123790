"""Property suites for Reed-Solomon erasure coding and degraded reads.

Two layers of the same guarantee:

* algebra — for random ``(k, m, payload)``, any subset of ``k`` of the
  ``k + m`` shares decodes bit-exactly, and any single lost share is
  rebuilt bit-exactly (the repair path degraded reads rely on);
* system — a degraded read through :class:`repro.pfs.SimPFS` (server
  down, ``redundancy`` active) delivers exactly the same byte count to
  the client as the healthy read path.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import obs as obs_mod
from repro.erasure.reedsolomon import ReedSolomon
from repro.pfs.params import PFSParams
from repro.pfs.system import SimPFS
from repro.sim import Simulator, Timeout


@given(
    k=st.integers(1, 10),
    m=st.integers(1, 6),
    payload=st.binary(min_size=1, max_size=512),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_any_k_of_n_shares_decode_bit_exactly(k, m, payload, seed):
    rs = ReedSolomon(k, m)
    shares = rs.encode(payload)
    assert len(shares) == rs.n
    rng = np.random.default_rng(seed)
    # erase up to m random shares; decode from what survives
    n_erase = int(rng.integers(0, m + 1))
    erased = set(rng.choice(rs.n, size=n_erase, replace=False).tolist())
    available = {i: shares[i] for i in range(rs.n) if i not in erased}
    assert rs.decode(available, len(payload)) == payload


@given(
    k=st.integers(1, 8),
    m=st.integers(1, 4),
    payload=st.binary(min_size=1, max_size=256),
    target=st.integers(0, 11),
)
@settings(max_examples=40, deadline=None)
def test_lost_share_reconstructs_bit_exactly(k, m, payload, target):
    rs = ReedSolomon(k, m)
    target %= rs.n
    shares = rs.encode(payload)
    survivors = {i: s for i, s in enumerate(shares) if i != target}
    assert rs.reconstruct_share(survivors, target, len(payload)) == shares[target]


@given(
    k=st.integers(1, 10),
    m=st.integers(1, 6),
    payload=st.binary(min_size=1, max_size=256),
)
@settings(max_examples=30, deadline=None)
def test_more_than_m_erasures_are_refused(k, m, payload):
    rs = ReedSolomon(k, m)
    shares = rs.encode(payload)
    available = {i: shares[i] for i in range(rs.k - 1)}
    try:
        rs.decode(available, len(payload))
    except ValueError:
        pass
    else:  # pragma: no cover - property violation
        raise AssertionError("decode accepted fewer than k shares")


def _read_bytes(redundancy: str, nbytes: int, down_server) -> float:
    """Client bytes delivered by one read, optionally with a dead server."""
    with obs_mod.use(obs_mod.Observability(name="prop")):
        sim = Simulator()
        pfs = SimPFS(sim, PFSParams(redundancy=redundancy))
        state = {}

        def app():
            yield from pfs.op_create(0, "/f")
            yield from pfs.op_write(0, "/f", 0, nbytes)
            if down_server is not None:
                pfs.servers[down_server].crash()
            before = pfs.counters["bytes_read"]
            yield from pfs.op_read(0, "/f", 0, nbytes)
            state["read"] = pfs.counters["bytes_read"] - before

        sim.spawn(app())
        sim.run()
    return state["read"]


@given(
    scheme=st.sampled_from(["rs:4+2", "rs:2+1", "mirror:2", "mirror:3"]),
    nbytes=st.integers(1, 512 * 1024),
    down_server=st.integers(0, 7),
)
@settings(max_examples=20, deadline=None)
def test_degraded_read_returns_same_byte_count_as_healthy(scheme, nbytes, down_server):
    healthy = _read_bytes(scheme, nbytes, None)
    degraded = _read_bytes(scheme, nbytes, down_server)
    assert healthy == degraded == nbytes


def test_degraded_read_actually_reconstructed():
    """Sanity anchor for the property above: the degraded run really took
    the reconstruction path (not a silently-healthy read)."""
    with obs_mod.use(obs_mod.Observability(name="anchor")) as o:
        sim = Simulator()
        pfs = SimPFS(sim, PFSParams(redundancy="rs:4+2"))

        def app():
            yield from pfs.op_create(0, "/f")
            yield from pfs.op_write(0, "/f", 0, 1 << 20)
            pfs.servers[3].crash()
            yield Timeout(1e-6)
            yield from pfs.op_read(0, "/f", 0, 1 << 20)

        sim.spawn(app())
        sim.run()
        counters = o.metrics.snapshot()["counters"]
    assert counters.get("faults.reconstructions", 0) >= 1
    assert counters.get("faults.reconstructed_bytes", 0) > 0
