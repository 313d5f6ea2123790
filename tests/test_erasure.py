"""Tests for GF(256), Reed-Solomon, and reliability models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.erasure import (
    GF256,
    ReedSolomon,
    diskreduce_capacity_overhead,
    mttdl_mirrored,
    mttdl_rs,
)


# ------------------------------------------------------------- GF(256)
def test_gf_add_is_xor():
    assert GF256.add(0x53, 0xCA) == 0x99
    assert GF256.sub(0x53, 0xCA) == 0x99


def test_gf_mul_known_value():
    # 2 * 128 = 0x100, reduced by the 0x11d polynomial -> 0x1d
    assert GF256.mul(2, 128) == 0x1D


def test_gf_mul_zero_and_one():
    a = np.arange(256, dtype=np.uint8)
    assert np.all(GF256.mul(a, 0) == 0)
    assert np.all(GF256.mul(a, 1) == a)


def test_gf_inverse():
    for x in range(1, 256):
        assert GF256.mul(x, GF256.inv(x)) == 1
    with pytest.raises(ZeroDivisionError):
        GF256.inv(0)


def test_gf_div():
    assert GF256.div(GF256.mul(7, 9), 9) == 7


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=100, deadline=None)
def test_gf_field_axioms(a, b, c):
    # commutativity & associativity of mul, distributivity over add
    assert GF256.mul(a, b) == GF256.mul(b, a)
    assert GF256.mul(GF256.mul(a, b), c) == GF256.mul(a, GF256.mul(b, c))
    assert GF256.mul(a, GF256.add(b, c)) == GF256.add(GF256.mul(a, b), GF256.mul(a, c))


def test_mat_inv_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(5):
        while True:
            A = rng.integers(0, 256, size=(4, 4)).astype(np.uint8)
            try:
                Ainv = GF256.mat_inv(A)
                break
            except np.linalg.LinAlgError:
                continue
        eye = GF256.mat_mul(A, Ainv)
        assert np.array_equal(eye, np.eye(4, dtype=np.uint8))


def test_mat_inv_singular_rejected():
    A = np.zeros((3, 3), dtype=np.uint8)
    with pytest.raises(np.linalg.LinAlgError):
        GF256.mat_inv(A)


def test_mul_table_is_mul_for_every_pair():
    a, b = np.divmod(np.arange(65536), 256)
    assert GF256.MUL_TABLE.shape == (256, 256) and GF256.MUL_TABLE.dtype == np.uint8
    assert np.array_equal(GF256.MUL_TABLE[a, b], GF256.mul(a, b))


def _mat_mul_reference(A, B):
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.uint8)
    for i in range(A.shape[1]):
        out ^= GF256.mul(A[:, i:i + 1], B[i:i + 1, :])
    return out


@given(
    n=st.integers(1, 6), k=st.integers(1, 6), m=st.sampled_from([1, 2, 17, 300]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_mat_mul_matches_reference_built_from_mul(n, k, m, seed):
    rng = np.random.default_rng(seed)
    # a third zeros, a third ones: the coefficients the kernel special-cases
    A = rng.choice(np.array([0, 1, 0x53, 0xCA, 255], dtype=np.uint8), size=(n, k))
    B = rng.integers(0, 256, size=(k, m), dtype=np.uint8)
    assert np.array_equal(GF256.mat_mul(A, B), _mat_mul_reference(A, B))
    A = rng.integers(0, 256, size=(n, k), dtype=np.uint8)
    assert np.array_equal(GF256.mat_mul(A, B), _mat_mul_reference(A, B))


# ------------------------------------------------------------- Reed-Solomon
def test_rs_systematic_first_k_shares_are_data():
    rs = ReedSolomon(4, 2)
    data = bytes(range(64))
    shares = rs.encode(data)
    assert len(shares) == 6
    joined = b"".join(shares[:4])
    assert joined[: len(data)] == data


def test_rs_roundtrip_all_shares():
    rs = ReedSolomon(5, 3)
    data = b"petascale data storage institute" * 3
    shares = rs.encode(data)
    got = rs.decode({i: s for i, s in enumerate(shares)}, data_len=len(data))
    assert got == data


def test_rs_recovers_from_any_k_subset():
    import itertools

    rs = ReedSolomon(3, 2)
    data = bytes(np.random.default_rng(1).integers(0, 256, size=50, dtype=np.uint8))
    shares = rs.encode(data)
    for subset in itertools.combinations(range(5), 3):
        got = rs.decode({i: shares[i] for i in subset}, data_len=len(data))
        assert got == data, subset


def test_rs_insufficient_shares():
    rs = ReedSolomon(4, 2)
    shares = rs.encode(b"x" * 40)
    with pytest.raises(ValueError):
        rs.decode({0: shares[0], 1: shares[1]}, data_len=40)


def test_rs_inconsistent_lengths():
    rs = ReedSolomon(2, 1)
    shares = rs.encode(b"hello world!")
    bad = {0: shares[0], 1: shares[1][:-1]}
    with pytest.raises(ValueError):
        rs.decode(bad, data_len=12)


def test_rs_reconstruct_share():
    rs = ReedSolomon(4, 2)
    data = b"A" * 100
    shares = rs.encode(data)
    available = {i: shares[i] for i in (0, 2, 3, 5)}
    rebuilt = rs.reconstruct_share(available, target=1, data_len=len(data))
    assert rebuilt == shares[1]
    with pytest.raises(ValueError):
        rs.reconstruct_share(available, target=9, data_len=len(data))


def test_rs_first_k_shares_are_the_padded_data_byte_for_byte():
    rs = ReedSolomon(4, 2)
    data = bytes(np.random.default_rng(3).integers(0, 256, size=4097, dtype=np.uint8))
    shares = rs.encode(data)
    assert len({len(s) for s in shares}) == 1
    joined = b"".join(shares[:4])
    assert joined == data + bytes(len(joined) - len(data))


def test_rs_reconstructs_every_share_from_every_survivor_set():
    import itertools

    rs = ReedSolomon(4, 2)
    data = bytes(np.random.default_rng(2).integers(0, 256, size=203, dtype=np.uint8))
    shares = rs.encode(data)
    for survivors in itertools.combinations(range(6), 4):
        have = {i: shares[i] for i in survivors}
        for target in range(6):
            assert rs.reconstruct_share(have, target, len(data)) == shares[target], (
                survivors, target,
            )


@pytest.mark.parametrize("bad", [-1, 6, 9])
def test_rs_share_index_out_of_range_rejected(bad):
    rs = ReedSolomon(4, 2)
    shares = rs.encode(b"x" * 40)
    have = {bad: shares[5], 1: shares[1], 2: shares[2], 3: shares[3]}
    with pytest.raises(ValueError, match="out of range"):
        rs.decode(have, data_len=40)
    with pytest.raises(ValueError, match="out of range"):
        rs.reconstruct_share(have, target=0, data_len=40)
    # an out-of-range index is refused even when k good shares come first
    have = {i: shares[i] for i in range(4)} | {bad: shares[5]}
    with pytest.raises(ValueError, match="out of range"):
        rs.decode(have, data_len=40)


def test_rs_param_validation():
    with pytest.raises(ValueError):
        ReedSolomon(0, 2)
    with pytest.raises(ValueError):
        ReedSolomon(200, 100)


@given(
    data=st.binary(min_size=1, max_size=300),
    k=st.integers(1, 6),
    m=st.integers(0, 4),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_rs_roundtrip_property(data, k, m, seed):
    """Any k of k+m shares recover any data exactly."""
    rs = ReedSolomon(k, m)
    shares = rs.encode(data)
    rng = np.random.default_rng(seed)
    keep = sorted(rng.choice(k + m, size=k, replace=False).tolist())
    got = rs.decode({i: shares[i] for i in keep}, data_len=len(data))
    assert got == data


# ------------------------------------------------------------- reliability
def test_mttdl_orderings():
    mttf, mttr = 1.0e6, 24.0
    r5 = mttdl_rs(mttf, mttr, k=9, m=1)  # RAID-5 over a 10-disk group
    rs_82 = mttdl_rs(mttf, mttr, k=8, m=2)
    rs_83 = mttdl_rs(mttf, mttr, k=8, m=3)
    # more parity -> vastly more reliable
    assert rs_83 > rs_82 > r5


def test_mttdl_mirror_scaling():
    one = mttdl_mirrored(1e6, 24.0, n_pairs=1)
    many = mttdl_mirrored(1e6, 24.0, n_pairs=100)
    assert many == pytest.approx(one / 100)


def test_mttdl_validation():
    with pytest.raises(ValueError):
        mttdl_rs(-1, 24, 4, 1)
    with pytest.raises(ValueError):
        mttdl_rs(1e6, 2e6, 4, 1)
    with pytest.raises(ValueError):
        mttdl_mirrored(1e6, 24, 0)
    with pytest.raises(ValueError):
        mttdl_rs(1e6, 24, 0, 1)


def test_diskreduce_overheads():
    assert diskreduce_capacity_overhead("3-replication") == 2.0
    assert diskreduce_capacity_overhead("rs", k=8, m=2) == pytest.approx(0.25)
    # the DiskReduce claim: erasure coding slashes the overhead
    assert (
        diskreduce_capacity_overhead("rs", k=8, m=2)
        < diskreduce_capacity_overhead("3-replication") / 4
    )
    with pytest.raises(ValueError):
        diskreduce_capacity_overhead("raid-zebra")
