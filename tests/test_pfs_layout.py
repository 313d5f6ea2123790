"""Tests for stripe layout and the block lock manager."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pfs import BlockLockManager, StripeLayout


def test_single_chunk_extent():
    lay = StripeLayout(n_servers=4, stripe_unit=64)
    exts = list(lay.extents(0, 64))
    assert len(exts) == 1
    e = exts[0]
    assert (e.server, e.server_offset, e.length) == (0, 0, 64)


def test_round_robin_across_servers():
    lay = StripeLayout(n_servers=4, stripe_unit=64)
    exts = list(lay.extents(0, 256))
    assert [e.server for e in exts] == [0, 1, 2, 3]
    assert all(e.server_offset == 0 for e in exts)
    exts2 = list(lay.extents(256, 256))
    assert [e.server for e in exts2] == [0, 1, 2, 3]
    assert all(e.server_offset == 64 for e in exts2)


def test_unaligned_write_splits_at_boundaries():
    lay = StripeLayout(n_servers=2, stripe_unit=100)
    exts = list(lay.extents(50, 120))
    assert [(e.server, e.server_offset, e.length) for e in exts] == [
        (0, 50, 50),
        (1, 0, 70),
    ]


def test_extents_cover_exact_range():
    lay = StripeLayout(n_servers=3, stripe_unit=7)
    exts = list(lay.extents(5, 100))
    assert sum(e.length for e in exts) == 100
    assert exts[0].logical_offset == 5
    pos = 5
    for e in exts:
        assert e.logical_offset == pos
        pos += e.length


def test_server_of_matches_extents():
    lay = StripeLayout(n_servers=5, stripe_unit=16)
    for off in (0, 15, 16, 79, 80, 1000):
        assert lay.server_of(off) == next(iter(lay.extents(off, 1))).server


def test_merged_extents_single_server_contiguous():
    lay = StripeLayout(n_servers=1, stripe_unit=64)
    merged = lay.merged_extents(0, 1000)
    assert len(merged) == 1
    assert merged[0].length == 1000


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        StripeLayout(0, 64)
    with pytest.raises(ValueError):
        StripeLayout(4, 0)
    lay = StripeLayout(2, 64)
    with pytest.raises(ValueError):
        list(lay.extents(-1, 10))


@given(
    n_servers=st.integers(1, 8),
    unit=st.integers(1, 512),
    offset=st.integers(0, 10_000),
    length=st.integers(0, 5_000),
)
@settings(max_examples=80, deadline=None)
def test_extents_partition_property(n_servers, unit, offset, length):
    """Extents tile the byte range exactly, each within one stripe chunk."""
    lay = StripeLayout(n_servers, unit)
    exts = list(lay.extents(offset, length))
    assert sum(e.length for e in exts) == length
    pos = offset
    for e in exts:
        assert e.logical_offset == pos
        assert e.length >= 1
        # never crosses a stripe-unit boundary
        assert (e.logical_offset % unit) + e.length <= unit
        assert e.server == (e.logical_offset // unit) % n_servers
        pos += e.length
    # merged extents cover the same bytes
    merged = lay.merged_extents(offset, length)
    assert sum(e.length for e in merged) == length


# ---------------------------------------------------------------- locks
def test_first_writer_owns_without_migration():
    lm = BlockLockManager(64)
    c = lm.charge_write(client=1, offset=0, length=128)
    assert c.migrations == 0 and c.rmw_blocks == 0


def test_repeat_writer_free():
    lm = BlockLockManager(64)
    lm.charge_write(1, 0, 128)
    c = lm.charge_write(1, 0, 128)
    assert c.migrations == 0


def test_other_writer_migrates():
    lm = BlockLockManager(64)
    lm.charge_write(1, 0, 64)
    c = lm.charge_write(2, 0, 64)
    assert c.migrations == 1
    assert c.rmw_blocks == 0  # full-block write: no merge needed


def test_partial_shared_block_pays_rmw():
    lm = BlockLockManager(64)
    lm.charge_write(1, 0, 64)
    c = lm.charge_write(2, 10, 20)
    assert c.migrations == 1
    assert c.rmw_blocks == 1


def test_strided_false_sharing_pattern():
    """N ranks writing unaligned interleaved records: later ranks migrate."""
    lm = BlockLockManager(64)
    record = 48  # unaligned record size
    total_migrations = 0
    for rank in range(8):
        c = lm.charge_write(rank, rank * record, record)
        total_migrations += c.migrations
    assert total_migrations > 0
    assert lm.total_migrations == total_migrations


def test_aligned_disjoint_blocks_no_migration():
    lm = BlockLockManager(64)
    for rank in range(8):
        c = lm.charge_write(rank, rank * 64, 64)
        assert c.migrations == 0


def test_zero_length_charge_is_free():
    lm = BlockLockManager(64)
    assert lm.charge_write(1, 100, 0).migrations == 0


def test_lock_cost_formula():
    from repro.pfs.locks import LockCharge

    c = LockCharge(migrations=3, rmw_blocks=2)
    assert c.cost_s(1e-3, 5e-3) == pytest.approx(3e-3 + 1e-2)


@given(
    writes=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 1000), st.integers(1, 200)),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_lock_manager_migration_bound(writes):
    """Migrations never exceed blocks touched; same-client repeats are free."""
    g = 64
    lm = BlockLockManager(g)
    for client, off, ln in writes:
        c = lm.charge_write(client, off, ln)
        blocks = (off + ln - 1) // g - off // g + 1
        assert 0 <= c.migrations <= blocks
        assert 0 <= c.rmw_blocks <= c.migrations
        # immediately repeating the same write is free
        again = lm.charge_write(client, off, ln)
        assert again.migrations == 0
