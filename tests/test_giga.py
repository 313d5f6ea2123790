"""Tests for GIGA+ mapping and the metadata service under a create storm."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.giga import (
    GigaBitmap,
    GigaService,
    MAX_RADIX,
    ServiceParams,
    ShardMap,
    hash_name,
    run_storm,
)
from repro.sim import Simulator


def test_initial_bitmap_single_partition():
    b = GigaBitmap()
    assert 0 in b
    assert len(b) == 1
    assert b.partition_of(12345) == 0


def test_first_split_routes_by_bit0():
    b = GigaBitmap()
    child = b.split(0)
    assert child == 1
    assert b.partition_of(0b10) == 0
    assert b.partition_of(0b11) == 1


def test_second_level_split():
    b = GigaBitmap()
    b.split(0)       # -> 0,1 at radix 1
    child = b.split(1)  # 1 splits on bit 1 -> child 3
    assert child == 3
    assert b.partition_of(0b01) == 1   # bit1 clear -> stays
    assert b.partition_of(0b11) == 3   # bit1 set -> child
    b.check_invariants()


def test_split_missing_partition_raises():
    b = GigaBitmap()
    with pytest.raises(KeyError):
        b.split(7)


def test_split_radix_limit():
    b = GigaBitmap()
    p = 0
    for _ in range(MAX_RADIX):
        b.split(p)
    with pytest.raises(OverflowError):
        b.split(0)


def test_merge_from_stale_replica():
    auth = GigaBitmap()
    auth.split(0)
    auth.split(1)
    stale = GigaBitmap()
    assert stale.merge_from(auth) is True
    assert stale.radix == auth.radix
    assert stale.merge_from(auth) is False  # idempotent


def test_stale_map_addresses_ancestor():
    """A stale replica maps any hash to an ancestor of the true partition —
    the property that makes lazy correction safe."""
    auth = GigaBitmap()
    stale = copy.deepcopy(auth)
    for p in (0, 1, 0, 2):
        auth.split(p)
    for h in range(256):
        true = auth.partition_of(h)
        guess = stale.partition_of(h)
        # guess must be a prefix-ancestor: clearing top bits of true reaches it
        t = true
        while t != guess and t:
            t &= ~(1 << (t.bit_length() - 1))
        assert t == guess


def test_moves_on_split_partitions_by_radix_bit():
    b = GigaBitmap()
    hashes = list(range(16))
    child = b.split(0)
    movers = [h for h in hashes if b.partition_of(h) == child]
    assert movers == [h for h in hashes if h & 1]


@given(st.lists(st.integers(0, 40), min_size=0, max_size=30))
@settings(max_examples=60, deadline=None)
def test_bitmap_invariants_under_random_splits(split_choices):
    b = GigaBitmap()
    for choice in split_choices:
        parts = b.partitions()
        target = parts[choice % len(parts)]
        if b.radix[target] >= MAX_RADIX:
            continue
        try:
            b.split(target)
        except ValueError:
            continue
    b.check_invariants()
    # every hash maps to exactly one existing partition
    for h in range(0, 2000, 37):
        assert b.partition_of(h) in b


# ------------------------------------------- useful_split (no-op guard)
def test_useful_split_rejects_one_sided_and_tiny_directories():
    """Splitting a 0/1-entry or one-sided partition would mint an empty
    sibling; useful_split flags those as no-ops."""
    b = GigaBitmap()
    assert b.useful_split(0, []) is False                  # empty dir
    assert b.useful_split(0, [0b10]) is False              # single entry
    assert b.useful_split(0, [0b10, 0b100]) is False       # all bit0-clear
    assert b.useful_split(0, [0b1, 0b11]) is False         # all bit0-set
    assert b.useful_split(0, [0b0, 0b1]) is True           # both sides


def test_useful_split_rejects_at_radix_limit():
    b = GigaBitmap()
    p = 0
    for _ in range(MAX_RADIX):
        b.split(p)
    # hashes on both sides of the (nonexistent) next bit: still a no-op
    assert b.useful_split(0, [0, 1 << MAX_RADIX]) is False


def test_useful_split_missing_partition_raises():
    b = GigaBitmap()
    with pytest.raises(KeyError):
        b.useful_split(7, [0, 1])


def test_cluster_overflow_of_one_sided_partition_is_noop():
    """Regression: a partition whose entries all hash to one side used to
    split into an empty sibling; now the overflow is a counted no-op and
    no empty partition appears."""
    sim = Simulator()
    service = GigaService(sim, ServiceParams(n_servers=1, split_threshold=2))
    client_state = service.client(0)
    # names whose hashes all have bit 0 clear: a split can never separate
    # them at radix 0
    names = [f"g{i}" for i in range(200) if hash_name(f"g{i}") & 1 == 0][:5]
    assert len(names) == 5

    def client():
        for n in names:
            yield from service.client_create(client_state, n)

    sim.spawn(client())
    sim.run()
    service.check_invariants()
    assert service.counters["splits_skipped"] > 0
    assert service.counters["splits"] == 0
    assert len(service.bitmap) == 1                      # no empty sibling
    assert all(bucket for p, bucket in service.entries.items() if p != 0)


def test_owner_of_an_empty_map_raises():
    """Failing every server off the ring leaves no owner; the memo of the
    maps before it must not hide that."""
    m = ShardMap([0, 1, 2])
    m.owner(5)
    while len(m):
        m = m.without(m.servers[0])
        if len(m):
            m.owner(5)
    for _ in range(2):
        with pytest.raises(ValueError, match="shard map has no online servers"):
            m.owner(5)


def test_check_invariants_catch_stale_caches():
    """A memoized owner the ring disagrees with, or a partition above the
    bitmap's cached mask, fails the invariant checks."""
    sim = Simulator()
    service = GigaService(sim, ServiceParams(n_servers=4))
    service.check_invariants()
    shard_map = service.coordinator.map
    right = shard_map.owner(0)
    shard_map._owners[0] = (right + 1) % 4
    with pytest.raises(AssertionError, match="memoized owner is stale"):
        service.check_invariants()

    b = GigaBitmap()
    b.radix[4] = 3                         # in place: the mask is not told
    with pytest.raises(AssertionError, match="above mask"):
        b.check_invariants()
    b.radix = dict(b.radix)                # wholesale: the mask follows
    b.check_invariants()


def test_hash_name_stable_and_spread():
    assert hash_name("abc") == hash_name("abc")
    hashes = {hash_name(f"f{i}") & 0xF for i in range(200)}
    assert len(hashes) > 10  # decent low-bit spread


# ------------------------------------------------------------- service storm
def test_cluster_create_and_lookup():
    sim = Simulator()
    service = GigaService(sim, ServiceParams(n_servers=2, split_threshold=5))
    client_state = service.client(0)
    found = {}

    def client():
        for i in range(30):
            yield from service.client_create(client_state, f"file{i}")
        for name in [f"file{i}" for i in range(30)] + ["missing"]:
            found[name], _hops = yield from service.client_lookup(client_state, name)

    sim.spawn(client())
    sim.run()
    service.check_invariants()
    assert all(found[f"file{i}"] for i in range(30))
    assert not found["missing"]
    assert service.counters["splits"] > 0


def test_storm_counts():
    res = run_storm(4, 4, 100, lookups_per_client=0)
    assert res.creates == 400
    assert res.partitions >= 2
    assert res.creates_per_s > 0
    assert res.entries_moved > 0


def test_throughput_scales_with_servers():
    """Fig 7's right panel: creates/sec grows with server count."""
    r1 = run_storm(1, 8, 150, lookups_per_client=0)
    r8 = run_storm(8, 8, 150, lookups_per_client=0)
    assert r8.creates_per_s > 2.0 * r1.creates_per_s


def test_addressing_errors_bounded():
    """Stale clients are corrected within a few hops, and the redirect
    count stays a small fraction of operations (the GIGA+ claim)."""
    res = run_storm(8, 8, 200, lookups_per_client=0)
    assert res.redirects_create > 0          # clients did start stale
    assert res.mean_redirects_create < 0.3   # but corrections are rare overall


def test_single_server_no_addressing_errors():
    res = run_storm(1, 4, 50, lookups_per_client=0)
    assert res.redirects_create == 0
