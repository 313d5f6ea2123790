"""Property suite for the sharded GIGA+ metadata mapping.

Three load-bearing claims of :mod:`repro.giga.service`, checked over
hypothesis-generated split histories and memberships rather than on the
happy path:

1. **Exactly one owner** — at any split depth, every key addresses
   exactly one existing partition (its hash-suffix bucket) and the ring
   names exactly one online server for it.
2. **Split monotonicity** — a split moves keys only from the split
   partition to its new child; every other key's (partition, owner)
   assignment is untouched.
3. **Bounded stale correction** — a client starting from *any* stale
   bitmap replica and *any* stale map snapshot reaches the true owner in
   at most ``log2(n_shards)`` redirects, because a redirect reply merges
   the authoritative bitmap (the GIGA+ stale-bitmap hint) and the
   current map — no global invalidation needed.
4. **Caches never diverge from recomputation** — the bitmap's cached
   mask, the map's memoized owners and the redirect hint's copy give
   exactly what the full-width walk, a fresh ring and the max-join give.
"""

import copy
import math

from hypothesis import given, settings, strategies as st

from repro.giga import GigaBitmap, MAX_RADIX, ShardMap, hash_name

#: random split histories: each int picks the next partition to split
SPLIT_HISTORIES = st.lists(st.integers(0, 60), min_size=0, max_size=40)
SERVER_COUNTS = st.integers(1, 12)


def build_bitmap(split_choices):
    """A GigaBitmap grown by a hypothesis-chosen split sequence."""
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
    return b


def sample_hashes(n=80):
    return [hash_name(f"prop.{i}") for i in range(n)]


# ---------------------------------------------------------------- 1 ----
@given(SPLIT_HISTORIES, SERVER_COUNTS)
@settings(max_examples=60, deadline=None)
def test_every_key_has_exactly_one_owner(split_choices, n_servers):
    """At any split depth each hash lands in exactly one partition — the
    unique existing index matching its low-bit suffix — and the ring
    resolves that partition to exactly one server."""
    b = build_bitmap(split_choices)
    m = ShardMap(range(n_servers))
    for h in sample_hashes():
        matches = [
            p for p, r in b.radix.items() if (h & ((1 << r) - 1)) == p
        ]
        assert len(matches) == 1
        assert matches[0] == b.partition_of(h)
        owner = m.owner(matches[0])
        assert owner == m.owner(matches[0])        # deterministic
        assert owner in m.servers


# ---------------------------------------------------------------- 2 ----
@given(SPLIT_HISTORIES, SERVER_COUNTS, st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_splits_only_move_keys_to_the_new_shard(split_choices, n_servers, pick):
    """One more split changes only keys of the split partition, and every
    changed key lands exactly in the newly created child."""
    b = build_bitmap(split_choices)
    m = ShardMap(range(n_servers))
    hashes = sample_hashes()
    before = {h: (b.partition_of(h), m.owner(b.partition_of(h))) for h in hashes}

    parts = b.partitions()
    target = parts[pick % len(parts)]
    if b.radix[target] >= MAX_RADIX or (target | (1 << b.radix[target])) in b:
        return  # nothing splittable here; trivially monotone
    child = b.split(target)

    for h in hashes:
        now_p = b.partition_of(h)
        was_p, was_owner = before[h]
        if now_p == was_p:
            assert m.owner(now_p) == was_owner     # untouched assignment
        else:
            assert was_p == target                 # only the split partition
            assert now_p == child                  # ...sheds keys, to its child


# ---------------------------------------------------------------- 3 ----
@given(
    SPLIT_HISTORIES,
    st.integers(2, 12),
    st.integers(0, 30),    # how stale the client's bitmap replica is
    st.integers(0, 3),     # how many membership changes the client missed
)
@settings(max_examples=60, deadline=None)
def test_stale_correction_converges_within_log2_shards(
    split_choices, n_servers, stale_at, missed_changes
):
    """From any stale (bitmap, map) pair, redirect correction reaches the
    true owner in ≤ log2(n_shards) hops: each redirect reply carries the
    full authoritative bitmap and the current map."""
    # authoritative state: final bitmap + current map after churn
    auth = GigaBitmap()
    client_bitmap = None
    for i, choice in enumerate(split_choices):
        if i == stale_at:
            client_bitmap = copy.deepcopy(auth)            # replica frozen mid-history
        parts = auth.partitions()
        target = parts[choice % len(parts)]
        if auth.radix[target] >= MAX_RADIX:
            continue
        try:
            auth.split(target)
        except ValueError:
            continue
    if client_bitmap is None:
        client_bitmap = copy.deepcopy(auth)

    current = ShardMap(range(n_servers))
    client_map = current
    for k in range(missed_changes):                # client missed fail/rejoin churn
        victim = current.servers[k % len(current.servers)]
        if len(current) > 1:
            current = current.without(victim).with_server(victim)

    n_shards = max(1, len(auth))
    bound = max(1, math.ceil(math.log2(n_shards)))
    for h in sample_hashes(40):
        cb = copy.deepcopy(client_bitmap)
        cmap = client_map
        redirects = 0
        while True:
            target = cmap.owner(cb.partition_of(h))
            true_owner = current.owner(auth.partition_of(h))
            if target == true_owner:
                break
            redirects += 1                         # redirect reply: full hints
            cb.merge_from(auth)
            cmap = current
            assert redirects <= bound, (
                f"{redirects} redirects for hash {h:#x} exceeds "
                f"log2({n_shards}) = {bound}"
            )


# ----------------------------------------------------- ring churn ------
@given(st.integers(2, 12), SPLIT_HISTORIES)
@settings(max_examples=40, deadline=None)
def test_failover_moves_only_the_dead_servers_shards(n_servers, split_choices):
    """Dropping one server off the ring reassigns only the partitions it
    owned; everything else keeps its owner (consistent hashing's point)."""
    b = build_bitmap(split_choices)
    m = ShardMap(range(n_servers))
    victim = m.owner(b.partitions()[0])
    m2 = m.without(victim)
    assert m2.version == m.version + 1
    for p in b.partitions():
        if m.owner(p) == victim:
            assert m2.owner(p) != victim           # failed over
        else:
            assert m2.owner(p) == m.owner(p)       # undisturbed


# ------------------------------------------------------------ 4 ----
def full_width_partition_of(radix, h):
    """The reference walk: the hash's low ``MAX_RADIX`` bits, top set bit
    cleared until the value names an existing partition."""
    i = h & ((1 << MAX_RADIX) - 1)
    while i and i not in radix:
        i &= ~(1 << (i.bit_length() - 1))
    return i


def grow(b, choice):
    """One split of ``b`` picked by ``choice``; skipped when impossible."""
    parts = b.partitions()
    target = parts[choice % len(parts)]
    try:
        b.split(target)
    except (ValueError, OverflowError):
        pass


BITMAP_OPS = st.lists(
    st.tuples(
        st.sampled_from(["split", "grow_other", "merge", "copy", "deepcopy", "assign"]),
        st.integers(0, 60),
    ),
    max_size=40,
)
HASHES = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=30)


@given(BITMAP_OPS, HASHES)
@settings(max_examples=80, deadline=None)
def test_cached_mask_walk_equals_the_full_width_walk(ops, hashes):
    """Whatever mix of split, merge_from, copy, deepcopy and wholesale
    ``radix =`` assignment built the bitmap, ``partition_of`` finds the
    partition the full-width walk finds."""
    b = GigaBitmap()
    other = GigaBitmap()                   # a second history to join in
    history = [dict(b.radix)]
    for op, k in ops:
        if op == "split":
            grow(b, k)
        elif op == "grow_other":
            grow(other, k)
            history.append(dict(other.radix))
        elif op == "merge":
            b.merge_from(other)
        elif op == "copy":
            b = b.copy()
        elif op == "deepcopy":
            b = copy.deepcopy(b)
        else:  # wholesale assignment, shallower or deeper than now
            b.radix = dict(history[k % len(history)])
        history.append(dict(b.radix))
        b.check_invariants()
        for h in hashes:
            assert b.partition_of(h) == full_width_partition_of(b.radix, h)


@given(
    st.integers(1, 12),
    st.integers(1, 16),
    st.lists(st.integers(0, 11), max_size=8),
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 2000)), min_size=1, max_size=80),
)
@settings(max_examples=60, deadline=None)
def test_memoized_owner_equals_a_fresh_ring(n_servers, vnodes, churn, queries):
    """Along a ``without``/``with_server`` chain, owners queried in random
    order (repeats hit the memo) equal a fresh map's, for every partition."""
    m = ShardMap(range(n_servers), vnodes)
    chain = [m]
    for s in churn:
        if s in m.servers and len(m) > 1:
            m = m.without(s)
        elif s not in m.servers:
            m = m.with_server(s)
        chain.append(m)
    for i, partition in queries:
        chain[i % len(chain)].owner(partition)
    partitions = {partition for _, partition in queries}
    for m in chain:
        fresh = ShardMap(m.servers, m.vnodes)
        for partition in partitions:
            assert m.owner(partition) == fresh.owner(partition)
            assert m.owner(partition) == m.ring_owner(partition)


@given(SPLIT_HISTORIES, HASHES)
@settings(max_examples=60, deadline=None)
def test_hint_copy_equals_the_max_join(split_choices, hashes):
    """A replica frozen at any point of the authority's history, given the
    redirect hint, equals the max-join of that replica with the authority,
    radix for radix; the copy is the client's own."""
    auth = GigaBitmap()
    replicas = [copy.deepcopy(auth)]
    for choice in split_choices:
        grow(auth, choice)
        replicas.append(copy.deepcopy(auth))
    for replica in replicas:
        joined = copy.deepcopy(replica)
        joined.merge_from(auth)
        hinted = auth.copy()
        assert hinted.radix == joined.radix
        for h in hashes:
            assert hinted.partition_of(h) == joined.partition_of(h)
    before = dict(hinted.radix)
    grow(auth, 0)
    assert hinted.radix == before          # later authority splits: not shared
