"""Unit + property tests for the last-writer-wins interval map."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.plfs.intervalmap import IntervalMap, Segment


def test_empty_map():
    m = IntervalMap()
    assert len(m) == 0
    assert m.extent == 0
    assert m.query(0, 100) == []
    assert m.payload_at(5) is None


def test_single_insert_and_query():
    m = IntervalMap()
    m.insert(10, 20, "a")
    assert m.extent == 20
    assert m.covered_bytes() == 10
    [seg] = m.query(0, 100)
    assert (seg.start, seg.end, seg.payload, seg.payload_offset) == (10, 20, "a", 0)


def test_query_clips_to_range():
    m = IntervalMap()
    m.insert(0, 100, "a")
    [seg] = m.query(30, 40)
    assert (seg.start, seg.end) == (30, 40)
    assert seg.payload_offset == 30


def test_later_insert_overwrites_middle():
    m = IntervalMap()
    m.insert(0, 100, "old")
    m.insert(40, 60, "new")
    segs = m.query(0, 100)
    assert [(s.start, s.end, s.payload) for s in segs] == [
        (0, 40, "old"), (40, 60, "new"), (60, 100, "old"),
    ]
    # right remnant's payload_offset accounts for the cut
    assert segs[2].payload_offset == 60


def test_overwrite_exact():
    m = IntervalMap()
    m.insert(5, 10, "a")
    m.insert(5, 10, "b")
    [seg] = m.query(0, 20)
    assert seg.payload == "b"
    assert len(m) == 1


def test_overwrite_spanning_many():
    m = IntervalMap()
    for i in range(10):
        m.insert(i * 10, i * 10 + 10, f"s{i}")
    m.insert(15, 85, "big")
    segs = m.query(0, 100)
    payloads = [s.payload for s in segs]
    assert payloads == ["s0", "s1", "big", "s8", "s9"]
    m.check_invariants()


def test_holes_absent_from_query():
    m = IntervalMap()
    m.insert(0, 10, "a")
    m.insert(20, 30, "b")
    segs = m.query(0, 30)
    assert [(s.start, s.end) for s in segs] == [(0, 10), (20, 30)]
    assert m.payload_at(15) is None


def test_empty_insert_ignored():
    m = IntervalMap()
    m.insert(5, 5, "x")
    assert len(m) == 0


def test_segment_rejects_empty():
    with pytest.raises(ValueError):
        Segment(5, 5, None)


@st.composite
def insert_sequences(draw):
    n = draw(st.integers(1, 40))
    ops = []
    for _ in range(n):
        start = draw(st.integers(0, 300))
        length = draw(st.integers(1, 60))
        ops.append((start, start + length))
    return ops


@given(insert_sequences())
@settings(max_examples=120, deadline=None)
def test_matches_bruteforce_shadow(ops):
    """The map agrees byte-for-byte with a painted array shadow model."""
    m = IntervalMap()
    shadow = [-1] * 400
    for i, (start, end) in enumerate(ops):
        m.insert(start, end, i)
        for b in range(start, min(end, 400)):
            shadow[b] = i
    m.check_invariants()
    # reconstruct per-byte payload from map queries
    recon = [-1] * 400
    for seg in m.query(0, 400):
        for b in range(seg.start, min(seg.end, 400)):
            recon[b] = seg.payload
    assert recon == shadow
    # payload_offset property: byte b inside payload i must map to the
    # offset of b within the original insert
    for seg in m.query(0, 400):
        start, end = ops[seg.payload]
        assert seg.payload_offset == seg.start - start


@given(insert_sequences(), st.integers(0, 300), st.integers(1, 100))
@settings(max_examples=80, deadline=None)
def test_query_equals_full_scan(ops, qstart, qlen):
    m = IntervalMap()
    for i, (start, end) in enumerate(ops):
        m.insert(start, end, i)
    segs = m.query(qstart, qstart + qlen)
    # segments disjoint, sorted, inside the query
    for a, b in zip(segs, segs[1:]):
        assert a.end <= b.start
    for s in segs:
        assert qstart <= s.start < s.end <= qstart + qlen
    # covered bytes match covered bytes of a full query restricted
    full = m.query(0, 500)
    expect = sum(
        max(0, min(s.end, qstart + qlen) - max(s.start, qstart)) for s in full
    )
    assert sum(s.length for s in segs) == expect


# ------------------------------------------------------------- columns
def test_load_disjoint_fills_an_empty_map():
    m = IntervalMap()
    m.load_disjoint([0, 10, 25], [10, 20, 30], ["a", "b", "c"])
    m.check_invariants()
    assert [(s.start, s.end, s.payload, s.payload_offset) for s in m] == [
        (0, 10, "a", 0), (10, 20, "b", 0), (25, 30, "c", 0),
    ]
    assert (len(m), m.extent, m.covered_bytes()) == (3, 30, 25)
    m.insert(5, 27, "d")      # later inserts clip bulk-loaded segments as usual
    assert [(s.start, s.end, s.payload, s.payload_offset) for s in m.query(0, 30)] == [
        (0, 5, "a", 0), (5, 27, "d", 0), (27, 30, "c", 2),
    ]


@pytest.mark.parametrize("starts, ends, why", [
    ([10, 0], [20, 5], "unsorted"),
    ([0, 5], [10, 15], "overlap"),
    ([0, 0], [10, 10], "overlap"),
    ([0, 10], [10, 10], "empty"),
    ([0, 20], [10, 15], "empty"),
    ([0, 10], [10], "length"),
])
def test_load_disjoint_rejects_bad_ranges(starts, ends, why):
    m = IntervalMap()
    with pytest.raises(ValueError, match=why):
        m.load_disjoint(starts, ends, ["a", "b"])
    assert len(m) == 0


def test_load_disjoint_rejects_a_non_empty_map():
    m = IntervalMap()
    m.insert(0, 1, "x")
    with pytest.raises(ValueError, match="empty map"):
        m.load_disjoint([5], [6], ["a"])


@given(insert_sequences())
@settings(max_examples=80, deadline=None)
def test_load_disjoint_commutes_with_inserts(ops):
    """Bulk-loading the ranges that overlap no other range and inserting the
    rest in order gives the map that inserting every range in order gives."""
    alone = [
        i for i, (s, e) in enumerate(ops)
        if not any(s < e2 and s2 < e for j, (s2, e2) in enumerate(ops) if j != i)
    ]
    alone.sort(key=lambda i: ops[i])
    bulk, plain = IntervalMap(), IntervalMap()
    bulk.load_disjoint([ops[i][0] for i in alone], [ops[i][1] for i in alone], alone)
    for i, (start, end) in enumerate(ops):
        plain.insert(start, end, i)
        if i not in alone:
            bulk.insert(start, end, i)
    bulk.check_invariants()
    assert list(bulk) == list(plain)


@given(insert_sequences(), st.integers(0, 300), st.integers(0, 100))
@settings(max_examples=80, deadline=None)
def test_pieces_are_query_without_the_objects(ops, qstart, qlen):
    m = IntervalMap()
    for i, (start, end) in enumerate(ops):
        m.insert(start, end, i)
    assert [Segment(*p) for p in m.pieces(qstart, qstart + qlen)] == m.query(qstart, qstart + qlen)


@pytest.mark.parametrize("column", ["_starts", "_ends", "_payloads", "_offsets"])
def test_check_invariants_covers_every_column(column):
    m = IntervalMap()
    m.load_disjoint([0, 10], [10, 20], ["a", "b"])
    getattr(m, column).pop()
    with pytest.raises(AssertionError):
        m.check_invariants()


def test_check_invariants_catches_bad_column_values():
    for column, value in [("_ends", 0), ("_starts", 15), ("_offsets", -1)]:
        m = IntervalMap()
        m.load_disjoint([0, 10], [10, 20], ["a", "b"])
        getattr(m, column)[0] = value
        with pytest.raises(AssertionError):
            m.check_invariants()
