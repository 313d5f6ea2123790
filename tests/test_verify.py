"""Model-checking tests: the checker itself, then PLFS and GIGA+ protocols."""

import pytest

from repro.giga.mapping import GigaBitmap, hash_name
from repro.plfs.intervalmap import IntervalMap
from repro.verify import InvariantViolation, explore


# ------------------------------------------------------------- the engine
def test_explore_counts_interleavings():
    """Two independent 2-step counters: C(4,2)=6 schedules, one outcome."""

    def inc(i):
        return lambda s: (s[0] + (i == 0), s[1] + (i == 1))

    res = explore(
        (0, 0),
        [[inc(0), inc(0)], [inc(1), inc(1)]],
        fingerprint=lambda s: s,
    )
    assert res.deterministic_outcome
    assert res.terminal_states == {(2, 2)}


def test_explore_detects_race():
    """Classic lost update: read-modify-write without atomicity."""

    def read(pid):
        return lambda s: {**s, f"tmp{pid}": s["x"]}

    def write(pid):
        return lambda s: {**s, "x": s[f"tmp{pid}"] + 1}

    res = explore(
        {"x": 0},
        [[read(0), write(0)], [read(1), write(1)]],
        fingerprint=lambda s: s["x"],
    )
    # some interleavings lose an increment: outcomes {1, 2}
    assert res.terminal_states == {1, 2}
    assert not res.deterministic_outcome


def test_invariant_violation_carries_trace():
    def bump(s):
        return s + 1

    with pytest.raises(InvariantViolation) as exc:
        explore(0, [[bump, bump]], fingerprint=lambda s: s, invariant=lambda s: s < 2)
    assert exc.value.trace == [(0, 0), (0, 1)]


def test_state_budget_enforced():
    ops = [lambda s, i=i: s + (i,) for i in range(6)]
    with pytest.raises(RuntimeError, match="budget"):
        explore((), [ops, ops], fingerprint=lambda s: s, max_states=50)


# ------------------------------------------------------------- PLFS index
def test_plfs_index_interleaving_independent():
    """All interleavings of two writers' index-record arrivals produce the
    same logical file: timestamps, not arrival order, resolve overlaps."""

    # writer A: [0,10) at ts1, [5,15) at ts3; writer B: [3,8) at ts2
    records = {
        0: [(0, 10, 1.0, "A1"), (5, 15, 3.0, "A2")],
        1: [(3, 8, 2.0, "B1")],
    }

    def arrival(writer, idx):
        def op(state):
            entries = state + (records[writer][idx],)
            return entries
        return op

    def render(entries):
        """Replay entries in timestamp order into the interval map."""
        m = IntervalMap()
        for start, end, ts, tag in sorted(entries, key=lambda e: e[2]):
            m.insert(start, end, tag)
        return tuple((s.start, s.end, s.payload) for s in m.query(0, 20))

    res = explore(
        (),
        [[arrival(0, 0), arrival(0, 1)], [arrival(1, 0)]],
        fingerprint=render,
    )
    assert res.deterministic_outcome
    [final] = res.terminal_states
    # A2 (latest) owns [5,15); B1 the remaining [3,5); A1 the prefix
    assert final == ((0, 3, "A1"), (3, 5, "B1"), (5, 15, "A2"))


def test_plfs_arrival_order_would_break_it():
    """Negative control: resolving by *arrival* order (what PLFS avoids)
    is interleaving-dependent — the checker catches the design error."""
    records = {
        0: [(0, 10, "A")],
        1: [(0, 10, "B")],
    }

    def arrival(writer):
        def op(state):
            return state + (records[writer][0],)
        return op

    def render_by_arrival(entries):
        m = IntervalMap()
        for start, end, tag in entries:  # arrival order: WRONG
            m.insert(start, end, tag)
        return tuple((s.start, s.end, s.payload) for s in m.query(0, 20))

    res = explore(
        (),
        [[arrival(0)], [arrival(1)]],
        fingerprint=render_by_arrival,
    )
    assert not res.deterministic_outcome
    assert len(res.terminal_states) == 2


# ------------------------------------------------------------- GIGA+
def _giga_state():
    """Immutable GIGA+ directory state: (radix items, file placements)."""
    b = GigaBitmap()
    return (tuple(sorted(b.radix.items())), ())


def _bitmap_of(state) -> GigaBitmap:
    b = GigaBitmap()
    b.radix = dict(state[0])
    return b


def _giga_insert(name):
    def op(state):
        b = _bitmap_of(state)
        p = b.partition_of(hash_name(name))
        return (state[0], state[1] + ((name, p),))
    return op


def _giga_split(partition):
    def op(state):
        b = _bitmap_of(state)
        if partition not in b.radix:
            return state
        try:
            child = b.split(partition)
        except (ValueError, OverflowError):
            return state
        # server-side: re-home entries of the split partition
        moved = []
        for name, p in state[1]:
            if p == partition and b.partition_of(hash_name(name)) == child:
                moved.append((name, child))
            else:
                moved.append((name, p))
        return (tuple(sorted(b.radix.items())), tuple(moved))
    return op


def test_giga_splits_never_lose_entries():
    """All interleavings of inserts and splits keep every file findable
    in the partition the final bitmap maps it to."""
    names = ["alpha", "beta", "gamma"]

    def invariant(state):
        b = _bitmap_of(state)
        b.check_invariants()
        return all(b.partition_of(hash_name(n)) == p for n, p in state[1])

    res = explore(
        _giga_state(),
        [
            [_giga_insert(n) for n in names],
            [_giga_split(0), _giga_split(1)],
        ],
        fingerprint=lambda s: s,
        invariant=invariant,
    )
    # every schedule ends with all three files placed consistently
    for final in res.terminal_states:
        placed = dict(final[1])
        assert set(placed) == set(names)
    assert res.states_explored > 10
