"""Tests for the on-disk container format and index encoding."""

import pytest

from repro.plfs.container import Container, ContainerError, is_container
from repro.plfs.index import (
    GlobalIndex,
    IndexEntry,
    RECORD_SIZE,
    compact_entries,
    pack_entry,
    read_index_dropping,
)


def test_create_and_detect(tmp_path):
    c = Container.create(tmp_path / "file")
    assert is_container(tmp_path / "file")
    assert not is_container(tmp_path)
    assert c.open_writers() == []


def test_create_idempotent(tmp_path):
    Container.create(tmp_path / "f")
    Container.create(tmp_path / "f")
    assert is_container(tmp_path / "f")


def test_create_over_plain_dir_rejected(tmp_path):
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "junk").touch()
    with pytest.raises(ContainerError):
        Container.create(tmp_path / "d")


def test_open_requires_container(tmp_path):
    with pytest.raises(ContainerError):
        Container.open(tmp_path / "missing")


def test_hostdir_stable_assignment(tmp_path):
    c = Container.create(tmp_path / "f")
    assert c.hostdir_for("rank7") == c.hostdir_for("rank7")
    # two writers can share a hostdir but dropping names differ
    p1 = c.dropping_paths("rank1")
    p2 = c.dropping_paths("rank2")
    assert p1.data_path != p2.data_path


def test_open_writer_tracking(tmp_path):
    c = Container.create(tmp_path / "f")
    c.mark_open("hostA.123")
    c.mark_open("hostB.9")
    assert c.open_writers() == ["hostA.123", "hostB.9"]
    c.mark_closed("hostA.123")
    assert c.open_writers() == ["hostB.9"]
    c.mark_closed("hostB.9")
    c.mark_closed("hostB.9")  # idempotent


def test_meta_droppings_fast_stat(tmp_path):
    c = Container.create(tmp_path / "f")
    c.drop_meta("r0", eof=1000, nbytes=600)
    c.drop_meta("r1", eof=800, nbytes=400)
    assert c.stat_fast() == (1000, 1000)


def test_stat_fast_none_while_open(tmp_path):
    c = Container.create(tmp_path / "f")
    c.mark_open("r0")
    assert c.stat_fast() is None


def test_stat_fast_empty_container(tmp_path):
    c = Container.create(tmp_path / "f")
    assert c.stat_fast() == (0, 0)


def test_iter_droppings_requires_pairs(tmp_path):
    c = Container.create(tmp_path / "f")
    pair = c.dropping_paths("w1")
    pair.index_path.write_bytes(b"")
    with pytest.raises(ContainerError):
        list(c.iter_droppings())  # index without data
    pair.data_path.write_bytes(b"")
    pairs = list(c.iter_droppings())
    assert [p.writer for p in pairs] == ["w1"]


def test_remove(tmp_path):
    c = Container.create(tmp_path / "f")
    c.remove()
    assert not (tmp_path / "f").exists()


# ------------------------------------------------------------- index records
def test_record_roundtrip(tmp_path):
    path = tmp_path / "idx"
    path.write_bytes(
        pack_entry(0, 10, 0, 1.0) + pack_entry(100, 5, 10, 2.0)
    )
    entries = read_index_dropping(path)
    assert entries == [
        IndexEntry(0, 10, 0, 1.0),
        IndexEntry(100, 5, 10, 2.0),
    ]
    assert RECORD_SIZE == 40


def test_truncated_index_rejected(tmp_path):
    path = tmp_path / "idx"
    path.write_bytes(b"\0" * (RECORD_SIZE + 3))
    with pytest.raises(ValueError, match="truncated"):
        read_index_dropping(path)


def test_compaction_merges_contiguous_runs():
    entries = [
        IndexEntry(0, 10, 0, 1.0, 0),
        IndexEntry(10, 10, 10, 2.0, 0),
        IndexEntry(20, 10, 20, 3.0, 0),
        IndexEntry(100, 10, 30, 4.0, 0),   # logical gap: no merge
        IndexEntry(110, 10, 50, 5.0, 0),   # physical gap: no merge
    ]
    out = compact_entries(entries)
    assert [(e.logical_offset, e.length, e.physical_offset) for e in out] == [
        (0, 30, 0), (100, 10, 30), (110, 10, 50),
    ]
    assert out[0].timestamp == 3.0  # merged run keeps latest stamp


def test_compaction_does_not_merge_across_droppings():
    entries = [
        IndexEntry(0, 10, 0, 1.0, 0),
        IndexEntry(10, 10, 10, 2.0, 1),
    ]
    assert len(compact_entries(entries)) == 2


def test_global_index_last_writer_wins(tmp_path):
    # writer A covers [0,100) at t=1; writer B covers [40,60) at t=2
    a = tmp_path / "ia"
    b = tmp_path / "ib"
    a.write_bytes(pack_entry(0, 100, 0, 1.0))
    b.write_bytes(pack_entry(40, 20, 0, 2.0))
    da, db = tmp_path / "da", tmp_path / "db"
    da.write_bytes(bytes(100))
    db.write_bytes(bytes(20))
    gi = GlobalIndex.from_droppings([(da, a), (db, b)])
    assert gi.eof == 100
    segs = gi.lookup(0, 100)
    assert [(s.start, s.end, s.payload.dropping) for s in segs] == [
        (0, 40, 0), (40, 60, 1), (60, 100, 0),
    ]
    # the overwritten middle maps to the start of dropping 1
    assert gi.data_paths[segs[1].payload.dropping] == db
    assert segs[1].payload.physical_offset + segs[1].payload_offset == 0


def test_global_index_read_into_fills_holes_with_zeros(tmp_path):
    idx = tmp_path / "idx"
    data = tmp_path / "data"
    data.write_bytes(b"ABCDE")
    idx.write_bytes(pack_entry(10, 5, 0, 1.0))
    gi = GlobalIndex.from_droppings([(data, idx)])
    out = bytearray(15)
    files = {}
    mapped = gi.read_into(out, 0, files)
    assert mapped == 5
    assert bytes(out) == bytes(10) + b"ABCDE"
    for f in files.values():
        f.close()


def test_open_and_read_back_build_no_index_objects(tmp_path, monkeypatch):
    """Opening a container and reading it back never constructs an
    IndexEntry or a Segment; lookup() still hands out the same objects."""
    from repro.plfs.filehandle import PlfsReadHandle, PlfsWriteHandle, WriteClock
    from repro.plfs.intervalmap import Segment

    n_writers, n_records, record = 8, 10_000, 64
    c = Container.create(tmp_path / "ckpt")
    clock = WriteClock()
    handles = [PlfsWriteHandle(c, f"w{i}", clock) for i in range(n_writers)]
    for k in range(n_records):      # N-1 strided: record k belongs to writer k % n
        handles[k % n_writers].write(bytes([k % 251]) * record, k * record)
    for h in handles:
        h.close()

    built = {IndexEntry: 0, Segment: 0}
    for cls in built:
        def counted(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)

    with PlfsReadHandle(c) as reader:
        assert reader.index.n_entries == n_records
        chunk = 100 * record
        for pos in range(0, reader.size, chunk):
            got = reader.read(pos, chunk)
            assert got == b"".join(
                bytes([k % 251]) * record for k in range(pos // record, (pos + chunk) // record)
            )
        assert built == {IndexEntry: 0, Segment: 0}

        droppings = [dp.writer for dp in c.iter_droppings()]
        segs = reader.index.lookup(5 * record + 3, 2 * record)
        assert built == {IndexEntry: 3, Segment: 3}
        assert segs == [
            Segment(
                max(k * record, 5 * record + 3), min((k + 1) * record, 7 * record + 3),
                IndexEntry(k * record, record, (k // n_writers) * record, float(k + 1),
                           droppings.index(f"w{k % n_writers}")),
                payload_offset=3 if k == 5 else 0,
            )
            for k in (5, 6, 7)
        ]
