"""Tests for the PLFS follow-on features: compression, write batching,
small-file packing, index pattern compression."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.plfs import Plfs
from repro.plfs.container import Container
from repro.plfs.index import IndexEntry
from repro.plfs.indexopt import detect_patterns
from repro.plfs.smallfile import (
    SmallFileReader,
    SmallFileWriter,
    backing_file_count,
)
from repro.plfs.filehandle import WriteClock


@pytest.fixture
def fs(tmp_path):
    return Plfs(tmp_path / "mnt")


# ------------------------------------------------------------- compression
def test_compressed_roundtrip(fs):
    fs.create("/z")
    payload = b"A" * 10_000 + b"B" * 10_000  # highly compressible
    with fs.open_write("/z", create=False, compress=True) as h:
        h.write(payload, 0)
        ratio = h.compression_ratio()
    assert ratio > 5.0
    assert fs.read_file("/z") == payload


def test_compressed_partial_reads(fs):
    fs.create("/z")
    rng = np.random.default_rng(0)
    payload = bytes(rng.integers(0, 4, size=5000, dtype=np.uint8))  # compressible
    with fs.open_write("/z", create=False, compress=True) as h:
        h.write(payload, 100)
    with fs.open_read("/z") as r:
        assert r.read(100, 5000) == payload
        assert r.read(600, 50) == payload[500:550]
        assert r.read(0, 100) == bytes(100)  # leading hole


def test_incompressible_payload_stored_raw(fs):
    fs.create("/z")
    rng = np.random.default_rng(1)
    payload = bytes(rng.integers(0, 256, size=4096, dtype=np.uint8))
    with fs.open_write("/z", create=False, compress=True) as h:
        h.write(payload, 0)
        assert h.compression_ratio() == pytest.approx(1.0)
    assert fs.read_file("/z") == payload


def test_compressed_overwrite_semantics(fs):
    fs.create("/z")
    h1 = fs.open_write("/z", writer="a", create=False, compress=True)
    h2 = fs.open_write("/z", writer="b", create=False, compress=True)
    h1.write(b"x" * 1000, 0)
    h2.write(b"y" * 100, 450)
    h1.close()
    h2.close()
    data = fs.read_file("/z")
    assert data[:450] == b"x" * 450
    assert data[450:550] == b"y" * 100
    assert data[550:] == b"x" * 450


def test_mixed_compressed_and_plain_writers(fs):
    fs.create("/m")
    with fs.open_write("/m", writer="plain", create=False) as h:
        h.write(b"P" * 500, 0)
    with fs.open_write("/m", writer="zip", create=False, compress=True) as h:
        h.write(b"Z" * 500, 500)
    assert fs.read_file("/m") == b"P" * 500 + b"Z" * 500


@given(
    writes=st.lists(
        st.tuples(st.integers(0, 300), st.binary(min_size=1, max_size=80)),
        min_size=1, max_size=25,
    )
)
@settings(max_examples=40, deadline=None)
def test_compressed_matches_shadow(tmp_path_factory, writes):
    root = tmp_path_factory.mktemp("plfsz")
    fs = Plfs(root)
    fs.create("/f")
    shadow = bytearray()
    with fs.open_write("/f", create=False, compress=True) as h:
        for off, data in writes:
            h.write(data, off)
            end = off + len(data)
            if end > len(shadow):
                shadow.extend(bytes(end - len(shadow)))
            shadow[off:end] = data
    assert fs.read_file("/f") == bytes(shadow)


# ------------------------------------------------------------- batching
def test_data_buffering_reduces_backing_writes(fs):
    fs.create("/b")
    with fs.open_write("/b", create=False, data_buffer_bytes=64 * 1024) as h:
        for i in range(256):
            h.write(b"D" * 256, i * 256)
        flushes_batched = h.data_flushes
    assert fs.read_file("/b") == b"D" * (256 * 256)
    fs.create("/u")
    with fs.open_write("/u", create=False) as h:
        for i in range(256):
            h.write(b"D" * 256, i * 256)
        flushes_unbuffered = h.data_flushes
    assert flushes_batched < flushes_unbuffered / 10


def test_buffered_sync_makes_data_visible(fs):
    fs.create("/b")
    h = fs.open_write("/b", create=False, data_buffer_bytes=1 << 20)
    h.write(b"early", 0)
    h.sync()
    with fs.open_read("/b") as r:
        assert r.read(0, 5) == b"early"
    h.close()


def test_negative_buffer_rejected(fs):
    fs.create("/b")
    with pytest.raises(ValueError):
        fs.open_write("/b", create=False, data_buffer_bytes=-1)


# ------------------------------------------------------------- small files
def test_smallfile_pack_and_read(tmp_path):
    c = Container.create(tmp_path / "packed")
    clock = WriteClock()
    with SmallFileWriter(c, "w0", clock) as w:
        for i in range(100):
            w.create(f"tiny.{i}", f"payload-{i}".encode())
    r = SmallFileReader(c)
    assert len(r.names()) == 100
    assert r.read("tiny.42") == b"payload-42"
    assert r.stat("tiny.7")["size"] == len(b"payload-7")


def test_smallfile_remove_tombstone(tmp_path):
    c = Container.create(tmp_path / "packed")
    clock = WriteClock()
    with SmallFileWriter(c, "w0", clock) as w:
        w.create("a", b"1")
        w.create("b", b"2")
        w.remove("a")
    r = SmallFileReader(c)
    assert r.names() == ["b"]
    assert not r.exists("a")
    with pytest.raises(FileNotFoundError):
        r.read("a")


def test_smallfile_multiwriter_merge(tmp_path):
    c = Container.create(tmp_path / "packed")
    clock = WriteClock()
    w0 = SmallFileWriter(c, "w0", clock)
    w1 = SmallFileWriter(c, "w1", clock)
    w0.create("shared", b"old")
    w1.create("shared", b"new")  # later timestamp wins
    w0.create("only0", b"x")
    w0.close()
    w1.close()
    r = SmallFileReader(c)
    assert r.read("shared") == b"new"
    assert r.read("only0") == b"x"


def test_smallfile_backing_files_scale_with_writers(tmp_path):
    """The packing win: 400 logical files, O(writers) backing files."""
    c = Container.create(tmp_path / "packed")
    clock = WriteClock()
    for wid in range(4):
        with SmallFileWriter(c, f"w{wid}", clock) as w:
            for i in range(100):
                w.create(f"f.{wid}.{i}", b"data")
    assert len(SmallFileReader(c).names()) == 400
    assert backing_file_count(c) < 20


def test_smallfile_name_validation(tmp_path):
    c = Container.create(tmp_path / "packed")
    with SmallFileWriter(c, "w0") as w:
        with pytest.raises(ValueError):
            w.create("bad\nname", b"x")
        with pytest.raises(ValueError):
            w.create("", b"x")


# ------------------------------------------------------------- index patterns
def _strided_entries(n, base=0, stride=320, length=64, phys0=0, drop=0):
    return [
        IndexEntry(base + i * stride, length, phys0 + i * length, float(i + 1), drop)
        for i in range(n)
    ]


def test_detect_patterns_strided_run():
    entries = _strided_entries(100)
    runs, leftovers = detect_patterns(entries)
    assert len(runs) == 1 and not leftovers
    run = runs[0]
    assert (run.base, run.stride, run.length, run.count) == (0, 320, 64, 100)


def test_pattern_expand_roundtrip():
    """A run's formula reproduces every record it replaced."""
    entries = _strided_entries(50)
    runs, leftovers = detect_patterns(entries)
    expanded = [
        IndexEntry(r.base + i * r.stride, r.length, r.physical_base + i * r.length,
                   r.first_timestamp + i * r.timestamp_step, r.dropping)
        for r in runs for i in range(r.count)
    ]
    assert sorted(expanded + leftovers, key=lambda e: e.timestamp) == entries


def test_detect_patterns_irregular_records_left_over():
    entries = _strided_entries(5) + [IndexEntry(10_000, 7, 320 * 5, 99.0)]
    runs, leftovers = detect_patterns(entries)
    assert len(runs) == 1
    assert len(leftovers) == 1


def test_detect_patterns_short_runs_not_compressed():
    entries = _strided_entries(2)
    runs, leftovers = detect_patterns(entries, min_run=3)
    assert not runs and len(leftovers) == 2
