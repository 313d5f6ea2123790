"""The real PLFS data path: data reaches a dropping before the index that
points at it, and reads gather each dropping's contiguous pieces into one
``preadv`` per run."""

import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.plfs.container import Container
from repro.plfs.filehandle import PlfsReadHandle, PlfsWriteHandle, WriteClock
from repro.plfs.index import IOV_MAX


def _count_preadv(monkeypatch) -> list[int]:
    """Record the number of buffers of every ``os.preadv`` call."""
    calls, real = [], os.preadv

    def preadv(fd, buffers, offset):
        calls.append(len(buffers))
        return real(fd, buffers, offset)

    monkeypatch.setattr(os, "preadv", preadv)
    return calls


def test_index_batch_never_reaches_disk_before_its_data(tmp_path):
    """The 1,024th record fills the index batch; the batch is written only
    after every data byte it points at, so an open-for-read with the writer
    still open finds all of them."""
    c = Container.create(tmp_path / "f")
    h = PlfsWriteHandle(c, "w0", WriteClock())
    for k in range(1024):
        h.write(bytes([k % 251]) * 4096, k * 4096)
    with PlfsReadHandle(c) as r:
        assert r.size == 1024 * 4096
        assert r.read(1023 * 4096, 4096) == bytes([1023 % 251]) * 4096
    h.close()


def test_strided_read_is_one_preadv_per_dropping(tmp_path, monkeypatch):
    c = Container.create(tmp_path / "f")
    clock = WriteClock()
    handles = [PlfsWriteHandle(c, f"w{i}", clock) for i in range(4)]
    for k in range(64):
        handles[k % 4].write(bytes([k]) * 100, 100 * k)
    for h in handles:
        h.close()
    with PlfsReadHandle(c) as r:
        calls = _count_preadv(monkeypatch)
        assert r.read(0, 6400) == b"".join(bytes([k]) * 100 for k in range(64))
        assert calls == [16] * 4
        calls.clear()
        assert r.read(150, 100) == bytes([1]) * 50 + bytes([2]) * 50
        assert calls == [1, 1]


def test_a_run_longer_than_iov_max_is_split(tmp_path, monkeypatch):
    """Writer a's 2,100 one-byte records are one physical run under a
    whole-file read; no ``preadv`` may take more than IOV_MAX buffers."""
    assert IOV_MAX < 2100
    c = Container.create(tmp_path / "f")
    clock = WriteClock()
    a, b = PlfsWriteHandle(c, "a", clock), PlfsWriteHandle(c, "b", clock)
    want = bytearray(4200)
    for k in range(2100):
        want[2 * k] = k % 256
        want[2 * k + 1] = 255 - k % 256
        a.write(bytes([k % 256]), 2 * k)
        b.write(bytes([255 - k % 256]), 2 * k + 1)
    a.close()
    b.close()
    with PlfsReadHandle(c) as r:
        calls = _count_preadv(monkeypatch)
        assert r.read(0, 4200) == bytes(want)
    assert max(calls) == IOV_MAX
    assert sum(calls) == 4200
    assert len(calls) == 2 * -(-2100 // IOV_MAX)


def test_truncated_data_dropping_names_it(tmp_path):
    c = Container.create(tmp_path / "f")
    clock = WriteClock()
    handles = [PlfsWriteHandle(c, f"w{i}", clock) for i in range(2)]
    for k in range(8):
        handles[k % 2].write(bytes([k + 1]) * 64, 64 * k)
    for h in handles:
        h.close()
    data = c.dropping_paths("w1").data_path
    os.truncate(data, 100)
    with PlfsReadHandle(c) as r:
        assert r.read(0, 64) == bytes([1]) * 64    # w0's pieces are intact
        msg = rf"short read from {re.escape(str(data))}: wanted 256, got 100"
        with pytest.raises(IOError, match=msg):
            r.read(0, 512)


@st.composite
def containers(draw):
    """Writers, the writes in clock order and the reads to check.

    An N-1 strided checkpoint is followed by overlapping rewrites; a
    payload repeats each byte ``rep`` times, so a compressing writer
    stores some records compressed and keeps others raw.
    """
    n_writers = draw(st.integers(1, 4))
    compress = draw(st.lists(st.booleans(), min_size=n_writers, max_size=n_writers))
    record = draw(st.integers(1, 48))
    writes = [
        (k % n_writers, record * k, record, draw(st.integers(1, 16)))
        for k in range(draw(st.integers(0, 24)))
    ]
    extent = record * len(writes)
    for _ in range(draw(st.integers(0, 8))):
        writes.append((
            draw(st.integers(0, n_writers - 1)), draw(st.integers(0, extent + 32)),
            draw(st.integers(1, 3 * record)), draw(st.integers(1, 16)),
        ))
    reads = draw(st.lists(
        st.tuples(st.integers(0, extent + 64), st.integers(0, extent + 64)), max_size=6,
    ))
    return compress, writes, reads, draw(st.booleans())


@given(containers())
@settings(max_examples=60, deadline=None)
def test_reads_match_a_shadow_file(tmp_path_factory, case):
    compress, writes, reads, compact = case
    c = Container.create(tmp_path_factory.mktemp("shadow") / "f")
    clock = WriteClock()
    handles = [
        PlfsWriteHandle(c, f"w{i}", clock, compress=z) for i, z in enumerate(compress)
    ]
    shadow = bytearray()
    for i, (writer, off, n, rep) in enumerate(writes):
        data = bytes((i * 31 + j // rep) % 256 for j in range(n))
        handles[writer].write(data, off)
        shadow.extend(bytes(max(0, off + n - len(shadow))))
        shadow[off:off + n] = data
    for h in handles:
        h.close()
    with PlfsReadHandle(c, compact_index=compact) as r:
        assert r.size == len(shadow)
        assert r.read(0, r.size) == bytes(shadow)
        for off, n in reads:
            assert r.read(off, n) == bytes(shadow[off:off + n])
