"""Failure-injection and robustness tests: corrupt containers, truncated
indices, and cross-subsystem integration checks."""

import pytest

from repro.plfs import Plfs
from repro.plfs.container import Container, ContainerError
from repro.plfs.filehandle import PlfsReadHandle
from repro.plfs.index import pack_entry


@pytest.fixture
def fs(tmp_path):
    return Plfs(tmp_path / "mnt")


def _container_of(fs, path):
    return Container.open(fs._resolve(path))


# ------------------------------------------------------------- PLFS damage
def test_truncated_index_dropping_detected(fs):
    fs.write_file("/f", b"hello world")
    c = _container_of(fs, "/f")
    [pair] = list(c.iter_droppings())
    raw = pair.index_path.read_bytes()
    pair.index_path.write_bytes(raw[:-7])  # tear mid-record
    with pytest.raises(ValueError, match="truncated"):
        fs.open_read("/f")


def test_missing_data_dropping_detected(fs):
    fs.write_file("/f", b"payload")
    c = _container_of(fs, "/f")
    [pair] = list(c.iter_droppings())
    pair.data_path.unlink()
    with pytest.raises(ContainerError, match="without data dropping"):
        fs.open_read("/f")


def test_short_data_dropping_detected_at_read(fs):
    fs.write_file("/f", b"X" * 1000)
    c = _container_of(fs, "/f")
    [pair] = list(c.iter_droppings())
    pair.data_path.write_bytes(b"X" * 100)  # lost the tail
    rh = fs.open_read("/f")
    with pytest.raises(IOError, match="short read"):
        rh.read(0, 1000)
    rh.close()


def test_index_pointing_past_data_detected(fs, tmp_path):
    c = Container.create(tmp_path / "broken")
    pair = c.dropping_paths("w0")
    pair.data_path.write_bytes(b"tiny")
    pair.index_path.write_bytes(pack_entry(0, 5000, 0, 1.0))
    rh = PlfsReadHandle(c)
    with pytest.raises(IOError):
        rh.read(0, 5000)


def test_marker_removal_unmounts_container(fs):
    fs.write_file("/f", b"z")
    (fs._resolve("/f") / ".plfsaccess").unlink()
    assert not fs.exists("/f")
    with pytest.raises(FileNotFoundError):
        fs.read_file("/f")


def test_zero_length_index_records_ignored(fs, tmp_path):
    c = Container.create(tmp_path / "weird")
    pair = c.dropping_paths("w0")
    pair.data_path.write_bytes(b"abc")
    pair.index_path.write_bytes(
        pack_entry(0, 0, 0, 1.0) + pack_entry(0, 3, 0, 2.0)
    )
    rh = PlfsReadHandle(c)
    assert rh.read(0, 3) == b"abc"
    assert rh.index.n_entries == 1
    rh.close()


def test_corrupt_compressed_blob_detected(fs):
    fs.create("/z")
    with fs.open_write("/z", create=False, compress=True) as h:
        h.write(b"A" * 10_000, 0)
    c = _container_of(fs, "/z")
    [pair] = list(c.iter_droppings())
    blob = bytearray(pair.data_path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    pair.data_path.write_bytes(bytes(blob))
    rh = fs.open_read("/z")
    with pytest.raises(Exception):  # zlib error or length mismatch
        rh.read(0, 10_000)
    rh.close()


# ------------------------------------------------------------- integration
def test_full_stack_checkpoint_trace_flatten(fs, tmp_path):
    """PLFS write -> trace -> classify -> flatten -> byte equality."""
    import itertools

    from repro.plfs import flatten
    from repro.tracing import TraceLog, TracingWriteHandle, classify_pattern

    fs.create("/app")
    log = TraceLog()
    clock = itertools.count()
    handles = [
        TracingWriteHandle(
            fs.open_write("/app", writer=f"r{r}", create=False),
            log, rank=r, path="/app", clock=clock,
        )
        for r in range(4)
    ]
    for s in range(6):
        for r, h in enumerate(handles):
            h.write(bytes([r + 1]) * 100, (s * 4 + r) * 100)
    for h in handles:
        h.close()
    assert classify_pattern(log)["label"] == "n1-strided"
    out = tmp_path / "flat"
    flatten(fs._resolve("/app"), out)
    assert out.read_bytes() == fs.read_file("/app")


def test_writeclock_thread_safety():
    import threading

    from repro.plfs.filehandle import WriteClock

    clock = WriteClock()
    stamps: list[float] = []
    lock = threading.Lock()

    def worker():
        local = [clock.tick() for _ in range(500)]
        with lock:
            stamps.extend(local)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(stamps)) == len(stamps) == 4000
