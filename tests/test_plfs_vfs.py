"""End-to-end tests of PLFS handles, the VFS facade, and flatten."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.plfs import Plfs, flatten
from repro.plfs.filehandle import WriteClock


@pytest.fixture
def fs(tmp_path):
    return Plfs(tmp_path / "mnt")


def test_write_read_roundtrip(fs):
    fs.write_file("/a", b"hello world")
    assert fs.read_file("/a") == b"hello world"
    assert fs.stat("/a")["size"] == 11


def test_strided_n1_write_pattern(fs):
    """Four writers interleave unaligned records into one logical file."""
    fs.create("/ckpt")
    record = 47
    n_writers, steps = 4, 5
    clockless = []
    handles = [fs.open_write("/ckpt", writer=f"rank{r}", create=False) for r in range(4)]
    expect = bytearray(record * n_writers * steps)
    for s in range(steps):
        for r, h in enumerate(handles):
            off = (s * n_writers + r) * record
            payload = bytes([r + 1]) * record
            h.write(payload, off)
            expect[off:off + record] = payload
    for h in handles:
        h.close()
    assert fs.read_file("/ckpt") == bytes(expect)
    st_ = fs.stat("/ckpt")
    assert st_["size"] == len(expect)
    assert st_["droppings"] == 4


def test_overwrite_last_writer_wins(fs):
    fs.create("/f")
    h1 = fs.open_write("/f", writer="w1", create=False)
    h2 = fs.open_write("/f", writer="w2", create=False)
    h1.write(b"XXXXXXXXXX", 0)
    h2.write(b"yyy", 3)       # later write overlaps the middle
    h1.write(b"Z", 9)         # even later, tail byte
    h1.close()
    h2.close()
    assert fs.read_file("/f") == b"XXXyyyXXXZ"


def test_holes_read_as_zeros(fs):
    fs.create("/f")
    with fs.open_write("/f", create=False) as h:
        h.write(b"end", 10)
    assert fs.read_file("/f") == bytes(10) + b"end"


def test_read_past_eof_clamped(fs):
    fs.write_file("/f", b"abc")
    with fs.open_read("/f") as h:
        assert h.read(1, 100) == b"bc"
        assert h.read(50, 10) == b""


def test_stat_while_open_uses_index(fs):
    fs.create("/f")
    h = fs.open_write("/f", create=False)
    h.write(b"12345", 0)
    h.sync()
    info = fs.stat("/f")
    assert info["size"] == 5
    assert info["open_writers"] == 1
    h.close()
    assert fs.stat("/f")["open_writers"] == 0


def test_unlink_and_exists(fs):
    fs.write_file("/f", b"x")
    assert fs.exists("/f")
    fs.unlink("/f")
    assert not fs.exists("/f")
    with pytest.raises(FileNotFoundError):
        fs.unlink("/f")


def test_rename(fs):
    fs.write_file("/old", b"payload")
    fs.rename("/old", "/new")
    assert not fs.exists("/old")
    assert fs.read_file("/new") == b"payload"


def test_rename_overwrites_target(fs):
    fs.write_file("/a", b"aaa")
    fs.write_file("/b", b"bbb")
    fs.rename("/a", "/b")
    assert fs.read_file("/b") == b"aaa"


def test_mkdir_and_nested_paths(fs):
    fs.mkdir("/runs/day1")
    fs.write_file("/runs/day1/ckpt", b"z")
    assert fs.exists("/runs/day1/ckpt")
    assert "day1" in fs.readdir("/runs")


def test_path_escape_rejected(fs):
    with pytest.raises(ValueError):
        fs.stat("/../../etc/passwd")


def test_truncate_zero(fs):
    fs.write_file("/f", b"some data")
    fs.truncate("/f", 0)
    assert fs.stat("/f")["size"] == 0
    assert fs.read_file("/f") == b""


def test_truncate_extend(fs):
    fs.write_file("/f", b"ab")
    fs.truncate("/f", 10)
    assert fs.stat("/f")["size"] == 10
    assert fs.read_file("/f") == b"ab" + bytes(8)


def test_truncate_shrink_unsupported(fs):
    fs.write_file("/f", b"abcdef")
    with pytest.raises(NotImplementedError):
        fs.truncate("/f", 3)


def test_write_handle_closed_guard(fs):
    fs.create("/f")
    h = fs.open_write("/f", create=False)
    h.close()
    with pytest.raises(ValueError):
        h.write(b"x", 0)
    h.close()  # idempotent


def test_write_negative_offset_rejected(fs):
    fs.create("/f")
    with fs.open_write("/f", create=False) as h:
        with pytest.raises(ValueError):
            h.write(b"x", -1)


def test_empty_write_noop(fs):
    fs.create("/f")
    with fs.open_write("/f", create=False) as h:
        assert h.write(b"", 100) == 0
    assert fs.stat("/f")["size"] == 0


def test_reopen_append_same_writer(fs):
    """A writer can close and reopen; physical offsets continue."""
    fs.create("/f")
    with fs.open_write("/f", writer="w", create=False) as h:
        h.write(b"aaa", 0)
    with fs.open_write("/f", writer="w", create=False) as h:
        h.write(b"bbb", 3)
    assert fs.read_file("/f") == b"aaabbb"


def test_flatten_roundtrip(fs, tmp_path):
    fs.create("/f")
    handles = [fs.open_write("/f", writer=f"r{r}", create=False) for r in range(3)]
    expect = bytearray(300)
    for i in range(30):
        r = i % 3
        payload = bytes([i]) * 10
        handles[r].write(payload, i * 10)
        expect[i * 10:(i + 1) * 10] = payload
    for h in handles:
        h.close()
    out = tmp_path / "flat.bin"
    size = flatten(fs._resolve("/f"), out, chunk_bytes=64)
    assert size == 300
    assert out.read_bytes() == bytes(expect)


def test_flatten_requires_container(tmp_path):
    with pytest.raises(FileNotFoundError):
        flatten(tmp_path / "nope", tmp_path / "out")


def test_flatten_bad_chunk(fs, tmp_path):
    fs.write_file("/f", b"x")
    with pytest.raises(ValueError):
        flatten(fs._resolve("/f"), tmp_path / "o", chunk_bytes=0)


def test_index_compaction_reduces_entries(fs):
    """Sequential writer's many records compact to one."""
    fs.create("/f")
    with fs.open_write("/f", create=False) as h:
        for i in range(100):
            h.write(b"D" * 8, i * 8)
    rh = fs.open_read("/f")
    assert rh.index.n_entries == 1
    assert rh.read(0, 800) == b"D" * 800
    rh.close()


def test_write_clock_monotone():
    clock = WriteClock()
    stamps = [clock.tick() for _ in range(100)]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == 100


@given(
    writes=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 500), st.binary(min_size=1, max_size=60)),
        min_size=1,
        max_size=50,
    )
)
# w1's contiguous pair (stamps 1, 3) must not compact over w0's stamp-2 byte
@example(writes=[(1, 362, b"\x01" + bytes(19)), (0, 362, b"\x00"), (1, 382, b"\x00")])
@settings(max_examples=60, deadline=None)
def test_plfs_matches_shadow_file(tmp_path_factory, writes):
    """PLFS read-back equals a brute-force shadow byte array under any
    interleaving of multi-writer strided writes (the core correctness
    property of the index)."""
    root = tmp_path_factory.mktemp("plfs")
    fs = Plfs(root)
    fs.create("/f")
    handles = {}
    shadow = bytearray()
    for writer, off, data in writes:
        h = handles.get(writer)
        if h is None:
            h = fs.open_write("/f", writer=f"w{writer}", create=False)
            handles[writer] = h
        h.write(data, off)
        end = off + len(data)
        if end > len(shadow):
            shadow.extend(bytes(end - len(shadow)))
        shadow[off:end] = data
    for h in handles.values():
        h.close()
    assert fs.read_file("/f") == bytes(shadow)
    assert fs.stat("/f")["size"] == len(shadow)
