"""Ablation — the PLFS follow-on features (§1.1's spin-out list).

Measures, on real containers, what each PLFS extension buys:
index compaction, formulaic index compression, on-the-fly checkpoint
compression, delayed-write batching, and small-file packing.
"""

import numpy as np

from benchmarks.conftest import print_table
from repro.plfs import Plfs
from repro.plfs.container import Container
from repro.plfs.filehandle import WriteClock
from repro.plfs.indexopt import detect_patterns
from repro.plfs.index import read_index_dropping, compact_entries
from repro.plfs.smallfile import SmallFileReader, SmallFileWriter, backing_file_count


def run_ablation(tmpdir):
    fs = Plfs(tmpdir / "mnt")
    n_ranks, record, steps = 8, 4096, 64
    rows = []

    # -- index compaction & pattern compression on an N-1 strided ckpt ----
    fs.create("/ckpt")
    handles = [fs.open_write("/ckpt", writer=f"r{r}", create=False) for r in range(n_ranks)]
    for s in range(steps):
        for r, h in enumerate(handles):
            h.write(b"D" * record, (s * n_ranks + r) * record)
    for h in handles:
        h.close()
    container = Container.open(fs._resolve("/ckpt"))
    raw_records = 0
    pattern_descriptors = 0
    for i, dp in enumerate(container.iter_droppings()):
        entries = read_index_dropping(dp.index_path)
        raw_records += len(entries)
        runs, leftovers = detect_patterns(compact_entries(entries))
        pattern_descriptors += len(runs) + len(leftovers)
    rows.append(["index pattern compression", f"{raw_records} -> {pattern_descriptors} descriptors"])

    # -- on-the-fly compression -------------------------------------------
    rng = np.random.default_rng(0)
    compressible = bytes(rng.integers(0, 8, size=1 << 20, dtype=np.uint8))
    fs.create("/zckpt")
    with fs.open_write("/zckpt", create=False, compress=True) as h:
        h.write(compressible, 0)
        zratio = h.compression_ratio()
    ok = fs.read_file("/zckpt") == compressible
    rows.append(["checkpoint compression", f"{zratio:.1f}x smaller, roundtrip={'ok' if ok else 'FAIL'}"])

    # -- delayed-write batching --------------------------------------------
    fs.create("/batched")
    with fs.open_write("/batched", create=False, data_buffer_bytes=1 << 20) as h:
        for i in range(512):
            h.write(b"x" * 512, i * 512)
        batched_flushes = h.data_flushes
    fs.create("/unbatched")
    with fs.open_write("/unbatched", create=False) as h:
        for i in range(512):
            h.write(b"x" * 512, i * 512)
        unbatched_flushes = h.data_flushes
    rows.append(["delayed-write batching", f"{unbatched_flushes} -> {batched_flushes} backing writes"])

    # -- small-file packing ---------------------------------------------------
    packed = Container.create(tmpdir / "packed")
    clock = WriteClock()
    payloads = {f"f.{w}.{i}": f"payload {w}.{i}".encode() for w in range(4) for i in range(250)}
    for w in range(4):
        with SmallFileWriter(packed, f"w{w}", clock) as writer:
            for i in range(250):
                name = f"f.{w}.{i}"
                writer.create(name, payloads[name])
    reader = SmallFileReader(packed)
    n_logical = len(reader.names())
    packed_ok = all(reader.read(name) == data for name, data in payloads.items())
    n_backing = backing_file_count(packed)
    rows.append(["small-file packing",
                 f"{n_logical} logical files in {n_backing} backing files, "
                 f"roundtrip={'ok' if packed_ok else 'FAIL'}"])

    return rows, {
        "raw_records": raw_records,
        "descriptors": pattern_descriptors,
        "zratio": zratio,
        "roundtrip_ok": ok,
        "batched": batched_flushes,
        "unbatched": unbatched_flushes,
        "logical": n_logical,
        "packed_roundtrip_ok": packed_ok,
        "backing": n_backing,
        "n_ranks": n_ranks,
    }


def test_abl01_plfs_features(run_once, tmp_path):
    rows, m = run_once(run_ablation, tmp_path)
    print_table("PLFS follow-on feature ablation", ["feature", "effect"], rows, widths=[28, 54])
    # pattern compression: a strided checkpoint reduces to ~1 descriptor/rank
    assert m["descriptors"] <= 2 * m["n_ranks"]
    assert m["raw_records"] / m["descriptors"] > 20
    # compression: big ratio on low-entropy data, content intact
    assert m["zratio"] > 2.0 and m["roundtrip_ok"]
    # batching: order-of-magnitude fewer backing writes
    assert m["batched"] < m["unbatched"] / 10
    # packing: thousand logical files, each read back intact, O(writers)
    # backing files
    assert m["logical"] == 1000 and m["packed_roundtrip_ok"]
    assert m["backing"] < 20
