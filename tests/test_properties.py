"""Cross-cutting property-based tests on system invariants."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.erasure import ReedSolomon
from repro.pfs import PFSParams, SimPFS
from repro.plfs import Plfs
from repro.plfs.container import Container
from repro.plfs.index import GlobalIndex
from repro.plfs.simbridge import run_direct_n1, run_plfs
from repro.sim import Simulator
from repro.workloads import pattern_bytes


# ------------------------------------------------------------- SimPFS
@st.composite
def write_workloads(draw):
    n_clients = draw(st.integers(1, 4))
    ops = []
    for c in range(n_clients):
        n_ops = draw(st.integers(1, 5))
        ops.append(
            [
                (draw(st.integers(0, 1 << 22)), draw(st.integers(1, 1 << 18)))
                for _ in range(n_ops)
            ]
        )
    return ops


@given(write_workloads(), st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_pfs_byte_conservation(workload, n_servers):
    """Bytes a client writes equal bytes landing across the servers."""
    sim = Simulator()
    pfs = SimPFS(sim, PFSParams(n_servers=n_servers))

    def client(c, writes):
        yield from pfs.op_create(c, f"/f{c}")
        for off, n in writes:
            yield from pfs.op_write(c, f"/f{c}", off, n)

    for c, writes in enumerate(workload):
        sim.spawn(client(c, writes))
    sim.run()
    expected = sum(n for writes in workload for _, n in writes)
    assert pfs.counters["bytes_written"] == expected
    landed = sum(s.counters["bytes_written"] for s in pfs.servers)
    assert landed == expected
    # file sizes reflect the furthest write
    for c, writes in enumerate(workload):
        assert pfs.lookup(f"/f{c}").size == max(off + n for off, n in writes)


@st.composite
def patterns(draw):
    n_ranks = draw(st.integers(1, 6))
    steps = draw(st.integers(1, 4))
    record = draw(st.integers(1, 1 << 16))
    kind = draw(st.sampled_from(["strided", "segmented"]))
    from repro.workloads import n1_segmented, n1_strided

    maker = n1_strided if kind == "strided" else n1_segmented
    return maker(n_ranks, record, steps)


@given(patterns())
@settings(max_examples=15, deadline=None)
def test_simbridge_accounting_properties(pattern):
    """Both schemes move exactly the pattern's bytes; bandwidths positive;
    PLFS never incurs lock migrations."""
    params = PFSParams(n_servers=4)
    d = run_direct_n1(params, pattern)
    p = run_plfs(params, pattern)
    assert d.total_bytes == p.total_bytes == pattern_bytes(pattern)
    assert d.bandwidth_Bps > 0 and p.bandwidth_Bps > 0
    assert p.lock_migrations == 0


# ------------------------------------------------------------- PLFS index
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 400), st.binary(min_size=1, max_size=50)),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=30, deadline=None)
def test_index_compaction_is_semantically_invisible(tmp_path_factory, writes):
    """Reading with and without index compaction gives identical bytes."""
    root = tmp_path_factory.mktemp("cmp")
    fs = Plfs(root)
    fs.create("/f")
    with fs.open_write("/f", create=False) as h:
        for off, data in writes:
            h.write(data, off)
    c = Container.open(fs._resolve("/f"))
    pairs = [(dp.data_path, dp.index_path) for dp in c.iter_droppings()]
    gi_plain = GlobalIndex.from_droppings(pairs, compact=False)
    gi_comp = GlobalIndex.from_droppings(pairs, compact=True)
    assert gi_comp.eof == gi_plain.eof
    assert gi_comp.n_entries <= gi_plain.n_entries
    size = gi_plain.eof
    out_a, out_b = bytearray(size), bytearray(size)
    files_a, files_b = {}, {}
    gi_plain.read_into(out_a, 0, files_a)
    gi_comp.read_into(out_b, 0, files_b)
    for f in (*files_a.values(), *files_b.values()):
        f.close()
    assert out_a == out_b


@st.composite
def interleaved_writes(draw):
    """(writer, offset, payload) triples where a writer often continues
    its previous write, so its records form runs compaction can merge."""
    ends, writes = {}, []
    for _ in range(draw(st.integers(1, 30))):
        writer = draw(st.integers(0, 2))
        if writer in ends and draw(st.booleans()):
            off = ends[writer]
        else:
            off = draw(st.integers(0, 120))
        data = draw(st.binary(min_size=1, max_size=30))
        writes.append((writer, off, data))
        ends[writer] = off + len(data)
    return writes


# writer 1's two contiguous records enclose writer 0's stamp-2 overwrite
@example(writes=[(1, 362, b"\x01" + bytes(19)), (0, 362, b"\x00"), (1, 382, b"\x00")])
@given(writes=interleaved_writes())
@settings(max_examples=60, deadline=None)
def test_index_compaction_is_invisible_across_writers(tmp_path_factory, writes):
    """Under any interleaving of writers, every byte reads back the same
    with and without compaction — including a writer whose contiguous run
    spans another writer's overwrite of it."""
    fs = Plfs(tmp_path_factory.mktemp("cmpw"))
    fs.create("/f")
    handles = {}
    for writer, off, data in writes:
        h = handles.get(writer)
        if h is None:
            h = handles[writer] = fs.open_write("/f", writer=f"w{writer}", create=False)
        h.write(data, off)
    for h in handles.values():
        h.close()
    c = Container.open(fs._resolve("/f"))
    pairs = [(dp.data_path, dp.index_path) for dp in c.iter_droppings()]
    out = {}
    for compact in (False, True):
        gi = GlobalIndex.from_droppings(pairs, compact=compact)
        out[compact], files = bytearray(gi.eof), {}
        gi.read_into(out[compact], 0, files)
        for f in files.values():
            f.close()
    assert out[True] == out[False]


@st.composite
def droppings(draw):
    """Per writer: compress flag, records (offset, payload) and the offsets
    of zero-length records appended to its index dropping by hand."""
    payload = st.one_of(
        st.binary(min_size=1, max_size=40),                 # incompressible: kept raw
        st.builds(lambda b, n: bytes([b]) * n, st.integers(0, 255), st.integers(20, 60)),
    )
    writers = []
    for _ in range(draw(st.integers(1, 4))):
        records = draw(st.lists(st.tuples(st.integers(0, 250), payload), min_size=1, max_size=12))
        # runs of contiguous appends, so compaction has something to merge
        if draw(st.booleans()):
            off, data = records[-1]
            for _ in range(draw(st.integers(1, 4))):
                off += len(data)
                data = draw(payload)
                records.append((off, data))
        empties = draw(st.lists(st.integers(0, 300), max_size=2))
        writers.append((draw(st.booleans()), records, empties))
    return writers


def _compact_reference(recs):
    """The compaction rule as plain loops over every dropping's records.

    A record is (offset, length, physical, stored, stamp, dropping, payload).
    Neighbours of one dropping join into a run when both are raw and the
    second continues the first logically, physically and in time; a run
    is then cut between the two members whose stamps enclose the stamp of
    any record outside it that overlaps its bytes.
    """
    runs = []
    for p, e in zip([None] + recs, recs):
        if p is not None and (
            p[5] == e[5] and p[3] == p[1] and e[3] == e[1]
            and p[0] + p[1] == e[0] and p[2] + p[1] == e[2] and p[4] <= e[4]
        ):
            runs[-1].append(e)
        else:
            runs.append([e])
    out = []
    for run in runs:
        lo, end = run[0][0], run[-1][0] + run[-1][1]
        cuts = set()
        for f in recs:
            overlaps = max(lo, f[0]) < min(end, f[0] + f[1])
            if overlaps and run[0][4] <= f[4] <= run[-1][4] and all(f is not r for r in run):
                cuts.update(j for j in range(len(run) - 1) if run[j][4] <= f[4] <= run[j + 1][4])
        piece = [run[0]]
        for j, e in enumerate(run[1:]):
            if j in cuts:
                out.append(piece)
                piece = []
            piece.append(e)
        out.append(piece)
    return [
        p[0] if len(p) == 1 else (
            p[0][0], sum(r[1] for r in p), p[0][2], sum(r[1] for r in p), p[-1][4], p[0][5],
            b"".join(r[6] for r in p),
        )
        for p in out
    ]


@given(writers=droppings(), compact=st.booleans(), window=st.tuples(
    st.integers(0, 320), st.integers(1, 120)))
@settings(max_examples=60, deadline=None)
def test_global_index_matches_byte_owner_oracle(tmp_path_factory, writers, compact, window):
    """Merged index, read_into and lookup agree, byte for byte, with an array
    holding the last-written record of every logical byte (timestamp order,
    ties broken by dropping order) — over rewrites, zero-length records,
    compressed and kept-raw payloads and stamps that tie across writers."""
    import struct
    import zlib

    from repro.plfs.filehandle import PlfsWriteHandle
    from repro.plfs.index import IndexEntry, pack_entry

    c = Container.create(tmp_path_factory.mktemp("oracle") / "c")
    payloads = {}
    for w, (compress, records, empties) in enumerate(writers):
        # no shared clock: every writer stamps 1.0, 2.0, ... so stamps tie
        with PlfsWriteHandle(c, f"w{w}", compress=compress) as h:
            for off, data in records:
                h.write(data, off)
        payloads[f"w{w}"] = [data for _, data in records] + [b""] * len(empties)
        with open(c.dropping_paths(f"w{w}").index_path, "ab") as f:
            for stamp, off in enumerate(empties, start=2):
                f.write(pack_entry(off, 0, 0, float(stamp)))

    pairs, raw = [], []
    for d, dp in enumerate(c.iter_droppings()):
        pairs.append((dp.data_path, dp.index_path))
        stored = dp.data_path.read_bytes()
        for (lo, ln, po, sl, ts), data in zip(
            struct.iter_unpack("<qqqqd", dp.index_path.read_bytes()), payloads[dp.writer]
        ):
            assert ln == len(data)
            blob = stored[po:po + sl]
            assert (zlib.decompress(blob) if sl != ln else blob) == data
            raw.append((lo, ln, po, sl, ts, d, data))
    recs = _compact_reference(raw) if compact else raw

    def last_writer(recs):
        owner = [None] * size
        expect = bytearray(size)
        for rec in sorted(recs, key=lambda r: r[4]):     # stable: ties keep dropping order
            lo, ln, data = rec[0], rec[1], rec[6]
            owner[lo:lo + ln] = [rec] * ln
            expect[lo:lo + ln] = data
        return owner, expect

    size = max(lo + ln for lo, ln, *_ in recs if ln)   # an empty record maps no byte
    owner, expect = last_writer(recs)
    assert expect == last_writer(raw)[1]     # the reference compaction hides itself too

    gi = GlobalIndex.from_droppings(pairs, compact=compact)
    gi._map.check_invariants()
    assert gi.eof == size
    assert gi.n_entries == sum(1 for r in recs if r[1] > 0)
    assert gi.covered_bytes() == sum(o is not None for o in owner)
    files = {}
    try:
        out = bytearray(size)
        assert gi.read_into(out, 0, files) == gi.covered_bytes()
        assert out == expect
        start, length = window
        out = bytearray(length)
        mapped = gi.read_into(out, start, files)
        assert out == bytes(expect[start:start + length]).ljust(length, b"\0")
        assert mapped == sum(o is not None for o in owner[start:start + length])
    finally:
        for f in files.values():
            f.close()

    segs = gi.lookup(0, size)
    assert all(a.end <= b.start for a, b in zip(segs, segs[1:]))
    assert sum(s.end - s.start for s in segs) == gi.covered_bytes()
    for seg in segs:
        for b in range(seg.start, seg.end):
            lo, ln, po, sl, ts, d, _ = owner[b]
            assert seg.payload == IndexEntry(lo, ln, po, ts, d, seg.payload.stored_length)
            assert (ln if seg.payload.stored_length < 0 else seg.payload.stored_length) == sl
            assert seg.payload_offset == seg.start - lo
        if not seg.payload.compressed:
            path = gi.data_paths[seg.payload.dropping]
            phys = seg.payload.physical_offset + seg.payload_offset
            assert path == pairs[seg.payload.dropping][0]
            assert path.read_bytes()[phys:phys + seg.end - seg.start] == expect[seg.start:seg.end]


# ------------------------------------------------------------- erasure
@given(
    data=st.binary(min_size=1, max_size=200),
    k=st.integers(2, 5),
    m=st.integers(1, 3),
    target=st.integers(0, 7),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None)
def test_rs_share_reconstruction_property(data, k, m, target, seed):
    """Any lost share is rebuilt bit-exactly from any k survivors."""
    rs = ReedSolomon(k, m)
    target = target % (k + m)
    shares = rs.encode(data)
    rng = np.random.default_rng(seed)
    others = [i for i in range(k + m) if i != target]
    keep = sorted(rng.choice(others, size=k, replace=False).tolist())
    rebuilt = rs.reconstruct_share({i: shares[i] for i in keep}, target, len(data))
    assert rebuilt == shares[target]
