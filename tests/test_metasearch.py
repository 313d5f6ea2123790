"""Tests for Spyglass-style metadata search."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.metasearch import (
    FlatScanIndex,
    PartitionedIndex,
    Query,
    parse_query,
    synth_namespace,
)
from repro.metasearch.query import QueryParseError


@pytest.fixture(scope="module")
def namespace():
    return synth_namespace(8000, np.random.default_rng(1))


def test_namespace_locality(namespace):
    """Projects concentrate owners and extensions (the Spyglass premise)."""
    by_proj = {}
    for f in namespace:
        by_proj.setdefault(f.project, []).append(f)
    big = [fs for fs in by_proj.values() if len(fs) > 50]
    assert big
    for fs in big:
        owners = {f.owner for f in fs}
        # dominated by one owner
        top_owner = max(owners, key=lambda o: sum(f.owner == o for f in fs))
        assert sum(f.owner == top_owner for f in fs) / len(fs) > 0.7


def test_namespace_validation():
    with pytest.raises(ValueError):
        synth_namespace(0, np.random.default_rng(0))


def test_query_matching():
    q = Query(ext=".h5", size_min=100)
    from repro.metasearch.namespace import FileMeta

    f1 = FileMeta("/p/d/a.h5", "/p/d", 1, ".h5", 200, 10.0, 0)
    f2 = FileMeta("/p/d/a.h5", "/p/d", 1, ".h5", 50, 10.0, 0)
    f3 = FileMeta("/p/d/a.c", "/p/d", 1, ".c", 500, 10.0, 0)
    assert q.matches(f1) and not q.matches(f2) and not q.matches(f3)


def test_parse_query_roundtrip():
    q = parse_query("owner=12; ext=.h5; size>1000000; mtime<30; dir=/proj3")
    assert q.owner == 12
    assert q.ext == ".h5"
    assert q.size_min == 1000000
    assert q.mtime_max == 30.0
    assert q.dir_prefix == "/proj3"


def test_parse_query_errors():
    with pytest.raises(QueryParseError):
        parse_query("owner~12")
    with pytest.raises(QueryParseError):
        parse_query("color=blue")


def test_parse_empty_clauses_ok():
    q = parse_query(" ; owner=3 ; ")
    assert q == Query(owner=3)


def test_partitioned_matches_flat_results(namespace):
    flat = FlatScanIndex(namespace)
    part = PartitionedIndex(namespace)
    for text in (
        "ext=.h5",
        "owner=5; size>100000",
        "project=2; mtime<180",
        "dir=/proj1; ext=.log",
        "size>100000000",
    ):
        q = parse_query(text)
        hits_f, _ = flat.search(q)
        hits_p, _ = part.search(q)
        assert sorted(f.path for f in hits_f) == sorted(f.path for f in hits_p), text


def test_partition_pruning_on_localized_query(namespace):
    part = PartitionedIndex(namespace)
    q = parse_query("project=3")
    hits, stats = part.search(q)
    assert stats.partitions_visited < stats.partitions_total / 4
    assert stats.records_scanned < len(namespace) / 4
    assert stats.prune_ratio > 0.75


def test_flat_always_scans_everything(namespace):
    flat = FlatScanIndex(namespace)
    _, stats = flat.search(parse_query("project=3"))
    assert stats.records_scanned == len(namespace)


def test_owner_partitioning_prunes_owner_queries(namespace):
    sec = PartitionedIndex(namespace, partition_by="owner")
    sub = PartitionedIndex(namespace, partition_by="subtree")
    q = parse_query("owner=7")
    _, s_sec = sec.search(q)
    _, s_sub = sub.search(q)
    assert s_sec.records_scanned <= s_sub.records_scanned


def test_partition_size_bound(namespace):
    part = PartitionedIndex(namespace, max_partition_records=500)
    assert all(len(p.records) <= 500 for p in part.partitions)
    assert sum(len(p.records) for p in part.partitions) == len(namespace)


def test_invalid_index_params(namespace):
    with pytest.raises(ValueError):
        PartitionedIndex(namespace, max_partition_records=0)
    with pytest.raises(ValueError):
        PartitionedIndex(namespace, partition_by="color")


@given(
    owner=st.one_of(st.none(), st.integers(0, 63)),
    ext=st.one_of(st.none(), st.sampled_from([".h5", ".c", ".log", ".png", ".txt"])),
    size_min=st.one_of(st.none(), st.integers(1, 10**8)),
)
@settings(max_examples=25, deadline=None)
def test_partitioned_equals_flat_property(owner, ext, size_min):
    """Pruned search is exactly equivalent to the full scan."""
    records = synth_namespace(1500, np.random.default_rng(99))
    q = Query(owner=owner, ext=ext, size_min=size_min)
    hits_f, _ = FlatScanIndex(records).search(q)
    hits_p, _ = PartitionedIndex(records).search(q)
    assert sorted(f.path for f in hits_f) == sorted(f.path for f in hits_p)
