"""Tests for the IOR driver and the command-line tools."""

import pytest

from repro.pfs import LUSTRE_LIKE
from repro.plfs import Plfs
from repro.tools import fsstats as fsstats_cli
from repro.tools import plfs as plfs_cli
from repro.plfs.simbridge import run_direct_n1, run_plfs
from repro.workloads.ior import IORConfig, run_ior_real
from repro.workloads.patterns import n1_strided, pattern_bytes


# ------------------------------------------------------------- IOR config
def test_config_validation():
    with pytest.raises(ValueError):
        IORConfig(pattern="spiral")
    with pytest.raises(ValueError):
        IORConfig(n_ranks=0)


def test_offsets_strided_vs_segmented():
    cfg_s = IORConfig(n_ranks=4, transfer_size=10, segments=3, pattern="n1-strided")
    assert cfg_s.offsets(1) == [10, 50, 90]
    cfg_g = IORConfig(n_ranks=4, transfer_size=10, segments=3, pattern="n1-segmented")
    assert cfg_g.offsets(1) == [30, 40, 50]


def test_stamp_is_rank_segment_unique():
    cfg = IORConfig(transfer_size=64)
    assert cfg.stamp(0, 0) != cfg.stamp(1, 0)
    assert cfg.stamp(0, 0) != cfg.stamp(0, 1)
    assert len(cfg.stamp(3, 5)) == 64


def test_total_bytes_and_pattern():
    cfg = IORConfig(n_ranks=3, transfer_size=100, segments=2)
    assert cfg.total_bytes == 600
    assert pattern_bytes(n1_strided(3, 100, 2)) == 600


# ------------------------------------------------------------- IOR real
def test_ior_real_roundtrip_strided(tmp_path):
    fs = Plfs(tmp_path / "mnt")
    cfg = IORConfig(n_ranks=3, transfer_size=512, segments=4, pattern="n1-strided")
    res = run_ior_real(cfg, fs)
    assert res.verified
    assert res.write_s > 0 and res.read_s > 0
    assert fs.stat("/ior.out")["size"] == cfg.total_bytes


def test_ior_real_roundtrip_segmented(tmp_path):
    fs = Plfs(tmp_path / "mnt")
    cfg = IORConfig(n_ranks=2, transfer_size=256, segments=3, pattern="n1-segmented")
    res = run_ior_real(cfg, fs)
    assert res.verified


def test_ior_sim_plfs_beats_direct():
    pattern = n1_strided(16, 47 * 1024, 6)
    direct = run_direct_n1(LUSTRE_LIKE.with_servers(8), pattern)
    plfs = run_plfs(LUSTRE_LIKE.with_servers(8), pattern)
    assert plfs.bandwidth_Bps > 2.0 * direct.bandwidth_Bps


# ------------------------------------------------------------- fsstats CLI
def test_fsstats_cli(tmp_path, capsys):
    (tmp_path / "a").write_bytes(b"x" * 5000)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b").write_bytes(b"y" * 100)
    rc = fsstats_cli.main([str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "files            : 2" in out
    assert "size CDF" in out


def test_fsstats_cli_empty_dir(tmp_path, capsys):
    rc = fsstats_cli.main([str(tmp_path)])
    assert rc == 1


def test_fsstats_human_units():
    assert fsstats_cli.human(512) == "512.0B"
    assert fsstats_cli.human(2048) == "2.0K"
    assert fsstats_cli.human(3 * 1024**3) == "3.0G"


# ------------------------------------------------------------- plfs CLI
@pytest.fixture
def populated(tmp_path):
    fs = Plfs(tmp_path / "mnt")
    fs.create("/runs/ckpt")
    with fs.open_write("/runs/ckpt", create=False) as h:
        for i in range(20):
            h.write(b"Z" * 100, i * 100)
    return tmp_path / "mnt", fs


def test_plfs_cli_ls(populated, capsys):
    root, _ = populated
    assert plfs_cli.main(["ls", str(root)]) == 0
    assert "runs/ckpt" in capsys.readouterr().out


def test_plfs_cli_ls_no_containers(tmp_path, capsys):
    tmp_path.mkdir(exist_ok=True)
    assert plfs_cli.main(["ls", str(tmp_path)]) == 0
    assert "no PLFS containers" in capsys.readouterr().out


def test_plfs_cli_stat(populated, capsys):
    root, _ = populated
    assert plfs_cli.main(["stat", str(root / "runs/ckpt")]) == 0
    out = capsys.readouterr().out
    assert "logical size     : 2000" in out
    assert "droppings        : 1" in out


def test_plfs_cli_stat_not_container(tmp_path, capsys):
    assert plfs_cli.main(["stat", str(tmp_path)]) == 1


def test_plfs_cli_analyze(populated, capsys):
    root, _ = populated
    assert plfs_cli.main(["analyze", str(root / "runs/ckpt")]) == 0
    out = capsys.readouterr().out
    assert "records=20" in out
    assert "descriptors=1" in out  # sequential run compacts fully


def test_plfs_cli_flatten(populated, tmp_path, capsys):
    root, fs = populated
    out_file = tmp_path / "flat.bin"
    assert plfs_cli.main(["flatten", str(root / "runs/ckpt"), str(out_file)]) == 0
    assert out_file.read_bytes() == fs.read_file("/runs/ckpt")


def test_plfs_cli_flatten_missing(tmp_path, capsys):
    assert plfs_cli.main(["flatten", str(tmp_path / "nope"), str(tmp_path / "o")]) == 1
