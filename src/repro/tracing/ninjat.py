"""Ninjat: rasterize concurrent single-file write traces (Fig 15).

LANL's Ninjat turns a PLFS trace of writes to one shared file into two
images: offset-vs-time (each write a mark colored by rank) and a
wrapped-file rectangle (the file as a row-major byte grid, colored by the
rank that wrote each region).  The characteristic N-1 strided picture is a
fine interleave of all colors across the whole file.

``classify_pattern`` adds the analysis a human does when looking at the
image: is this N-1 strided, N-1 segmented, or a sequential stream?
"""

from __future__ import annotations

import numpy as np

from repro.tracing.records import TraceLog


def _write_cols(log: TraceLog):
    cols = log.columns()
    mask = cols["op"] == "write"
    if not mask.any():
        raise ValueError("trace contains no writes")
    return (
        cols["t"][mask],
        cols["rank"][mask],
        cols["offset"][mask],
        cols["nbytes"][mask],
    )


def raster_offsets(log: TraceLog, width: int = 256, height: int = 256) -> np.ndarray:
    """Offset(y) vs time(x) raster; cell value = writer rank + 1 (0 empty)."""
    if width < 1 or height < 1:
        raise ValueError("raster dimensions must be positive")
    t, rank, off, nb = _write_cols(log)
    img = np.zeros((height, width), dtype=np.int32)
    t0, t1 = t.min(), t.max()
    span_t = max(t1 - t0, 1e-12)
    max_off = (off + nb).max()
    x = np.minimum(((t - t0) / span_t * (width - 1)).astype(int), width - 1)
    y0 = (off / max_off * (height - 1)).astype(int)
    y1 = np.minimum(((off + nb) / max_off * (height - 1)).astype(int), height - 1)
    for xi, a, b, r in zip(x, y0, y1, rank):
        img[a:b + 1, xi] = r + 1
    return img


def raster_wrapped(log: TraceLog, width: int = 256, height: int = 256) -> np.ndarray:
    """The file as a row-major grid; cell = last rank to write it + 1.

    Writes are applied in time order, so overlaps resolve like the file
    itself would (last writer wins).  The grid spans the trace's EOF.
    """
    if width < 1 or height < 1:
        raise ValueError("raster dimensions must be positive")
    t, rank, off, nb = _write_cols(log)
    order = np.argsort(t, kind="stable")
    size = int((off + nb).max())
    cells = width * height
    img = np.zeros(cells, dtype=np.int32)
    for i in order:
        a = int(off[i]) * cells // max(size, 1)
        b = (int(off[i]) + int(nb[i])) * cells // max(size, 1)
        img[a:max(b, a + 1)] = rank[i] + 1
    return img.reshape(height, width)


#: distinct colors for up to 16 ranks (RGB), index 0 = empty/black
_PALETTE = [
    (0, 0, 0), (230, 25, 75), (60, 180, 75), (255, 225, 25), (0, 130, 200),
    (245, 130, 48), (145, 30, 180), (70, 240, 240), (240, 50, 230),
    (210, 245, 60), (250, 190, 212), (0, 128, 128), (220, 190, 255),
    (170, 110, 40), (255, 250, 200), (128, 0, 0),
]


def save_ppm(img: np.ndarray, path) -> None:
    """Write a rank raster as a binary PPM image (no plotting deps).

    Cell values are rank+1 as produced by :func:`raster_offsets` /
    :func:`raster_wrapped`; colors cycle through a 15-color palette.
    """
    img = np.asarray(img)
    if img.ndim != 2:
        raise ValueError("raster must be 2-D")
    h, w = img.shape
    palette = np.asarray(_PALETTE, dtype=np.uint8)
    rgb = palette[np.where(img == 0, 0, (img - 1) % (len(_PALETTE) - 1) + 1)]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(rgb.astype(np.uint8).tobytes())


def classify_pattern(log: TraceLog) -> dict:
    """Detect the concurrent-write pattern from the trace.

    Diagnostics:
    * per-rank offset stride regularity (strided writers jump by a fixed
      ``n_ranks * record`` stride; segmented/sequential writers advance by
      exactly their record size),
    * interleave factor: how finely ranks alternate along the file.
    Returns the label and the evidence.
    """
    t, rank, off, nb = _write_cols(log)
    ranks = np.unique(rank)
    per_rank_sequential = []
    per_rank_strided = []
    for r in ranks:
        sel = rank == r
        o = off[sel][np.argsort(t[sel], kind="stable")]
        n = nb[sel][np.argsort(t[sel], kind="stable")]
        if len(o) < 2:
            continue
        deltas = np.diff(o)
        seq = np.mean(deltas == n[:-1])
        per_rank_sequential.append(seq)
        stride_regular = len(set(deltas.tolist())) == 1 and deltas[0] > n[0]
        per_rank_strided.append(stride_regular)
    # interleave: sort all writes by offset; how often does the writing
    # rank change between adjacent regions?
    order = np.argsort(off, kind="stable")
    changes = np.mean(np.diff(rank[order]) != 0) if len(order) > 1 else 0.0
    evidence = {
        "n_ranks": int(len(ranks)),
        "frac_sequential": float(np.mean(per_rank_sequential)) if per_rank_sequential else 1.0,
        "strided_ranks": float(np.mean(per_rank_strided)) if per_rank_strided else 0.0,
        "interleave": float(changes),
    }
    if len(ranks) == 1:
        label = "sequential" if evidence["frac_sequential"] > 0.9 else "random"
    elif evidence["interleave"] > 0.5 and evidence["strided_ranks"] > 0.5:
        label = "n1-strided"
    elif evidence["frac_sequential"] > 0.9 and evidence["interleave"] <= 0.5:
        label = "n1-segmented"
    else:
        label = "mixed"
    return {"label": label, **evidence}
