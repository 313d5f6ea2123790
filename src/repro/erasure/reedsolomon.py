"""Systematic Reed-Solomon erasure codes over GF(256).

``ReedSolomon(k, m)`` splits data into ``k`` shares and adds ``m`` parity
shares; *any* ``k`` of the ``k+m`` recover the data.  The generator
matrix is the systematic form of a Vandermonde matrix (every k-row
subset invertible), the construction the PDSI GPU-RAID work accelerates.
"""

from __future__ import annotations

import numpy as np

from repro.erasure.gf256 import GF256


class ReedSolomon:
    """Encoder/decoder for k data + m parity byte shares."""

    def __init__(self, k: int, m: int) -> None:
        if k < 1 or m < 0 or k + m > 255:
            raise ValueError("need 1 <= k, 0 <= m, k + m <= 255")
        self.k = k
        self.m = m
        self.matrix = self._systematic_vandermonde(k, m)

    @property
    def n(self) -> int:
        """Total share count (data + parity)."""
        return self.k + self.m

    @staticmethod
    def _systematic_vandermonde(k: int, m: int) -> np.ndarray:
        """(k+m) x k generator whose top k rows are the identity."""
        n = k + m
        v = np.zeros((n, k), dtype=np.uint8)
        for r in range(n):
            for c in range(k):
                v[r, c] = GF256.pow(r + 1, c)
        top_inv = GF256.mat_inv(v[:k])
        return GF256.mat_mul(v, top_inv)

    # -- encoding -----------------------------------------------------
    def split(self, data: bytes) -> np.ndarray:
        """Pad and reshape data into (k, share_len) byte rows."""
        arr = np.frombuffer(data, dtype=np.uint8)
        share_len = max(1, -(-len(arr) // self.k))
        padded = np.zeros(self.k * share_len, dtype=np.uint8)
        padded[: len(arr)] = arr
        return padded.reshape(self.k, share_len)

    def encode(self, data: bytes) -> list[bytes]:
        """All k+m shares for ``data`` (first k are the data itself)."""
        shards = self.split(data)
        coded = GF256.mat_mul(self.matrix, shards)
        return [row.tobytes() for row in coded]

    # -- decoding -----------------------------------------------------
    def _survivors(self, shares: dict[int, bytes]) -> tuple[np.ndarray, np.ndarray]:
        """(k x k decode matrix, k stacked share rows) for the first k shares."""
        if len(shares) < self.k:
            raise ValueError(f"need at least {self.k} shares, got {len(shares)}")
        if any(not 0 <= i < self.n for i in shares):
            raise ValueError(f"share index out of range 0..{self.n - 1}")
        idx = sorted(shares)[: self.k]
        share_len = len(shares[idx[0]])
        if any(len(shares[i]) != share_len for i in idx):
            raise ValueError("shares have inconsistent lengths")
        stacked = np.stack(
            [np.frombuffer(shares[i], dtype=np.uint8) for i in idx]
        )
        return GF256.mat_inv(self.matrix[idx, :]), stacked

    def decode(self, shares: dict[int, bytes], data_len: int) -> bytes:
        """Recover the original data from any k shares.

        ``shares`` maps share index (0..k+m-1) to its bytes; exactly the
        available subset.  Raises if fewer than k are supplied.
        """
        inv, stacked = self._survivors(shares)
        data_rows = GF256.mat_mul(inv, stacked)
        out = data_rows.reshape(-1)[:data_len]
        return out.tobytes()

    def reconstruct_share(self, shares: dict[int, bytes], target: int, data_len: int) -> bytes:
        """Rebuild one missing share (degraded-mode repair)."""
        if not 0 <= target < self.k + self.m:
            raise ValueError("share index out of range")
        inv, stacked = self._survivors(shares)
        if target in shares:
            return bytes(shares[target])
        # one row of the generator through the decode matrix: 1 x k, not k + m rows
        row = GF256.mat_mul(self.matrix[target:target + 1], inv)
        return GF256.mat_mul(row, stacked)[0].tobytes()
