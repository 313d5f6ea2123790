"""GF(2^8) arithmetic with log/antilog tables (AES polynomial 0x11d).

Elementwise ``mul`` goes through the log/antilog tables.  ``mat_mul``,
the kernel under Reed-Solomon encode and decode, uses the 256x256 product
table built from ``mul`` at import: one row of the table per coefficient
turns "multiply a whole byte row by c" into a single gather — the same
structure GPU RAID kernels use, which is why Reed-Solomon maps so well
onto them (Curry et al., IPDPS'08).
"""

from __future__ import annotations

import numpy as np

_PRIM_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= _PRIM_POLY
    exp[255:510] = exp[0:255]  # wraparound so exp[a+b] needs no mod
    return exp, log


class GF256:
    """The field GF(2^8); all operations accept ints or uint8 arrays."""

    EXP, LOG = _build_tables()
    MUL_TABLE: np.ndarray   # every product of two bytes; built from mul() below

    @classmethod
    def add(cls, a, b):
        """Addition = XOR (characteristic 2)."""
        return np.bitwise_xor(a, b)

    sub = add  # subtraction equals addition in GF(2^n)

    @classmethod
    def mul(cls, a, b):
        a = np.asarray(a, dtype=np.uint8)
        b = np.asarray(b, dtype=np.uint8)
        out = cls.EXP[(cls.LOG[a].astype(np.int64) + cls.LOG[b]) % 255]
        # anything times zero is zero (log(0) is a hole in the table)
        zero = (a == 0) | (b == 0)
        if out.shape == ():
            return np.uint8(0) if zero else out
        out = out.copy()
        out[zero] = 0
        return out

    @classmethod
    def inv(cls, a):
        a = np.asarray(a, dtype=np.uint8)
        if np.any(a == 0):
            raise ZeroDivisionError("0 has no inverse in GF(256)")
        return cls.EXP[(255 - cls.LOG[a]) % 255]

    @classmethod
    def div(cls, a, b):
        return cls.mul(a, cls.inv(b))

    @classmethod
    def pow(cls, a: int, n: int):
        if a == 0:
            return np.uint8(0 if n else 1)
        return cls.EXP[(int(cls.LOG[a]) * n) % 255]

    # -- matrix helpers (small matrices, elements uint8) ------------------
    @classmethod
    def mat_mul(cls, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Matrix product over GF(256)."""
        A = np.asarray(A, dtype=np.uint8)
        B = np.asarray(B, dtype=np.uint8)
        n, k = A.shape
        k2, m = B.shape
        if k != k2:
            raise ValueError("shape mismatch")
        out = np.zeros((n, m), dtype=np.uint8)
        tmp = np.empty(m, dtype=np.uint8)
        for r, coefs in enumerate(A.tolist()):
            acc = out[r]
            for c, coef in enumerate(coefs):
                if coef == 1:
                    acc ^= B[c]
                elif coef:
                    # mode="raise" would buffer `out`; a byte cannot be out of range
                    np.take(cls.MUL_TABLE[coef], B[c], out=tmp, mode="clip")
                    acc ^= tmp
        return out

    @classmethod
    def mat_inv(cls, A: np.ndarray) -> np.ndarray:
        """Gauss-Jordan inverse over GF(256); raises if singular."""
        A = np.asarray(A, dtype=np.uint8).copy()
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError("matrix must be square")
        aug = np.concatenate([A, np.eye(n, dtype=np.uint8)], axis=1)
        for col in range(n):
            pivot = None
            for row in range(col, n):
                if aug[row, col] != 0:
                    pivot = row
                    break
            if pivot is None:
                raise np.linalg.LinAlgError("singular matrix over GF(256)")
            if pivot != col:
                aug[[col, pivot]] = aug[[pivot, col]]
            aug[col] = cls.mul(aug[col], cls.inv(aug[col, col]))
            for row in range(n):
                if row != col and aug[row, col] != 0:
                    aug[row] ^= cls.mul(aug[row, col], aug[col])
        return aug[:, n:]


_BYTES = np.arange(256, dtype=np.uint8)
#: ``MUL_TABLE[a, b] == GF256.mul(a, b)`` for every pair of bytes
GF256.MUL_TABLE = GF256.mul(_BYTES[:, None], _BYTES[None, :])
