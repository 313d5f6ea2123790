"""Storage-array reliability models and DiskReduce capacity accounting.

Classic Markov MTTDL approximations (independent exponential failures,
exponential repairs) for mirroring and general k+m Reed-Solomon groups
(RAID-5 is k+1), plus the capacity arithmetic behind DiskReduce's thesis that
3-way replication in data-intensive clusters should become erasure
coding (200% overhead -> ~25-40%).
"""

from __future__ import annotations



def _check(mttf_h: float, mttr_h: float) -> None:
    if mttf_h <= 0 or mttr_h <= 0:
        raise ValueError("MTTF and MTTR must be positive")
    if mttr_h >= mttf_h:
        raise ValueError("model assumes MTTR << MTTF")


def mttdl_mirrored(mttf_h: float, mttr_h: float, n_pairs: int = 1) -> float:
    """MTTDL (hours) of n mirrored pairs."""
    _check(mttf_h, mttr_h)
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    single = mttf_h**2 / (2.0 * mttr_h)
    return single / n_pairs


def mttdl_rs(mttf_h: float, mttr_h: float, k: int, m: int) -> float:
    """MTTDL (hours) of one k+m erasure group (tolerates m failures).

    Birth-death chain: data loss requires m+1 overlapping failures.
    MTTDL ~ MTTF^(m+1) / [ (prod_{i=0..m} (n-i)) * MTTR^m ].
    """
    _check(mttf_h, mttr_h)
    if k < 1 or m < 0:
        raise ValueError("need k >= 1, m >= 0")
    n = k + m
    denom = 1.0
    for i in range(m + 1):
        denom *= (n - i)
    return mttf_h ** (m + 1) / (denom * mttr_h**m)


def diskreduce_capacity_overhead(scheme: str, k: int = 8, m: int = 2) -> float:
    """Raw-capacity overhead of a protection scheme (0.0 = none).

    '3-replication' -> 2.0 (three copies); 'rs' -> m/k (e.g. 8+2 -> 0.25),
    DiskReduce's headline saving.
    """
    if scheme == "3-replication":
        return 2.0
    if scheme == "2-replication":
        return 1.0
    if scheme == "rs":
        if k < 1 or m < 0:
            raise ValueError("bad k/m")
        return m / k
    raise ValueError(f"unknown scheme {scheme!r}")
