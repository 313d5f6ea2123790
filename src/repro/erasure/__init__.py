"""Erasure coding and storage reliability (report: GPU Reed-Solomon RAID
[Curry et al.], DiskReduce, 'Disaster Recovery Codes', RAID reliability).

A complete GF(256) Reed-Solomon codec (systematic, Vandermonde-derived
encoding matrix, any ``m`` erasures of ``k+m`` shares recoverable),
vectorized over numpy byte arrays, plus the MTTDL reliability models the
PDSI storage-reliability work leans on and DiskReduce's
replication-to-erasure capacity accounting.
"""

from repro.erasure.gf256 import GF256
from repro.erasure.reedsolomon import ReedSolomon
from repro.erasure.reliability import (
    diskreduce_capacity_overhead,
    mttdl_mirrored,
    mttdl_rs,
)

__all__ = [
    "GF256",
    "ReedSolomon",
    "diskreduce_capacity_overhead",
    "mttdl_mirrored",
    "mttdl_rs",
]
