"""RADOS-lite: a replicated object store in the Ceph lineage.

The report counts Ceph among the projects "PDSI significantly incubated"
(§1.1); its storage layer RADOS (Weil et al., PDSW'07 — presented at the
PDSI workshop) keeps data available through OSD failures with
CRUSH-placed primary-copy replication and automatic re-peering.

:class:`repro.rados.cluster.RadosCluster` is a working in-memory
implementation: an epoch-versioned OSD map, straw placement over the *up*
set (:func:`repro.placement.strategies.straw_order`, so it adapts
minimally to failures), primary-copy writes, failure/rejoin handling
with recovery-data accounting, and degraded-mode reads.
"""

from repro.rados.cluster import OSDMap, RadosCluster, RadosError

__all__ = ["OSDMap", "RadosCluster", "RadosError"]
