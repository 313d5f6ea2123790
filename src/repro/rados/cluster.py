"""Replicated object store with CRUSH-style adaptive placement."""

from __future__ import annotations

from dataclasses import dataclass

from repro.placement.strategies import straw_order


class RadosError(RuntimeError):
    """Unsatisfiable placement or lost object."""


@dataclass(frozen=True)
class OSDMap:
    """Epoch-versioned cluster membership."""

    epoch: int
    n_osds: int
    up: frozenset[int]

    def require_quorum(self, replicas: int) -> None:
        if len(self.up) < replicas:
            raise RadosError(
                f"only {len(self.up)} OSDs up; cannot place {replicas} replicas"
            )


class RadosCluster:
    """In-memory object store: writes replicate, failures re-peer."""

    def __init__(self, n_osds: int = 8, replicas: int = 3) -> None:
        if not 1 <= replicas <= n_osds:
            raise ValueError("need 1 <= replicas <= n_osds")
        self.replicas = replicas
        self.osdmap = OSDMap(epoch=1, n_osds=n_osds, up=frozenset(range(n_osds)))
        # per-OSD object storage
        self._store: list[dict[str, bytes]] = [dict() for _ in range(n_osds)]
        self._objects: dict[str, int] = {}   # name -> version
        self.recovered_bytes = 0             # moved during re-peering
        self.epoch_history: list[int] = [1]

    # -- placement ---------------------------------------------------------
    def acting_set(self, name: str) -> list[int]:
        """Primary-first replica set for an object under the current map."""
        self.osdmap.require_quorum(self.replicas)
        return straw_order((name, "rados"), self.osdmap.up)[: self.replicas]

    def primary(self, name: str) -> int:
        return self.acting_set(name)[0]

    # -- client operations ------------------------------------------------------
    def write(self, name: str, data: bytes) -> list[int]:
        """Primary-copy write: lands on the whole acting set."""
        acting = self.acting_set(name)
        for o in acting:
            self._store[o][name] = bytes(data)
        self._objects[name] = self._objects.get(name, 0) + 1
        return acting

    def read(self, name: str) -> bytes:
        """Read from the primary (it always holds a copy after peering)."""
        if name not in self._objects:
            raise KeyError(name)
        primary = self.primary(name)
        try:
            return self._store[primary][name]
        except KeyError:
            raise RadosError(f"object {name!r} missing on primary {primary}") from None

    def delete(self, name: str) -> None:
        if name not in self._objects:
            raise KeyError(name)
        for o in range(self.osdmap.n_osds):
            self._store[o].pop(name, None)
        del self._objects[name]

    # -- membership changes -----------------------------------------------------
    def fail_osd(self, osd: int) -> int:
        """Mark an OSD down; its data is gone.  Returns bytes recovered."""
        self._change_up(self.osdmap.up - {osd})
        self._store[osd] = {}
        return self._repeer()

    def rejoin_osd(self, osd: int) -> int:
        """An OSD returns empty (disk replaced); backfill what it now owns."""
        if osd >= self.osdmap.n_osds:
            raise ValueError("unknown OSD")
        self._change_up(self.osdmap.up | {osd})
        return self._repeer()

    def _change_up(self, up: frozenset[int]) -> None:
        self.osdmap = OSDMap(
            epoch=self.osdmap.epoch + 1, n_osds=self.osdmap.n_osds, up=up
        )
        self.epoch_history.append(self.osdmap.epoch)

    def _repeer(self) -> int:
        """Restore every object's acting set from surviving copies."""
        moved = 0
        for name in self._objects:
            acting = self.acting_set(name)
            source = None
            for o in range(self.osdmap.n_osds):
                if name in self._store[o] and o in self.osdmap.up:
                    source = o
                    break
            if source is None:
                raise RadosError(f"object {name!r} lost: no surviving replica")
            data = self._store[source][name]
            for o in acting:
                if name not in self._store[o]:
                    self._store[o][name] = data
                    moved += len(data)
                    self.recovered_bytes += len(data)
            # trim copies no longer in the acting set (on up OSDs)
            for o in self.osdmap.up:
                if o not in acting:
                    self._store[o].pop(name, None)
        return moved

    # -- health ----------------------------------------------------------------
    def degraded_objects(self) -> list[str]:
        """Objects currently holding fewer than ``replicas`` copies."""
        out = []
        for name in self._objects:
            copies = sum(
                1 for o in self.osdmap.up if name in self._store[o]
            )
            if copies < self.replicas:
                out.append(name)
        return sorted(out)

    def check_invariants(self) -> None:
        """Every object fully replicated on exactly its acting set."""
        for name in self._objects:
            acting = set(self.acting_set(name))
            holders = {
                o for o in self.osdmap.up if name in self._store[o]
            }
            assert holders == acting, (name, holders, acting)

    def total_stored_bytes(self) -> int:
        return sum(len(d) for s in self._store for d in s.values())
