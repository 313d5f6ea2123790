"""Positional magnetic-disk model.

The model captures the three costs that matter for the PDSI experiments:

* **seek** — head movement, scaled by the fraction of the platter crossed
  (square-root profile, the standard first-order fit to real seek curves);
* **rotational latency** — half a revolution on average after a seek;
* **transfer** — bytes divided by the sustained media rate (zoned: outer
  tracks are faster than inner).

Sequential accesses (next byte after the previous request) skip seek and
rotation entirely, which is exactly the asymmetry PLFS exploits: a stream
of small *random* writes pays ~10 ms each, the same bytes written
*sequentially* pay only transfer time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class DiskParams:
    """Parameter set for one disk model.

    Attributes
    ----------
    capacity_bytes: addressable capacity.
    min_seek_s / avg_seek_s / max_seek_s: seek-curve anchors.
    rpm: spindle speed; rotational latency averages half a revolution.
    outer_rate_Bps / inner_rate_Bps: zoned sustained transfer rates.
    track_skew_penalty_s: extra cost when a sequential run crosses a track
        boundary (kept small; folded into the effective rate).
    """

    name: str = "7200rpm-sata"
    capacity_bytes: int = 500 * 10**9
    min_seek_s: float = 0.0006
    avg_seek_s: float = 0.0085
    max_seek_s: float = 0.016
    rpm: float = 7200.0
    outer_rate_Bps: float = 90e6
    inner_rate_Bps: float = 45e6

    @property
    def rotation_s(self) -> float:
        return 60.0 / self.rpm

    @property
    def avg_rotational_latency_s(self) -> float:
        return 0.5 * self.rotation_s


#: Commodity SATA drive of the report era (~90 IOPS, ~80-90 MB/s streaming).
SEVEN_K2_SATA = DiskParams()

#: Enterprise 15k SAS drive.
FIFTEEN_K_SAS = DiskParams(
    name="15k-sas",
    capacity_bytes=146 * 10**9,
    min_seek_s=0.0004,
    avg_seek_s=0.0035,
    max_seek_s=0.008,
    rpm=15000.0,
    outer_rate_Bps=160e6,
    inner_rate_Bps=90e6,
)


class Disk:
    """A single disk with positional state.

    Use :meth:`service_time` for the pure cost of a request given the
    current head position, or :meth:`access` to perform it: the same cost,
    plus the head move and the request counters.  Queueing for the head is
    the caller's (a storage server serializes its own requests).
    """

    def __init__(self, params: DiskParams = SEVEN_K2_SATA, name: str = "disk") -> None:
        self.params = params
        self.name = name
        self.head_pos: int = 0  # byte offset the head is parked after
        self.busy_time = 0.0
        self.bytes_read = 0
        self.bytes_written = 0
        self.requests = 0
        self.seeks = 0

    # -- pure model ---------------------------------------------------
    def seek_time(self, from_byte: int, to_byte: int) -> float:
        """Seek-curve cost for moving the head between byte offsets."""
        p = self.params
        dist = abs(to_byte - from_byte) / max(p.capacity_bytes, 1)
        if dist == 0.0:
            return 0.0
        # sqrt profile anchored so that the mean over uniform random pairs
        # (E[sqrt(d)] with d~triangular ~ 0.52) lands near avg_seek_s.
        return p.min_seek_s + (p.max_seek_s - p.min_seek_s) * math.sqrt(dist)

    def transfer_rate(self, at_byte: int) -> float:
        """Zoned media rate: linear interpolation outer -> inner."""
        p = self.params
        frac = min(max(at_byte / max(p.capacity_bytes, 1), 0.0), 1.0)
        return p.outer_rate_Bps + frac * (p.inner_rate_Bps - p.outer_rate_Bps)

    def service_time(self, offset: int, nbytes: int) -> float:
        """Cost of one request from the current head position (pure).

        Does not mutate state; callers wanting stateful accounting use
        :meth:`access`.
        """
        if nbytes < 0 or offset < 0:
            raise ValueError("offset and nbytes must be non-negative")
        t = 0.0
        if offset != self.head_pos:
            t += self.seek_time(self.head_pos, offset)
            t += self.params.avg_rotational_latency_s
        if nbytes:
            t += nbytes / self.transfer_rate(offset)
        return t

    def access(self, offset: int, nbytes: int, write: bool = False) -> float:
        """Perform a request: returns its service time and updates state."""
        t = self.service_time(offset, nbytes)
        if offset != self.head_pos:
            self.seeks += 1
        self.head_pos = offset + nbytes
        self.busy_time += t
        self.requests += 1
        if write:
            self.bytes_written += nbytes
        else:
            self.bytes_read += nbytes
        return t

    # -- reporting ------------------------------------------------------
    def stats(self) -> dict:
        return {
            "requests": self.requests,
            "seeks": self.seeks,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "busy_time_s": self.busy_time,
        }

    def reset_position(self, offset: int = 0) -> None:
        self.head_pos = offset
