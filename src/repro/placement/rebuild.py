"""Fault-aware re-placement for rebuilt shares.

Where :class:`repro.placement.congestion.CongestionAwarePlacement`
steers *new* stripes off hot switch ports, this module steers *rebuilt*
shares off flapping servers — the machine that crashed twice in the last
minute is the worst possible home for the share you are rebuilding
because the last machine like it died.

Same two invariants, transplanted:

* **degrade-to-base** — with no crash history (all flap scores zero) the
  choice is exactly the ring successor of the lost share's old server,
  the same structure the degraded-write redirect
  (``SimPFS._redirect_target``) uses;
* **hysteresis** — a diversion must beat the base choice's flap score by
  at least ``hysteresis``, so near-equal candidates do not make the
  replacer itself flap.

:class:`FlapStats` is the telemetry half: per-server crash counts folded
into an exponentially-decayed score (recent crashes dominate, ancient
history is forgiven), fed by the scrubber from the servers' own crash
counters at each scan.  Everything is pure arithmetic on caller-supplied
timestamps — deterministic, no sim-time cost, no RNG.
"""

from __future__ import annotations

import math
from typing import Callable, Optional


class FlapStats:
    """Exponentially-decayed per-server crash score.

    ``record(server, n, now)`` adds ``n`` fresh crashes; ``score(server,
    now)`` reads the decayed total.  ``decay_s`` is the e-folding time:
    a crash contributes 1.0 immediately, ~0.37 one decay later.
    """

    def __init__(self, n_servers: int, decay_s: float = 60.0) -> None:
        if n_servers < 1:
            raise ValueError(f"n_servers must be >= 1, got {n_servers}")
        if decay_s <= 0:
            raise ValueError(f"decay_s must be > 0, got {decay_s}")
        self.n_servers = n_servers
        self.decay_s = decay_s
        self._score = [0.0] * n_servers
        self._at = [0.0] * n_servers

    def _decayed(self, server: int, now: float) -> float:
        dt = now - self._at[server]
        if dt <= 0.0:
            return self._score[server]
        return self._score[server] * math.exp(-dt / self.decay_s)

    def record(self, server: int, n: float, now: float) -> None:
        if n < 0:
            raise ValueError(f"crash count must be >= 0, got {n}")
        self._score[server] = self._decayed(server, now) + n
        self._at[server] = now

    def score(self, server: int, now: float) -> float:
        return self._decayed(server, now)


class RebuildPlacement:
    """Choose the replacement server for one lost share.

    Candidates are the servers for which ``ok(server)`` holds (up, not
    holding a live share of the same group, not mid-wipe — the scrubber
    supplies the predicate).  The base choice is the first candidate
    after the lost share's old server in ring order; a candidate with a
    flap score lower by at least ``hysteresis`` diverts the placement,
    ties resolved toward the base (and, among diversions, toward ring
    order — fully deterministic).
    """

    def __init__(
        self,
        n_servers: int,
        flaps: Optional[FlapStats] = None,
        hysteresis: float = 0.5,
    ) -> None:
        if flaps is not None and flaps.n_servers != n_servers:
            raise ValueError(
                f"flap stats cover {flaps.n_servers} servers, placement has {n_servers}"
            )
        self.n_servers = n_servers
        self.flaps = flaps
        self.hysteresis = hysteresis
        self.diversions = 0  # shares steered away from the ring successor

    def choose(
        self,
        lost_server: int,
        ok: Callable[[int], bool],
        now: float = 0.0,
    ) -> Optional[int]:
        """The replacement server, or ``None`` when no candidate is ok."""
        n = self.n_servers
        ring = [(lost_server + j) % n for j in range(1, n + 1)]
        candidates = [s for s in ring if ok(s)]
        if not candidates:
            return None
        base = candidates[0]
        if self.flaps is None:
            return base
        best, best_score = base, self.flaps.score(base, now)
        for s in candidates[1:]:
            sc = self.flaps.score(s, now)
            if sc < best_score - self.hysteresis:
                best, best_score = s, sc
        if best != base:
            self.diversions += 1
        return best


__all__ = ["FlapStats", "RebuildPlacement"]
