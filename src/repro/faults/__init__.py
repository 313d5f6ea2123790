"""Fault injection and degraded-mode operation for the simulated stack.

The PDSI report's reliability thread (MTTI projections, Daly checkpoint
models, disk-failure analysis in :mod:`repro.failure`) was analytical
only — no failure ever happened *inside* the discrete-event simulator.
This package closes the loop:

* :class:`FaultSchedule` / :class:`FaultEvent` — deterministic, seeded
  timed faults (server crash/recover, disk slowdown, fabric port
  blackout, application interrupts) injected as simulator processes;
* :class:`FaultableServer` — the one crash/park/recover/slowdown
  implementation every simulated server class derives from;
* :class:`ResilienceParams` — per-op timeouts, retry budget, capped
  exponential backoff with jitter for ``SimPFS`` clients
  (:data:`NO_RETRIES`: one attempt, no timer — the default);
* :class:`RedundancySpec` — the ``PFSParams.redundancy`` knob
  (``"mirror:c"`` / ``"rs:k+m"``), backing degraded reads with
  :class:`repro.erasure.reedsolomon.ReedSolomon`;
* the error taxonomy: :class:`ServerDown`, :class:`OpTimeout`,
  :class:`RetriesExhausted` (all :class:`FaultError`).

Every fault, retry, failover, and reconstruction is counted in the
active :mod:`repro.obs` registry under ``faults.*``; see docs/faults.md.
"""

from repro.faults.errors import FaultError, OpTimeout, RetriesExhausted, ServerDown
from repro.faults.resilience import NO_RETRIES, RedundancySpec, ResilienceParams
from repro.faults.schedule import KINDS, FaultEvent, FaultSchedule
from repro.faults.server import FaultableServer

__all__ = [
    "KINDS",
    "NO_RETRIES",
    "FaultError",
    "FaultEvent",
    "FaultSchedule",
    "FaultableServer",
    "OpTimeout",
    "RedundancySpec",
    "ResilienceParams",
    "RetriesExhausted",
    "ServerDown",
]
