"""Error taxonomy for fault-injected runs.

The data path of :class:`repro.pfs.SimPFS` has three distinguishable
failure modes once a :class:`~repro.faults.FaultSchedule` is in play:

* :class:`ServerDown` — a storage server rejected the request outright
  (crashed in ``reject`` mode: the "connection refused" case);
* :class:`OpTimeout` — the per-operation timeout expired with no reply
  (crashed in ``park`` mode, or a blacked-out fabric port: the
  "silent loss" case);
* :class:`RetriesExhausted` — the client's retry budget ran out and no
  redundancy could cover the loss; the operation failed for real.

All three derive from :class:`FaultError` so middleware can catch the
whole family, and each records where/when it happened for diagnosis.
"""

from __future__ import annotations


class FaultError(Exception):
    """Base class for injected-fault failures in the simulated stack."""


class ServerDown(FaultError):
    """The target storage server is crashed and rejected the request."""

    def __init__(self, server: int, at_s: float) -> None:
        super().__init__(f"server {server} is down (rejected at t={at_s:.6f}s)")
        self.server = server
        self.at_s = at_s


class OpTimeout(FaultError):
    """The per-operation timeout expired before the server replied."""

    def __init__(self, server: int, at_s: float, timeout_s: float) -> None:
        super().__init__(
            f"request to server {server} timed out after {timeout_s:.6f}s "
            f"(at t={at_s:.6f}s)"
        )
        self.server = server
        self.at_s = at_s
        self.timeout_s = timeout_s


class RetriesExhausted(FaultError):
    """The retry budget ran out with no redundancy left to cover the op."""

    def __init__(self, server: int, at_s: float, attempts: int, last: Exception) -> None:
        super().__init__(
            f"gave up on server {server} after {attempts} attempts "
            f"(at t={at_s:.6f}s; last error: {last})"
        )
        self.server = server
        self.at_s = at_s
        self.attempts = attempts
        self.last = last
