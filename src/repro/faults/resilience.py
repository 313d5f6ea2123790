"""Client-side resilience knobs and redundancy schemes.

:class:`ResilienceParams` configures the retry machinery
:class:`repro.pfs.SimPFS` wraps around every server request when fault
tolerance is enabled: a per-op timeout, a retry budget, and capped
exponential backoff with optional jitter (seeded RNG, mirroring the RTO
machinery in :mod:`repro.net.fabric`).

:class:`RedundancySpec` parses the ``PFSParams.redundancy`` knob:

* ``"none"`` / ``None`` — no redundancy (retries only);
* ``"mirror:c"`` — ``c`` full copies; tolerates ``c - 1`` failures,
  degraded reads fetch the surviving copy at no decode cost;
* ``"rs:k+m"`` — Reed-Solomon striping via
  :class:`repro.erasure.reedsolomon.ReedSolomon`; tolerates ``m``
  failures, degraded reads fetch ``k`` surviving shares and pay a
  GF(256) decode cost.

Neither class imports the file system — :mod:`repro.pfs.params` imports
*this* module, so the dependency stays one-way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class ResilienceParams:
    """Retry/backoff/timeout configuration for one client stack.

    Attributes
    ----------
    op_timeout_s: per-server-request timeout; a request with no reply by
        then raises :class:`~repro.faults.errors.OpTimeout`.  Must exceed
        the worst-case FIFO queue drain on one server under failover
        load, or timed-out-but-queued requests are retried into an
        already-full queue and the client talks itself into a retry storm
        (real deployments use tens of seconds for exactly this reason).
    max_retries: attempts *after* the first before
        :class:`~repro.faults.errors.RetriesExhausted`.
    backoff_base_s / backoff_max_s: capped exponential backoff — attempt
        ``i`` sleeps ``min(backoff_max_s, backoff_base_s * 2**i)``.
    jitter: scale each backoff by U[0.5, 1.5) from the seeded RNG, the
        same de-synchronisation trick as ``FabricParams.rto_jitter``.
    decode_Bps: GF(256) decode throughput charged during Reed-Solomon
        reconstruction (sim time, per reconstructed byte per share read).
    seed: backoff-jitter RNG seed; two same-seed runs are identical.
    """

    op_timeout_s: float = 2.0
    max_retries: int = 6
    backoff_base_s: float = 10e-3
    backoff_max_s: float = 0.5
    jitter: bool = True
    decode_Bps: float = 400e6
    seed: int = 42

    def __post_init__(self) -> None:
        if self.op_timeout_s <= 0:
            raise ValueError(f"op_timeout_s must be > 0, got {self.op_timeout_s}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s <= 0 or self.backoff_max_s < self.backoff_base_s:
            raise ValueError("need 0 < backoff_base_s <= backoff_max_s")
        if self.decode_Bps <= 0:
            raise ValueError(f"decode_Bps must be > 0, got {self.decode_Bps}")

    def backoff_s(self, attempt: int, rng: Optional[np.random.Generator] = None) -> float:
        """Backoff before retry ``attempt`` (0-based), jittered via ``rng``."""
        base = min(self.backoff_max_s, self.backoff_base_s * (2.0 ** attempt))
        if self.jitter and rng is not None:
            return base * (0.5 + float(rng.random()))
        return base


@dataclass(frozen=True)
class RedundancySpec:
    """A parsed redundancy scheme: ``kind`` plus data/parity geometry.

    ``k`` data shares and ``m`` parity shares; mirroring is normalised to
    ``k=1, m=copies-1`` so ``m`` is always the failure tolerance and
    ``m / k`` the capacity overhead.
    """

    kind: str  # "mirror" | "rs"
    k: int
    m: int

    def __post_init__(self) -> None:
        if self.kind not in ("mirror", "rs"):
            raise ValueError(f"redundancy kind must be 'mirror' or 'rs', got {self.kind!r}")
        if self.k < 1 or self.m < 1:
            raise ValueError(f"need k >= 1 and m >= 1, got k={self.k}, m={self.m}")
        if self.kind == "rs" and self.k + self.m > 255:
            raise ValueError(f"Reed-Solomon needs k + m <= 255, got {self.k + self.m}")

    @classmethod
    def parse(cls, spec) -> Optional["RedundancySpec"]:
        """Parse the ``PFSParams.redundancy`` knob; ``None``/``"none"`` → None."""
        if spec is None:
            return None
        if isinstance(spec, cls):
            return spec
        if not isinstance(spec, str):
            raise ValueError(f"redundancy spec must be a string, got {type(spec).__name__}")
        text = spec.strip().lower()
        if text in ("", "none"):
            return None
        try:
            if text.startswith("mirror:"):
                copies = int(text.split(":", 1)[1])
                if copies < 2:
                    raise ValueError
                return cls("mirror", 1, copies - 1)
            if text.startswith("rs:"):
                k_s, m_s = text.split(":", 1)[1].split("+")
                return cls("rs", int(k_s), int(m_s))
        except (ValueError, IndexError):
            pass
        raise ValueError(
            f"unrecognised redundancy spec {spec!r}; expected 'none', "
            "'mirror:<copies>', or 'rs:<k>+<m>'"
        )

    @property
    def tolerance(self) -> int:
        """Simultaneous server failures the scheme survives."""
        return self.m

    @property
    def reconstruct_read_shares(self) -> int:
        """Shares read to rebuild one lost share (mirror: 1, RS: k)."""
        return 1 if self.kind == "mirror" else self.k

    @property
    def min_servers(self) -> int:
        """Servers required so data + parity shares land on distinct hosts."""
        return self.k + self.m if self.kind == "rs" else self.m + 1

    def __str__(self) -> str:
        if self.kind == "mirror":
            return f"mirror:{self.m + 1}"
        return f"rs:{self.k}+{self.m}"
