"""Checkpoint/restart workload under injected faults (Daly, end to end).

:func:`repro.failure.checkpoint.expected_utilization` predicts the useful
fraction of wall-clock time from four scalars (MTTI, dump time, interval,
restart cost).  This driver *measures* the same quantity from a simulated
application running against :class:`repro.pfs.SimPFS` in degraded mode:

* the application computes in ``tau_s`` segments and dumps an IOR-style
  N-1 checkpoint (one partition per rank) through real ``op_write``\\ s;
* application interrupts come from a :class:`repro.faults.FaultSchedule`
  (``app_interrupt`` events, typically derived from a synthetic LANL
  trace); an interrupt mid-segment loses the segment, an interrupt during
  a dump voids the checkpoint, and every failure pays ``restart_s`` plus
  a real read-back of the last committed checkpoint;
* the same schedule may crash storage servers, so dumps and restores run
  against dead servers — exercising retry/backoff, redirected writes,
  and erasure-coded reconstruction (``redundancy="rs:k+m"``).

``benchmarks/test_x16_faulted_checkpoint.py`` closes the loop: measured
utilization must track the Daly closed form within tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults.schedule import FaultSchedule
from repro.pfs.params import PFSParams
from repro.pfs.system import SimPFS
from repro.sim import Simulator, Timeout


@dataclass(frozen=True)
class FaultedCheckpointResult:
    """Measured outcome of one faulted checkpoint run."""

    work_s: float
    makespan_s: float
    failures: int
    checkpoints: int
    restores: int
    dump_s_mean: float
    data_loss: bool
    server_downtime_s: float
    requests_rejected: float

    @property
    def utilization(self) -> float:
        """Useful compute fraction — compare with Daly's closed form."""
        return self.work_s / self.makespan_s if self.makespan_s > 0 else 0.0


def run_faulted_checkpoint(
    params: PFSParams,
    *,
    work_s: float,
    tau_s: float,
    ckpt_bytes: int,
    n_ranks: int = 4,
    restart_s: float = 5.0,
    faults: Optional[FaultSchedule] = None,
    path: str = "/ckpt",
) -> FaultedCheckpointResult:
    """Run ``work_s`` of compute checkpointing every ``tau_s`` under faults.

    ``faults`` supplies both the application interrupts (``app_interrupt``
    events, consumed here) and any storage faults (``server_crash`` etc.,
    injected into the PFS).  Raises whatever the client request path
    raises when redundancy cannot mask a fault — notably
    :class:`repro.faults.RetriesExhausted` with ``redundancy=None`` and a
    long server outage.
    """
    if work_s <= 0 or tau_s <= 0:
        raise ValueError("work_s and tau_s must be positive")
    if ckpt_bytes < 1 or n_ranks < 1:
        raise ValueError("ckpt_bytes and n_ranks must be >= 1")
    sim = Simulator()
    pfs = SimPFS(sim, params)
    sim.spawn(pfs.op_create(0, path))
    sim.run()
    start = sim.now
    if faults is not None:
        faults.inject(sim, pfs)
    interrupts = faults.app_interrupt_times() if faults is not None else []
    per_rank = -(-ckpt_bytes // n_ranks)
    total_bytes = per_rank * n_ranks
    state = {
        "done": 0.0,
        "failures": 0,
        "checkpoints": 0,
        "restores": 0,
        "dump_s": [],
        "data_loss": False,
        "end": start,
    }

    def rank_write(rank: int):
        yield from pfs.op_write(rank, path, rank * per_rank, per_rank)

    def rank_read(rank: int):
        yield from pfs.op_read(rank, path, rank * per_rank, per_rank)

    def restore():
        state["restores"] += 1
        if pfs.lookup(path).size < total_bytes:
            # a committed checkpoint must be fully readable — anything
            # less is data loss the redundancy layer failed to mask
            state["data_loss"] = True
        procs = [sim.spawn(rank_read(r), name=f"restore{r}") for r in range(n_ranks)]
        for p in procs:
            yield p

    def app():
        idx = 0
        committed = False

        def next_interrupt() -> float:
            # absolute sim time of the next not-yet-consumed interrupt
            nonlocal idx
            while idx < len(interrupts) and start + interrupts[idx] <= sim.now:
                idx += 1
            return start + interrupts[idx] if idx < len(interrupts) else float("inf")

        while state["done"] < work_s:
            remaining = work_s - state["done"]
            interval = min(tau_s, remaining)
            nxt = next_interrupt()
            if sim.now + interval > nxt:
                # interrupted mid-segment: lose the segment, restart
                yield Timeout(max(0.0, nxt - sim.now))
                state["failures"] += 1
                yield Timeout(restart_s)
                if committed:
                    yield from restore()
                continue
            yield Timeout(interval)
            if remaining > interval:
                t0 = sim.now
                nxt = next_interrupt()
                procs = [
                    sim.spawn(rank_write(r), name=f"dump{r}") for r in range(n_ranks)
                ]
                for p in procs:
                    yield p
                state["dump_s"].append(sim.now - t0)
                if nxt <= sim.now:
                    # interrupt landed during the dump: checkpoint void
                    state["failures"] += 1
                    yield Timeout(restart_s)
                    if committed:
                        yield from restore()
                    continue
                committed = True
                state["checkpoints"] += 1
            state["done"] += interval
        state["end"] = sim.now

    sim.spawn(app(), name="app")
    sim.run()
    if state["checkpoints"] and pfs.lookup(path).size < total_bytes:
        state["data_loss"] = True
    stats = pfs.server_stats()
    dump_s = state["dump_s"]
    return FaultedCheckpointResult(
        work_s=work_s,
        makespan_s=state["end"] - start,
        failures=state["failures"],
        checkpoints=state["checkpoints"],
        restores=state["restores"],
        dump_s_mean=sum(dump_s) / len(dump_s) if dump_s else 0.0,
        data_loss=state["data_loss"],
        server_downtime_s=sum(s["downtime_s"] for s in stats),
        requests_rejected=sum(s["requests_rejected"] for s in stats),
    )
