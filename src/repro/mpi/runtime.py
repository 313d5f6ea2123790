"""Generator-based SPMD runtime with MPI-style collectives.

Rank functions are generators: every communication point is a ``yield`` of
an operation descriptor produced by the rank's :class:`Comm`.  The runtime
advances ranks round-robin; a collective completes when every rank has
yielded its matching descriptor, after which all ranks are resumed (in rank
order) with their results.

A collective that the ranks do not all reach in step (different kinds,
or a rank that has already returned) is raised as :class:`MPIError`
rather than hanging.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional


class MPIError(RuntimeError):
    """Collective mismatch or protocol misuse."""


# ---------------------------------------------------------------- ops
@dataclass
class _Collective:
    kind: str                      # 'barrier', 'allgather', 'allreduce'
    value: Any = None
    op: Optional[Callable[[Any, Any], Any]] = None


class Comm:
    """Per-rank communicator handle (create via :func:`run_spmd`)."""

    def __init__(self, rank: int, size: int) -> None:
        self.rank = rank
        self.size = size

    # -- collectives (yield the returned descriptor) -----------------
    def barrier(self) -> _Collective:
        return _Collective("barrier")

    def allgather(self, value: Any) -> _Collective:
        return _Collective("allgather", value=value)

    def allreduce(self, value: Any, op: Callable = operator.add) -> _Collective:
        return _Collective("allreduce", value=value, op=op)


@dataclass
class _RankState:
    gen: Generator
    comm: Comm
    blocked_on: Optional[_Collective] = None
    send_value: Any = None          # value to resume with
    finished: bool = False
    result: Any = None


def _compute_collective(kind: str, states: list[_RankState]) -> list[Any]:
    """Results, indexed by rank, for one completed collective."""
    descs: list[_Collective] = [s.blocked_on for s in states]
    n = len(states)
    if kind == "barrier":
        return [None] * n
    if kind == "allgather":
        everyone = [d.value for d in descs]
        return [list(everyone)] * n
    acc = functools.reduce(descs[0].op, (d.value for d in descs))  # allreduce
    return [acc] * n


def run_spmd(size: int, fn: Callable[..., Generator], *args: Any, **kwargs: Any) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` as ``size`` ranks; return results.

    ``fn`` must be a generator function; its return value (via ``return``)
    becomes that rank's entry in the returned list.
    """
    if size < 1:
        raise MPIError("need at least one rank")
    states = []
    for r in range(size):
        comm = Comm(r, size)
        gen = fn(comm, *args, **kwargs)
        if not hasattr(gen, "send"):
            raise MPIError("rank function must be a generator function")
        states.append(_RankState(gen=gen, comm=comm))

    def step(state: _RankState) -> None:
        """Advance one rank until it blocks or finishes."""
        value, state.send_value = state.send_value, None
        try:
            yielded = state.gen.send(value)  # send(None) starts a fresh generator
        except StopIteration as stop:
            state.finished = True
            state.result = stop.value
            return
        if not isinstance(yielded, _Collective):
            raise MPIError(f"rank {state.comm.rank} yielded unsupported {yielded!r}")
        state.blocked_on = yielded

    # main loop: advance every rank to its next collective, then resolve it
    for st in states:
        step(st)
    while not all(s.finished for s in states):
        if any(s.finished for s in states):
            bad = [s.comm.rank for s in states if s.finished]
            raise MPIError(f"ranks {bad} exited while others wait in a collective")
        kinds = {s.blocked_on.kind for s in states}
        if len(kinds) != 1:
            raise MPIError(f"collective mismatch: kinds={kinds}")
        results = _compute_collective(kinds.pop(), states)
        for st, result in zip(states, results):
            st.send_value = result
            step(st)
    return [s.result for s in states]
