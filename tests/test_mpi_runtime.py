"""Tests for the in-process SPMD/mini-MPI runtime."""

import operator

import pytest

from repro.mpi import MPIError, run_spmd


def test_allreduce_sum():
    def app(comm):
        total = yield comm.allreduce(comm.rank)
        return total

    assert run_spmd(4, app) == [6, 6, 6, 6]


def test_allreduce_custom_op():
    def app(comm):
        m = yield comm.allreduce(comm.rank + 1, op=operator.mul)
        return m

    assert run_spmd(4, app) == [24] * 4


def test_allgather():
    def app(comm):
        ag = yield comm.allgather(comm.rank)
        return ag

    assert run_spmd(3, app) == [[0, 1, 2]] * 3


def test_barrier_synchronizes_phases():
    order = []

    def app(comm):
        order.append(("pre", comm.rank))
        yield comm.barrier()
        order.append(("post", comm.rank))

    run_spmd(3, app)
    pre = [i for (phase, i) in order if phase == "pre"]
    post_start = order.index(("post", 0))
    assert len(pre) == 3
    assert all(phase == "post" for phase, _ in order[post_start:])


def test_collective_mismatch_detected():
    def app(comm):
        if comm.rank == 0:
            yield comm.barrier()
        else:
            yield comm.allgather(1)

    with pytest.raises(MPIError, match="mismatch"):
        run_spmd(2, app)


def test_rank_exit_during_collective_detected():
    def app(comm):
        if comm.rank == 0:
            return "left early"
        yield comm.barrier()

    with pytest.raises(MPIError, match="exited"):
        run_spmd(2, app)


def test_single_rank_and_bad_size():
    def app(comm):
        yield comm.barrier()
        return comm.size

    assert run_spmd(1, app) == [1]
    with pytest.raises(MPIError):
        run_spmd(0, app)


def test_non_generator_rejected():
    with pytest.raises(MPIError):
        run_spmd(2, lambda comm: 42)


def test_args_passed_through():
    def app(comm, base, scale=1):
        total = yield comm.allreduce(base * scale)
        return total

    assert run_spmd(2, app, 3, scale=10) == [60, 60]
