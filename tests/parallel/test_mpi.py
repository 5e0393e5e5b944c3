"""The in-process MPI substrate: point-to-point, collectives, errors."""

import pytest

from repro.paper.mpi import ANY_SOURCE, SimComm, run_parallel


class TestWorldConstruction:
    def test_size_one(self):
        (comm,) = SimComm.world(1)
        assert comm.Get_rank() == 0
        assert comm.Get_size() == 1

    def test_bad_size(self):
        with pytest.raises(ValueError):
            SimComm.world(0)

    def test_properties(self):
        comms = SimComm.world(3)
        assert [c.rank for c in comms] == [0, 1, 2]
        assert all(c.size == 3 for c in comms)


class TestPointToPoint:
    def test_send_recv(self):
        def body(comm, rank):
            if rank == 0:
                comm.send({"a": 7}, dest=1, tag=11)
                return None
            return comm.recv(source=0, tag=11)

        results = run_parallel(2, body)
        assert results[1] == {"a": 7}

    def test_fifo_per_pair(self):
        def body(comm, rank):
            if rank == 0:
                for i in range(5):
                    comm.send(i, dest=1)
                return None
            return [comm.recv(source=0) for _ in range(5)]

        results = run_parallel(2, body)
        assert results[1] == [0, 1, 2, 3, 4]

    def test_any_source(self):
        def body(comm, rank):
            if rank == 0:
                got = sorted(comm.recv(source=ANY_SOURCE) for _ in range(2))
                return got
            comm.send(rank * 10, dest=0)
            return None

        results = run_parallel(3, body)
        assert results[0] == [10, 20]

    def test_tag_mismatch_raises(self):
        def body(comm, rank):
            if rank == 0:
                comm.send("x", dest=1, tag=1)
                return None
            with pytest.raises(ValueError):
                comm.recv(source=0, tag=2, timeout=5)
            return "checked"

        results = run_parallel(2, body)
        assert results[1] == "checked"

    def test_recv_timeout(self):
        def body(comm, rank):
            with pytest.raises(TimeoutError):
                comm.recv(source=0, timeout=0.05)
            return True

        assert run_parallel(1, body) == [True]

    def test_invalid_dest(self):
        def body(comm, rank):
            with pytest.raises(ValueError):
                comm.send(1, dest=5)
            return True

        assert run_parallel(2, body) == [True, True]

    def test_stats_accounting(self):
        def body(comm, rank):
            if rank == 0:
                comm.send([1, 2, 3], dest=1)
                comm.send("single", dest=1)
            else:
                comm.recv(source=0)
                comm.recv(source=0)
            return (comm.stats.messages_sent, comm.stats.payload_items)

        results = run_parallel(2, body)
        assert results[0] == (2, 4)  # list of 3 counts 3 items + 1


class TestCollectives:
    def test_bcast(self):
        def body(comm, rank):
            data = {"k": [1, 2]} if rank == 0 else None
            return comm.bcast(data, root=0)

        results = run_parallel(4, body)
        assert all(r == {"k": [1, 2]} for r in results)

    def test_gather(self):
        def body(comm, rank):
            return comm.gather(rank * rank, root=0)

        results = run_parallel(4, body)
        assert results[0] == [0, 1, 4, 9]
        assert results[1] is None

    def test_allgather(self):
        def body(comm, rank):
            return comm.allgather(rank + 1)

        results = run_parallel(3, body)
        assert all(r == [1, 2, 3] for r in results)

    def test_alltoall(self):
        def body(comm, rank):
            send = [f"{rank}->{d}" for d in range(comm.size)]
            return comm.alltoall(send)

        results = run_parallel(3, body)
        for rank, received in enumerate(results):
            assert received == [f"{src}->{rank}" for src in range(3)]

    def test_alltoall_wrong_length(self):
        def body(comm, rank):
            with pytest.raises(ValueError):
                comm.alltoall([1])
            # All ranks raised; nothing left in flight.
            return True

        assert run_parallel(2, body) == [True, True]

    def test_allreduce_sum(self):
        def body(comm, rank):
            return comm.allreduce_sum(float(rank))

        assert run_parallel(4, body) == [6.0, 6.0, 6.0, 6.0]

    def test_barrier_counts(self):
        def body(comm, rank):
            comm.barrier()
            comm.barrier()
            return comm.stats.barriers

        assert run_parallel(3, body) == [2, 2, 2]


class TestRunParallel:
    def test_returns_indexed_by_rank(self):
        assert run_parallel(4, lambda c, r: r * 2) == [0, 2, 4, 6]

    def test_exception_propagates(self):
        def body(comm, rank):
            if rank == 1:
                raise RuntimeError("boom")
            return rank

        with pytest.raises(RuntimeError, match="rank 1 failed"):
            run_parallel(2, body)

    def test_extra_args(self):
        def body(comm, rank, a, b):
            return a + b + rank

        assert run_parallel(2, body, 10, 20) == [30, 31]
