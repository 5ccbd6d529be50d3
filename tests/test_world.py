"""World backend: phase-style collectives, accounting, SPMD matching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.backend import DeadlockError, World


class TestPhaseStyle:
    def test_allreduce_average(self, rng):
        w = World(4)
        bufs = [np.full(3, float(r)) for r in range(4)]
        out = w.allreduce(bufs, op="average")
        np.testing.assert_allclose(out[0], np.full(3, 1.5))

    def test_allreduce_sum(self, rng):
        w = World(3)
        out = w.allreduce([np.ones(2)] * 3, op="sum")
        np.testing.assert_allclose(out[1], np.full(2, 3.0))

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError):
            World(2).allreduce([np.ones(1)] * 2, op="max")

    def test_wrong_buffer_count_raises(self):
        with pytest.raises(ValueError):
            World(3).allreduce([np.ones(1)] * 2)

    def test_time_and_bytes_accounted(self):
        w = World(4)
        w.allreduce([np.ones(1000, dtype=np.float32)] * 4, phase="grad")
        assert w.overlap.exposed("grad") > 0
        assert w.stats.bytes_by_phase["grad"] == 4000
        assert w.stats.ops_by_phase["grad"] == 1

    def test_single_rank_no_time(self):
        w = World(1)
        w.allreduce([np.ones(10)])
        assert sum(w.overlap.exposed_by_phase.values()) == 0.0

    def test_broadcast_from_nonzero_root(self, rng):
        w = World(3)
        value = rng.normal(size=4)
        out = w.broadcast(value, root=2)
        for copy in out:
            np.testing.assert_array_equal(copy, value)

    def test_reduce_scatter(self, rng):
        w = World(2)
        bufs = [rng.normal(size=6) for _ in range(2)]
        out = w.reduce_scatter(bufs)
        total = bufs[0] + bufs[1]
        np.testing.assert_allclose(out[0], total[3:], rtol=1e-12)
        np.testing.assert_allclose(out[1], total[:3], rtol=1e-12)


class TestSPMD:
    def test_allreduce_across_threads(self):
        w = World(4)

        def program(view):
            local = np.full(5, float(view.rank))
            return view.allreduce(local, name="x")

        results = w.run_spmd(program, timeout=10)
        for res in results:
            np.testing.assert_allclose(res, np.full(5, 1.5))

    def test_allgather_and_barrier(self):
        w = World(3)

        def program(view):
            view.barrier("start")
            got = view.allgather(np.full(view.rank + 1, view.rank), name="g")
            return [g.shape[0] for g in got]

        results = w.run_spmd(program, timeout=10)
        assert results[0] == [1, 2, 3]

    def test_name_reuse_across_iterations(self):
        w = World(2)

        def program(view):
            total = 0.0
            for _ in range(5):
                total += float(view.allreduce(np.ones(1), name="loop", op="sum")[0])
            return total

        results = w.run_spmd(program, timeout=10)
        assert results == [10.0, 10.0]

    def test_mismatched_meta_raises(self):
        w = World(2)

        def program(view):
            op = "sum" if view.rank == 0 else "average"
            return view.allreduce(np.ones(1), name="x", op=op)

        with pytest.raises(DeadlockError):
            w.run_spmd(program, timeout=5)

    def test_missing_rank_times_out(self):
        w = World(2)

        def program(view):
            if view.rank == 0:
                return view.allreduce(np.ones(1), name="only-rank0")
            return None

        with pytest.raises(DeadlockError):
            w.run_spmd(program, timeout=0.5)

    def test_exception_propagates_and_unblocks(self):
        w = World(2)

        def program(view):
            if view.rank == 1:
                raise RuntimeError("boom")
            return view.allreduce(np.ones(1), name="x")

        with pytest.raises((RuntimeError, DeadlockError)):
            w.run_spmd(program, timeout=5)

    def test_broadcast_spmd(self):
        w = World(3)

        def program(view):
            value = np.full(2, 7.0) if view.rank == 1 else np.zeros(2)
            return view.broadcast(value, name="b", root=1)

        results = w.run_spmd(program, timeout=10)
        for res in results:
            np.testing.assert_array_equal(res, np.full(2, 7.0))
