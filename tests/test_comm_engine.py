"""Pipelined comm: bucketing, overlap budgets, launch/wait, the overlap ledger."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.backend import CommStats, OverlapStats, World
from repro.comm.engine import estimate_second_order_seconds, partition_buckets


class TestPartitionBuckets:
    def test_respects_capacity(self):
        # 3 x 100B items with 200B buckets -> [0,1] then [2]
        assert partition_buckets([100, 100, 100], 200) == [[0, 1], [2]]

    def test_oversized_item_gets_own_bucket(self):
        assert partition_buckets([50, 500, 50], 100) == [[0], [1], [2]]

    def test_single_bucket_when_under_capacity(self):
        assert partition_buckets([10, 10, 10], 1 << 20) == [[0, 1, 2]]

    def test_empty(self):
        assert partition_buckets([], 100) == []

    def test_order_preserved(self):
        buckets = partition_buckets([60, 60, 60, 60], 100)
        assert [i for b in buckets for i in b] == [0, 1, 2, 3]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            partition_buckets([1], 0)


class TestEstimate:
    def test_deterministic_and_monotone(self):
        small = estimate_second_order_seconds([16])
        big = estimate_second_order_seconds([64])
        assert 0 < small < big
        assert estimate_second_order_seconds([16]) == small

    def test_inverse_cheaper_than_eigen(self):
        assert estimate_second_order_seconds([64], eigen=False) < (
            estimate_second_order_seconds([64], eigen=True)
        )

    def test_empty_is_zero(self):
        assert estimate_second_order_seconds([]) == 0.0


class TestAsyncWorld:
    def test_async_allreduce_matches_sync_values(self, rng):
        w_sync, w_async = World(3), World(3)
        bufs = [rng.normal(size=8) for _ in range(3)]
        expected = w_sync.allreduce([b.copy() for b in bufs])
        handle = w_async.allreduce_async([b.copy() for b in bufs])
        out = handle.wait()
        for a, b in zip(out, expected):
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_overlap_splits_exposed_and_hidden(self, rng):
        w = World(2)
        bufs = [rng.normal(size=1024) for _ in range(2)]
        handle = w.allreduce_async(bufs, phase="p")
        t = handle.comm_seconds
        assert t > 0
        handle.wait(overlap_seconds=t / 2)
        assert w.overlap.hidden("p") == pytest.approx(t / 2)
        assert w.overlap.exposed("p") == pytest.approx(t / 2)
        assert w.overlap.total("p") == pytest.approx(t)
        # exposed + hidden is the op's whole cost, recorded exactly once
        assert w.overlap.exposed("p") + w.overlap.hidden("p") == t

    def test_overlap_budget_capped_at_comm_time(self, rng):
        w = World(2)
        handle = w.allreduce_async([rng.normal(size=64) for _ in range(2)], phase="p")
        handle.wait(overlap_seconds=1e9)
        assert w.overlap.exposed("p") == 0.0
        assert w.overlap.hidden("p") == pytest.approx(handle.comm_seconds)

    def test_double_wait_settles_once(self, rng):
        w = World(2)
        handle = w.allgather_async([rng.normal(size=4) for _ in range(2)], phase="g")
        handle.wait()
        handle.wait()
        assert w.overlap.total("g") == pytest.approx(handle.comm_seconds)

    def test_allgather_async_matches_sync_values(self, rng):
        contribs = [rng.normal(size=n) for n in (3, 5)]
        expected = World(2).allgather([c.copy() for c in contribs])
        out = World(2).allgather_async([c.copy() for c in contribs]).wait()
        for got, want in zip(out, expected):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_launches_settle_independently(self, rng):
        w = World(2)
        h_a = w.allreduce_async([rng.normal(size=8) for _ in range(2)], phase="a")
        h_b = w.allgather_async([rng.normal(size=4) for _ in range(2)], phase="b")
        assert not h_a.done() and not h_b.done()
        assert dict(w.stats.ops_by_phase) == {"a": 1, "b": 1}
        h_b.wait(overlap_seconds=1e9)
        assert h_b.done() and not h_a.done()
        assert w.overlap.hidden("b") == h_b.comm_seconds
        assert w.overlap.total("a") == 0.0
        h_a.wait()
        assert w.overlap.exposed("a") == h_a.comm_seconds
        assert w.overlap.exposed("b") == 0.0

    def test_sync_ops_are_fully_exposed(self, rng):
        w = World(2)
        w.allreduce([rng.normal(size=16) for _ in range(2)], phase="p")
        assert w.overlap.hidden("p") == 0.0
        assert w.overlap.exposed("p") > 0.0
        assert w.stats.ops_by_phase["p"] == 1


_COLLECTIVES = {
    "allreduce": lambda w, x: w.allreduce([x, x, x], phase="p"),
    "allgather": lambda w, x: w.allgather([x, x, x], phase="p"),
    "broadcast": lambda w, x: w.broadcast(x, root=1, phase="p"),
    "reduce_scatter": lambda w, x: w.reduce_scatter([x, x, x], phase="p"),
    "group_allgather": lambda w, x: w.group_allgather([x, x], [0, 2], phase="p"),
    "group_broadcast": lambda w, x: w.group_broadcast(x, 2, [1, 2], phase="p"),
}


class TestOneRecordPerCollective:
    @pytest.mark.parametrize("name", sorted(_COLLECTIVES))
    def test_blocking_collective_writes_each_ledger_once(self, name, rng):
        w = World(3)
        x = rng.normal(size=12)
        _COLLECTIVES[name](w, x)
        assert dict(w.stats.ops_by_phase) == {"p": 1}
        assert w.stats.bytes_by_phase["p"] > 0
        assert set(w.overlap.exposed_by_phase) == {"p"}
        assert w.overlap.exposed("p") > 0.0
        assert w.overlap.hidden("p") == 0.0

    def test_singleton_group_records_nothing(self, rng):
        w = World(3)
        x = rng.normal(size=4)
        assert w.group_allgather([x], [1], phase="p") == [[x]]
        handle = w.group_broadcast_async(x, 2, [2], phase="p")
        assert handle.comm_seconds == 0.0
        handle.wait()
        assert w.stats.total_ops() == 0
        assert w.overlap.as_dict() == {}


class TestCommStats:
    def test_record_counts_bytes_and_ops_per_phase(self):
        stats = CommStats()
        stats.record("a", 100.0)
        stats.record("a", 50.0)
        stats.record("b", 8.0)
        assert stats.bytes_by_phase == {"a": 150.0, "b": 8.0}
        assert stats.ops_by_phase == {"a": 2, "b": 1}
        assert stats.total_bytes() == 158.0
        assert stats.total_ops() == 3


class TestOverlapLedger:
    def test_record_accumulates_per_phase(self):
        stats = OverlapStats()
        stats.record("p", 0.5, 0.25)
        stats.record("p", 0.25, 0.0)
        stats.record("q", 0.0, 1.0)
        assert stats.exposed("p") == 0.75 and stats.hidden("p") == 0.25
        assert stats.total("p") == 1.0
        assert stats.total("q") == 1.0
        assert stats.total_hidden() == 1.25

    def test_as_dict_is_phase_sorted(self):
        stats = OverlapStats()
        stats.record("z", 1.0, 0.0)
        stats.record("a", 0.0, 2.0)
        assert list(stats.as_dict()) == ["a", "z"]
        assert stats.as_dict()["a"] == {"exposed": 0.0, "hidden": 2.0}

    def test_unrecorded_phase_reads_zero(self):
        stats = OverlapStats()
        assert (stats.exposed("x"), stats.hidden("x"), stats.total("x")) == (0.0, 0.0, 0.0)
        assert stats.total_hidden() == 0.0
        assert "x" not in stats.exposed_by_phase

    def test_record_rejects_negative_seconds(self):
        stats = OverlapStats()
        with pytest.raises(ValueError, match="negative"):
            stats.record("p", -1.0, 0.0)
        with pytest.raises(ValueError, match="negative"):
            stats.record("p", 0.0, -1.0)
        assert stats.as_dict() == {}

    def test_launch_and_settle_each_record_once(self, rng):
        w = World(2)
        handle = w.allreduce_async([rng.normal(size=8) for _ in range(2)], phase="a")
        assert w.stats.ops_by_phase["a"] == 1  # bytes/ops at launch
        assert "a" not in w.overlap.exposed_by_phase  # seconds at settle
        handle.wait(overlap_seconds=0.0)
        assert w.overlap.exposed("a") == handle.comm_seconds
        assert w.stats.ops_by_phase["a"] == 1
