"""Tests of the benchmark's own arithmetic (``perfbench/stats.py``).

Run:  python3 -m pytest -q perfbench/test_stats.py
"""

from __future__ import annotations

import math

import pytest

import stats


class TestCycleSamples:
    def test_one_sample_per_whole_cycle(self):
        # eig iteration (slow) then plain iteration (fast), three cycles
        iters = [0.30, 0.10, 0.32, 0.12, 0.28, 0.08]
        assert stats.cycle_samples(iters, 2) == pytest.approx([0.20, 0.22, 0.18])

    def test_trailing_partial_cycle_dropped(self):
        assert stats.cycle_samples([1.0, 3.0, 5.0], 2) == [2.0]
        assert stats.cycle_samples([1.0], 2) == []

    def test_cycle_of_one_is_identity(self):
        assert stats.cycle_samples([0.5, 0.25], 1) == [0.5, 0.25]

    def test_cycle_samples_are_not_bimodal(self):
        # per-iteration medians flip between the two modes; cycle samples
        # all sit at the cycle mean
        iters = [0.3, 0.1] * 10
        assert set(stats.cycle_samples(iters, 2)) == {0.2}

    def test_rejects_bad_cycle(self):
        with pytest.raises(ValueError):
            stats.cycle_samples([1.0], 0)


class TestTail:
    def test_leaves_exactly_ten_beyond(self):
        samples = [float(v) for v in range(1, 31)]  # 1..30
        pct, value = stats.tail(samples)
        assert value == 20.0
        assert sum(s > value for s in samples) == 10
        assert pct == pytest.approx(100 * 20 / 30)

    def test_order_does_not_matter(self):
        samples = [float(v) for v in range(1, 31)]
        assert stats.tail(samples[::-1]) == stats.tail(samples)

    def test_smallest_valid_sample_count(self):
        pct, value = stats.tail([float(v) for v in range(11)])
        assert value == 0.0
        assert pct == pytest.approx(100 / 11)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            stats.tail([1.0] * 10)


class TestNormalised:
    def test_divides_by_mean_of_surrounding_probes(self):
        out = stats.normalised([0.4, 0.6], [0.01, 0.02], [0.03, 0.04])
        assert out == pytest.approx([20.0, 20.0])

    def test_host_drift_cancels(self):
        # the host slows by 30% halfway: raw samples move, ratios do not
        raw = [0.2, 0.2, 0.26, 0.26]
        probes = [0.01, 0.01, 0.013, 0.013]
        out = stats.normalised(raw, probes, probes)
        assert max(out) - min(out) == pytest.approx(0.0, abs=1e-12)
        assert stats.median(raw) != stats.median(raw[:2])

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            stats.normalised([1.0], [1.0, 1.0], [1.0])

    def test_rejects_non_positive_probe(self):
        with pytest.raises(ValueError):
            stats.normalised([1.0], [0.0], [0.0])


class TestSelfTimes:
    def test_leaf_self_time_is_its_duration(self):
        assert stats.self_times([(0.0, 2.0, -1)]) == [2.0]

    def test_children_subtracted_once(self):
        spans = [
            (0.0, 10.0, -1),  # parent
            (1.0, 3.0, 0),  # child
            (4.0, 8.0, 0),  # child with a grandchild
            (5.0, 6.0, 2),  # grandchild counts against its parent only
        ]
        assert stats.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])

    def test_overlapping_children_use_union(self):
        spans = [(0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 7.0, 0)]
        assert stats.self_times(spans)[0] == pytest.approx(4.0)

    def test_children_clipped_to_parent(self):
        spans = [(2.0, 4.0, -1), (1.0, 3.0, 0)]
        assert stats.self_times(spans)[0] == pytest.approx(1.0)


class TestCoverage:
    def test_union_length(self):
        assert stats.union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
        assert stats.union_length([]) == 0.0

    def test_covered_share_clips_to_window(self):
        assert stats.covered((0.0, 10.0), [(-5.0, 2.0), (8.0, 20.0)]) == pytest.approx(0.4)

    def test_empty_window(self):
        with pytest.raises(ValueError):
            stats.covered((1.0, 1.0), [])


class TestCriticalPath:
    def test_shared_plus_busiest_rank_not_sum(self):
        # four ranks of 10 ms each, run serially on one host: the fleet's
        # step waits for one rank, not for all four
        assert stats.rank_critical_path(2.0, {0: 10.0, 1: 10.0, 2: 10.0, 3: 10.0}) == 12.0
        assert stats.rank_critical_path(0.0, {0: 3.0, 1: 7.0}) == 7.0

    def test_no_rank_work(self):
        assert stats.rank_critical_path(1.5, {}) == 1.5


def test_median():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert math.isclose(stats.median([1.0, 2.0]), 1.5)
    with pytest.raises(ValueError):
        stats.median([])
