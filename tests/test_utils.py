"""Utility modules: RNG pools, timers, tables."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import RngPool, seed_everything, spawn_rng
from repro.utils.tables import format_series, format_table
from repro.utils.timer import Stopwatch


class TestRng:
    def test_seed_everything_reproducible(self):
        a = seed_everything(5).normal(size=4)
        b = seed_everything(5).normal(size=4)
        np.testing.assert_array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            seed_everything(-1)

    def test_spawn_rng_independent_streams(self):
        gens = spawn_rng(7, 3)
        draws = [g.normal(size=8) for g in gens]
        assert not np.allclose(draws[0], draws[1])
        again = spawn_rng(7, 3)
        np.testing.assert_array_equal(draws[2], again[2].normal(size=8))

    def test_pool_stream_isolation(self):
        """Consuming one stream must not perturb another."""
        p1 = RngPool(3)
        _ = p1.get("data").normal(size=100)
        init1 = p1.get("init").normal(size=4)
        p2 = RngPool(3)
        init2 = p2.get("init").normal(size=4)
        np.testing.assert_array_equal(init1, init2)

    def test_pool_per_worker(self):
        p = RngPool(3)
        gens = p.per_worker("shuffle", 4)
        assert len(gens) == 4
        draws = {tuple(g.normal(size=2)) for g in gens}
        assert len(draws) == 4

    def test_pool_validation(self):
        with pytest.raises(ValueError):
            RngPool(0).per_worker("x", 0)


class TestTimers:
    def test_stopwatch_accumulates(self):
        sw = Stopwatch()
        with sw:
            pass
        with sw:
            pass
        assert sw.count == 2 and sw.total >= 0
        sw.reset()
        assert sw.count == 0

    def test_stopwatch_mean(self):
        sw = Stopwatch()
        assert sw.mean == 0.0  # never used
        for _ in range(3):
            with sw:
                sum(range(100))
        assert sw.count == 3
        assert sw.mean == sw.total / 3 > 0.0


class TestTables:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 4]])
        lines = out.splitlines()
        assert len({len(l) for l in lines}) == 1  # rectangular
        assert "30" in out and "2.5" in out

    def test_format_table_validates_width(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_series(self):
        out = format_series("s", [1, 2], [0.5, 0.6], "epoch", "acc")
        assert "epoch -> acc" in out and "0.6" in out

    def test_format_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("s", [1], [1, 2])
