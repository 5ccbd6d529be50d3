"""Remaining small-module behaviours: handles, logging, initializers."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.comm.handles import DeferredHandle, InFlightHandle, LaunchedHandle
from repro.tensor.dtypes import DEFAULT_DTYPE
from repro.tensor.initializers import kaiming_normal, kaiming_uniform, xavier_uniform, zeros_init
from repro.utils.logging import NULL_LOGGER, Logger


class TestHandles:
    def test_deferred_runs_once(self):
        calls = []
        h = DeferredHandle(lambda: calls.append(1) or len(calls))
        assert not h.done()
        assert h.wait() == 1
        assert h.wait() == 1  # cached
        assert calls == [1]

    def test_in_flight_settles_once_with_first_budget(self):
        budgets = []
        h = InFlightHandle("result", 2.0, budgets.append)
        assert not h.done() and h.comm_seconds == 2.0
        assert h.wait(overlap_seconds=0.5) == "result"
        assert h.wait(overlap_seconds=9.0) == "result"
        assert h.done() and budgets == [0.5]

    def test_launched_forwards_budget_once(self):
        budgets = []
        h = LaunchedHandle(lambda ov: budgets.append(ov) or len(budgets))
        assert not h.done()
        assert h.wait(overlap_seconds=0.25) == 1
        assert h.wait() == 1  # cached; the post is not repeated
        assert h.done() and budgets == [0.25]


class TestLogger:
    def test_levels(self):
        buf = io.StringIO()
        log = Logger("x", level=1, stream=buf)
        log.info("hello")
        log.debug("hidden")
        out = buf.getvalue()
        assert "hello" in out and "hidden" not in out

    def test_child_namespacing(self):
        buf = io.StringIO()
        Logger("a", level=2, stream=buf).child("b").debug("msg")
        assert "[a.b:debug]" in buf.getvalue()

    def test_null_logger_silent(self, capsys):
        NULL_LOGGER.info("nope")
        assert capsys.readouterr().out == ""


class TestInitializers:
    def test_kaiming_normal_fanout_std(self, rng):
        w = kaiming_normal((256, 128, 3, 3), rng)
        expect = np.sqrt(2.0 / (256 * 9))
        assert w.std() == pytest.approx(expect, rel=0.05)
        assert w.dtype == np.dtype(DEFAULT_DTYPE)

    def test_kaiming_uniform_bounds(self, rng):
        w = kaiming_uniform((64, 100), rng)
        fan_in = 100
        gain = np.sqrt(2.0 / (1.0 + 5.0))
        bound = gain * np.sqrt(3.0 / fan_in)
        assert np.abs(w).max() <= bound + 1e-7

    def test_xavier_symmetric(self, rng):
        w = xavier_uniform((50, 50), rng)
        assert abs(w.mean()) < 0.02

    def test_zeros(self):
        w = zeros_init((3, 3))
        assert not w.any() and w.dtype == np.dtype(DEFAULT_DTYPE)

    def test_unsupported_shape(self, rng):
        with pytest.raises(ValueError):
            kaiming_normal((2, 3, 4), rng)
