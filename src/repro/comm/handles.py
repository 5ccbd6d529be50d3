"""Asynchronous operation handles.

Horovod returns handles from ``allreduce_async_`` that are resolved by
``synchronize()``.  In the simulated world a handle either already carries
its result (phase-style execution) or defers a blocking matched post until
``wait()`` (SPMD style) — either way callers observe Horovod's
register-then-synchronize pattern (§V-A: "handles are registered to
communication operations ... and wait to do the communication in batches").

Launch/wait collectives add two handle flavours:

- :class:`InFlightHandle` — the collective's *data movement* already
  happened (phase-style worlds are deterministic), but its simulated time
  is only settled at ``wait(overlap_seconds=...)``, splitting the cost
  into exposed vs. hidden-behind-compute seconds;
- :class:`LaunchedHandle` — a per-rank SPMD launch whose blocking matched
  post is deferred to ``wait(overlap_seconds=...)``, forwarding this
  rank's overlap budget to the world's accounting.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, TypeVar

__all__ = [
    "Handle",
    "DeferredHandle",
    "InFlightHandle",
    "LaunchedHandle",
]

T = TypeVar("T")


class Handle(Generic[T]):
    """Abstract async-op handle."""

    def done(self) -> bool:
        raise NotImplementedError

    def wait(self) -> T:
        raise NotImplementedError


class DeferredHandle(Handle[T]):
    """A handle that runs ``fn`` on first ``wait()`` and caches the result."""

    def __init__(self, fn: Callable[[], T]) -> None:
        self._fn = fn
        self._done = False
        self._result: Any = None

    def done(self) -> bool:
        return self._done

    def wait(self) -> T:
        if not self._done:
            self._result = self._fn()
            self._done = True
        return self._result


class InFlightHandle(Handle[T]):
    """A launched collective: result ready, simulated time settled on wait.

    ``settle(overlap_seconds)`` is invoked exactly once, on the first
    ``wait``; it charges ``max(0, comm_seconds - overlap_seconds)`` as
    exposed time and records the rest as hidden (see
    :meth:`repro.comm.backend.World.allreduce_async`).  Waiting twice is
    fine — the cost is only settled once.
    """

    def __init__(
        self,
        result: T,
        comm_seconds: float,
        settle: Callable[[float], None],
    ) -> None:
        self._result = result
        self.comm_seconds = comm_seconds
        self._settle = settle
        self._settled = False

    def done(self) -> bool:
        return self._settled

    def wait(self, overlap_seconds: float = 0.0) -> T:
        if not self._settled:
            self._settle(overlap_seconds)
            self._settled = True
        return self._result


class LaunchedHandle(Handle[T]):
    """A deferred per-rank matched post that carries an overlap budget.

    SPMD ranks launch collectives without blocking; the blocking matched
    post happens at ``wait(overlap_seconds=...)``, and the world uses the
    *minimum* budget across ranks when splitting the op's cost into
    exposed/hidden seconds (the least-overlapped rank sets the barrier).
    """

    def __init__(self, fn: Callable[[float], T]) -> None:
        self._fn = fn
        self._done = False
        self._result: Any = None

    def done(self) -> bool:
        return self._done

    def wait(self, overlap_seconds: float = 0.0) -> T:
        if not self._done:
            self._result = self._fn(overlap_seconds)
            self._done = True
        return self._result
