"""Wall-clock timing instrumentation.

:class:`Stopwatch` measures real code (used by the training loop to report
measured per-phase times, mirroring the paper's Fig. 1 decomposition into
I/O, forward, gradient evaluation, exchange, update).  Simulated
communication time is not measured here: the world's comm ledger
(:class:`repro.comm.backend.OverlapStats`) accounts it.
"""

from __future__ import annotations

import time

__all__ = ["Stopwatch"]


class Stopwatch:
    """Accumulating wall-clock stopwatch usable as a context manager.

    Example
    -------
    >>> from repro.utils.timer import Stopwatch
    >>> sw = Stopwatch()
    >>> with sw:
    ...     _ = sum(range(1000))
    >>> sw.count, sw.total > 0.0
    (1, True)
    """

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0
        self._start: float | None = None

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        assert self._start is not None, "Stopwatch exited without entering"
        self.total += time.perf_counter() - self._start
        self.count += 1
        self._start = None

    @property
    def mean(self) -> float:
        """Mean duration per timed section (0 if never used)."""
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.total = 0.0
        self.count = 0
