"""Arithmetic of the step-time benchmark, kept free of any ``repro`` import.

Everything here is a pure function over plain numbers so it can be tested
on hand-made inputs (``perfbench/test_stats.py``):

- :func:`cycle_samples` folds per-iteration wall times into one sample per
  K-FAC refresh cycle, so eig iterations and non-eig iterations do not
  make a bimodal median;
- :func:`tail` is the highest percentile that still has at least ten
  samples beyond it;
- :func:`normalised` divides each sample by the host-probe time measured
  around it, which cancels slow drift of the host's speed;
- :func:`self_times` and :func:`covered` turn a span tree into self times
  and top-level coverage.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence

#: a tail percentile must leave at least this many samples beyond it
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of no samples")
    return float(statistics.fmean(values))


def cycle_samples(iter_seconds: Sequence[float], cycle: int) -> list[float]:
    """Mean iteration time of each whole cycle of ``cycle`` iterations.

    ``iter_seconds`` starts on a cycle boundary; a trailing partial cycle
    is dropped, because it would over-weight the iterations it holds.
    """
    if cycle < 1:
        raise ValueError(f"cycle must be >= 1, got {cycle}")
    whole = len(iter_seconds) // cycle
    return [
        sum(iter_seconds[i * cycle : (i + 1) * cycle]) / cycle for i in range(whole)
    ]


def tail(samples: Sequence[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the highest rank with ``TAIL_MIN_BEYOND`` above it.

    With ``n`` sorted samples the ``k``-th smallest (1-based) has ``n - k``
    samples beyond it, so ``k = n - TAIL_MIN_BEYOND`` and the percentile is
    ``100 * k / n``.  Fewer than ``TAIL_MIN_BEYOND + 1`` samples is an
    error: no percentile of them can be trusted as a tail.
    """
    n = len(samples)
    k = n - TAIL_MIN_BEYOND
    if k < 1:
        raise ValueError(
            f"{n} samples leave no percentile with {TAIL_MIN_BEYOND} samples beyond it"
        )
    ordered = sorted(samples)
    return 100.0 * k / n, float(ordered[k - 1])


def normalised(
    samples: Sequence[float], probe_before: Sequence[float], probe_after: Sequence[float]
) -> list[float]:
    """Each sample divided by the mean of the probes timed around it."""
    if not len(samples) == len(probe_before) == len(probe_after):
        raise ValueError("one probe before and one after each sample")
    out = []
    for s, b, a in zip(samples, probe_before, probe_after):
        probe = 0.5 * (b + a)
        if probe <= 0.0:
            raise ValueError(f"non-positive probe time {probe}")
        out.append(s / probe)
    return out


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(
    spans: Sequence[tuple[float, float, int]]
) -> list[float]:
    """Self time of each span: duration minus what its children cover.

    ``spans`` holds ``(start, end, parent)`` with ``parent`` the index of
    the enclosing span or ``-1``.  Children are clipped to the parent's
    interval before their union is taken.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][0], spans[parent][1]
            lo, hi = max(start, p_start), min(end, p_end)
            if hi > lo:
                children[parent].append((lo, hi))
    return [
        (end - start) - union_length(children[i])
        for i, (start, end, _) in enumerate(spans)
    ]


def covered(window: tuple[float, float], intervals: Iterable[tuple[float, float]]) -> float:
    """Share of ``window`` that the intervals cover (clipped to the window)."""
    lo, hi = window
    if hi <= lo:
        raise ValueError(f"empty window {window}")
    clipped = [(max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)]
    return union_length(clipped) / (hi - lo)


def rank_critical_path(shared: float, per_rank: dict[int, float]) -> float:
    """Work no rank can skip plus the busiest rank's own work.

    The phase trainer runs ranks one after another on one host; on a
    real fleet they run in parallel, so the slowest rank bounds the step.
    """
    return shared + (max(per_rank.values()) if per_rank else 0.0)
