"""Bucketing policy and deterministic overlap budgets for pipelined comm.

- **Bucketing** — :func:`partition_buckets` is the one greedy primitive
  that splits a payload list into contiguous chunks of at most
  ``bucket_bytes`` (SPD-KFAC's tensor partitioning: chunks small enough
  that communication of chunk ``k+1`` can hide behind compute on chunk
  ``k``, large enough to stay bandwidth-bound).  The K-FAC planner
  (:func:`repro.sched.planner.plan_buckets`) partitions the wire bytes
  with it; :data:`DEFAULT_BUCKET_BYTES` caps the chunk size.
- **Overlap budgets** — a launched collective is waited with
  ``wait(overlap_seconds=...)``, and the world's ledger
  (:class:`repro.comm.backend.OverlapStats`) splits its cost into
  exposed and hidden seconds.  Budgets must be *deterministic*
  (simulated seconds, never wall clock), so this module prices the
  eigendecomposition and preconditioning work interleaved between a
  launch and its wait at a nominal throughput.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "DEFAULT_BUCKET_BYTES",
    "estimate_precondition_seconds",
    "estimate_second_order_seconds",
    "partition_buckets",
]

#: default pipeline chunk size — small enough that a ResNet-scale factor
#: exchange splits into many chunks, large enough to stay bandwidth-bound.
DEFAULT_BUCKET_BYTES = 4 << 20

#: nominal dense eigensolver throughput (FLOP/s) for overlap budgets.
#: Deliberately a *model* constant, not a measurement: budgets must be
#: identical across machines so pipelined runs stay deterministic.
NOMINAL_SECOND_ORDER_FLOPS = 25.0e9

#: syevd-style eigendecomposition costs ~(26/3) n^3 FLOPs; explicit damped
#: inversion (Cholesky + solve) ~2 n^3.
EIG_FLOP_COEF = 26.0 / 3.0
INV_FLOP_COEF = 2.0


def estimate_second_order_seconds(dims: Sequence[int], eigen: bool = True) -> float:
    """Deterministic simulated seconds to eigendecompose/invert factors.

    ``dims`` are the factor side lengths handled locally between an async
    launch and its wait; the result prices how much in-flight communication
    that compute can hide.

    Example
    -------
    >>> from repro.comm.engine import estimate_second_order_seconds
    >>> t = estimate_second_order_seconds([256, 512])
    >>> t == estimate_second_order_seconds([256, 512])   # deterministic
    True
    >>> t > estimate_second_order_seconds([256])
    True
    """
    coef = EIG_FLOP_COEF if eigen else INV_FLOP_COEF
    return sum(coef * float(d) ** 3 for d in dims) / NOMINAL_SECOND_ORDER_FLOPS


def estimate_precondition_seconds(layer_dims: Sequence[tuple[int, int]]) -> float:
    """Deterministic simulated seconds to precondition layer gradients.

    ``layer_dims`` are ``(g_dim, a_dim)`` pairs of the layers preconditioned
    locally between an async launch and its wait.  The eigenbasis path costs
    two changes of basis plus the rescale — roughly ``4 * (g^2 a + g a^2)``
    FLOPs per layer — priced at the same nominal throughput as the
    second-order estimator so graph-scheduler overlap budgets stay
    machine-independent.

    Example
    -------
    >>> from repro.comm.engine import estimate_precondition_seconds
    >>> t = estimate_precondition_seconds([(10, 20)])
    >>> t == estimate_precondition_seconds([(10, 20)])   # deterministic
    True
    >>> t < estimate_precondition_seconds([(10, 20), (30, 30)])
    True
    """
    flops = sum(
        4.0 * (float(g) ** 2 * float(a) + float(g) * float(a) ** 2)
        for g, a in layer_dims
    )
    return flops / NOMINAL_SECOND_ORDER_FLOPS


def partition_buckets(nbytes_list: Sequence[int], bucket_bytes: int) -> list[list[int]]:
    """Split item indices into contiguous buckets of at most ``bucket_bytes``.

    Items larger than the capacity get a bucket of their own; order is
    preserved so every rank derives the identical partition from the same
    metadata (a hard requirement for lockstep matching).

    Example
    -------
    >>> from repro.comm.engine import partition_buckets
    >>> partition_buckets([10, 10, 10, 25], bucket_bytes=20)
    [[0, 1], [2], [3]]
    """
    if bucket_bytes <= 0:
        raise ValueError(f"bucket_bytes must be positive, got {bucket_bytes}")
    buckets: list[list[int]] = []
    current: list[int] = []
    current_bytes = 0
    for i, nbytes in enumerate(nbytes_list):
        if current and current_bytes + int(nbytes) > bucket_bytes:
            buckets.append(current)
            current = []
            current_bytes = 0
        current.append(i)
        current_bytes += int(nbytes)
    if current:
        buckets.append(current)
    return buckets
