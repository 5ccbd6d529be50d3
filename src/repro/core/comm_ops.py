"""Communication requests yielded by the K-FAC step generator.

Algorithm 1 is implemented exactly once, as a generator that *yields*
communication requests and receives their results (see
:mod:`repro.core.preconditioner`).  Drivers in
:mod:`repro.core.distributed` execute those requests, either phase-style
(a lockstep controller matching requests across simulated workers and
executing fused :class:`repro.comm.World` collectives) or SPMD-style
(each rank's thread resolves requests through matched Horovod-like
collectives).  A world of one yields nothing.

This mirrors how the real implementation separates the K-FAC math from
Horovod communication handles (§V-A).

Protocol
--------
Every collective is a *launch* followed by a *wait* (the SPD-KFAC
split), so there is exactly one protocol:

1. ``yield AllReduceLaunch(tensors, op, phase, tag)`` (or
   :class:`AllGatherLaunch`, :class:`GroupAllGatherLaunch`,
   :class:`GroupBroadcastLaunch`) — the driver starts the collective and
   resumes the generator immediately with ``None``.  ``tag`` must be
   unique within the step and identical across ranks (lockstep drivers
   match launches by position *and* tag).
2. The generator may perform local work (e.g. eigendecomposing factor
   chunks whose reduction already completed), accumulating a
   *deterministic* estimate of the simulated seconds spent (see
   :func:`repro.comm.engine.estimate_second_order_seconds`).
3. ``yield WaitRequest(tag, compute_seconds)`` — the driver resolves the
   matching launch and responds with the collective's result.
   ``compute_seconds`` is the local compute performed since the previous
   wait; the world credits ``min(compute_seconds across ranks)`` of the
   op's cost as *hidden* (overlapped) rather than exposed time.

A blocking collective is a launch followed at once by
``WaitRequest(tag, compute_seconds=0.0)``: nothing is hidden, and the
world charges exactly what a blocking call would.  Every rank must wait
every tag it launched, in the same order — drivers may deadlock-check but
do not reorder.

Group collectives restrict the op to a rank subset (a gradient-worker
group); *every* rank still yields the launch and the wait in lockstep —
non-members simply pass ``tensor=None`` and receive ``None``.

Packing
-------
:func:`pack_arrays`/:func:`unpack_arrays` flatten tensor groups for fused
transport.  Packing *preserves the caller's dtype* (promoting mixed inputs
via ``np.result_type``); a float64 factor crossing a worker boundary comes
back float64 — the historical hard-coded ``float32`` downcast silently
degraded multi-worker precision relative to single-worker runs.

:func:`pack_symmetric`/:func:`unpack_symmetric` are the symmetry-aware
variant used by the factor allreduce: each ``d x d`` factor travels as
its ``d*(d+1)/2``-element upper triangle and is mirrored back on arrival
— lossless for the exactly-symmetric factors the syrk Gram kernel
produces, and a ~2x reduction in factor-stage bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.comm.fusion import tri_pack, tri_unpack

__all__ = [
    "AllReduceLaunch",
    "AllGatherLaunch",
    "GroupAllGatherLaunch",
    "GroupBroadcastLaunch",
    "WaitRequest",
    "pack_arrays",
    "unpack_arrays",
    "pack_symmetric",
    "unpack_symmetric",
]


@dataclass
class AllReduceLaunch:
    """Start an allreduce; a later WaitRequest on ``tag`` resolves it.

    Averages (or sums) each tensor across all workers.  ``tensors`` is
    this rank's contribution; drivers fuse the list into one flat buffer
    (Horovod fusion-buffer behaviour) and the wait returns the reduced
    tensors in the same order and shapes.  The launch itself is answered
    with ``None``.
    """

    tensors: list[np.ndarray]
    op: str = "average"
    phase: str = "allreduce"
    tag: str = ""
    #: wire compression name ("fp16"/"bf16"); None = dtype-preserving
    comm_dtype: str | None = None


@dataclass
class AllGatherLaunch:
    """Start an allgather; a later WaitRequest on ``tag`` resolves it.

    The wait returns ``[contribution_rank0, ..., contribution_rank{P-1}]``.
    Contributions may have different lengths (factor shards differ per
    worker).
    """

    tensor: np.ndarray
    phase: str = "allgather"
    tag: str = ""
    meta: dict = field(default_factory=dict)


@dataclass
class GroupAllGatherLaunch:
    """Start an allgather restricted to a rank subset (a gradient-worker group).

    Every rank yields the launch in lockstep (non-members with
    ``tensor=None``) and later yields ``WaitRequest(tag)``; members
    receive the list of member contributions ordered as ``ranks``,
    non-members ``None``.  The rank order in ``ranks`` is the group's
    ring order (root first) and must be identical on every rank.
    """

    tensor: np.ndarray | None
    ranks: tuple[int, ...]
    phase: str = "allgather"
    tag: str = ""
    meta: dict = field(default_factory=dict)


@dataclass
class GroupBroadcastLaunch:
    """Start a broadcast from ``root`` to a rank subset.

    Used by the gradient-worker-fraction strategy's second stage: the
    group root ships the final preconditioned gradients to the ranks
    *outside* the gradient-worker group, so ``ranks`` is
    ``(root, *non_members)``.  Only ``root`` provides ``tensor``; at the
    matching wait every listed rank receives the broadcast value,
    everyone else ``None``.
    """

    tensor: np.ndarray | None
    root: int
    ranks: tuple[int, ...]
    phase: str = "broadcast"
    tag: str = ""


@dataclass
class WaitRequest:
    """Block on a previously launched collective identified by ``tag``.

    ``compute_seconds`` is the *simulated* local compute performed since
    the previous wait (deterministic estimate, never wall clock); the
    driver forwards it as the overlap budget so that much of the op's cost
    is accounted as hidden rather than exposed.
    """

    tag: str
    compute_seconds: float = 0.0


def pack_arrays(arrays: list[np.ndarray], dtype: str | np.dtype | None = None) -> np.ndarray:
    """Concatenate arrays into one flat buffer (deterministic order).

    The buffer dtype defaults to ``np.result_type`` of the inputs, so the
    caller's precision survives the collective round trip; pass ``dtype``
    explicitly to force a transport precision (e.g. empty contributions
    that must match peers' dtype).
    """
    if not arrays:
        return np.zeros(0, dtype=dtype if dtype is not None else "float32")
    if dtype is None:
        dtype = np.result_type(*arrays)
    return np.concatenate([np.ascontiguousarray(a, dtype=dtype).reshape(-1) for a in arrays])


def pack_symmetric(factors: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Triangular-pack each square symmetric factor for transport."""
    return [tri_pack(f) for f in factors]


def unpack_symmetric(flats: Sequence[np.ndarray], dims: Sequence[int]) -> list[np.ndarray]:
    """Rebuild full symmetric factors from packed triangles."""
    if len(flats) != len(dims):
        raise ValueError(f"got {len(flats)} packed factors for {len(dims)} dims")
    return [tri_unpack(flat, d) for flat, d in zip(flats, dims)]


def unpack_arrays(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Split a flat buffer back into arrays of the given shapes."""
    sizes = [int(np.prod(s)) if s else 1 for s in shapes]
    total = sum(sizes)
    if flat.size != total:
        raise ValueError(f"flat buffer has {flat.size} elements, shapes need {total}")
    out = []
    offset = 0
    for shape, size in zip(shapes, sizes):
        out.append(flat[offset : offset + size].reshape(shape).copy())
        offset += size
    return out
