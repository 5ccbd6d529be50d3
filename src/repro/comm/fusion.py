"""Horovod-style tensor fusion buffer and triangular factor packing.

Horovod accumulates small tensors into a 16–32 MB fusion buffer and issues
one allreduce per full buffer "to guarantee that each allreduce() is
bandwidth dominated" (§II-D).  This class reproduces that batching for the
phase-style world: callers ``add`` named per-rank tensor groups; once the
accumulated payload reaches capacity the buffer flushes as a *single*
fused ring allreduce (one latency charge instead of one per tensor).

Buffers are meant to be *persistent*: build one per (op, phase) and reuse
it every iteration, as the data-parallel trainer does for its gradient
exchange — capacity-respecting flushes then carry across iterations and
``flush_count``/``bytes_flushed`` accumulate over the whole run.

Planning-time bucket partitioning (deciding *which* factors fuse into
which pipeline chunk, before any tensor exists) lives elsewhere:
:func:`repro.sched.planner.plan_buckets` is the single entry point, and
:func:`repro.comm.engine.partition_buckets` the shared greedy primitive.

**Triangular packing** (:func:`tri_pack` / :func:`tri_unpack`): a Kronecker
factor is symmetric, so its ``d*d`` payload carries ``d*(d-1)/2`` redundant
elements.  Packing the upper triangle into a flat ``d*(d+1)/2`` vector
before the factor allreduce nearly halves the factor-stage bytes (the
Osawa et al. 2019 symmetry-aware communication trick); since averaging is
elementwise, reducing packed triangles then mirroring is *bit-identical*
to reducing the full matrices — provided the inputs are exactly symmetric,
which :func:`repro.tensor.gram.gram` guarantees by construction.
"""

from __future__ import annotations

import numpy as np

from repro.comm.backend import World
from repro.comm.compression import ErrorFeedback, WireCodec, get_codec, wire_nbytes
from repro.tensor.gram import mirror_upper

__all__ = [
    "FusionBuffer",
    "tri_len",
    "tri_pack",
    "tri_unpack",
    "block_tri_len",
    "tri_pack_blocks",
    "tri_unpack_blocks",
]

#: cached packed-row offsets, keyed by side length: row ``i`` of the upper
#: triangle occupies ``flat[offsets[i]:offsets[i+1]]`` (row-major layout)
_ROW_OFFSET_CACHE: dict[int, np.ndarray] = {}


def _row_offsets(d: int) -> np.ndarray:
    offs = _ROW_OFFSET_CACHE.get(d)
    if offs is None:
        offs = np.zeros(d + 1, dtype=np.int64)
        np.cumsum(np.arange(d, 0, -1), out=offs[1:])
        _ROW_OFFSET_CACHE[d] = offs
    return offs


def tri_len(d: int) -> int:
    """Packed length of one ``d x d`` symmetric matrix: ``d*(d+1)/2``.

    Example
    -------
    >>> from repro.comm.fusion import tri_len
    >>> tri_len(4)
    10
    """
    return d * (d + 1) // 2


def tri_pack(mat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Flatten the upper triangle (row-major, diagonal included) of ``mat``.

    The matrix is *assumed* symmetric — only the upper triangle is read, so
    any asymmetry in the lower triangle is silently discarded.  Row-wise
    contiguous slice copies (~14x faster than a fancy-index gather at
    ResNet factor sizes).

    Example
    -------
    >>> import numpy as np
    >>> from repro.comm.fusion import tri_pack
    >>> m = np.array([[1.0, 2.0], [2.0, 3.0]])
    >>> tri_pack(m).tolist()
    [1.0, 2.0, 3.0]
    """
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"tri_pack expects a square matrix, got {mat.shape}")
    d = mat.shape[0]
    if out is None:
        out = np.empty(tri_len(d), dtype=mat.dtype)
    elif out.shape != (tri_len(d),) or out.dtype != mat.dtype:
        raise ValueError(
            f"tri_pack out must be ({tri_len(d)},) {mat.dtype}, "
            f"got {out.shape} {out.dtype}"
        )
    offs = _row_offsets(d)
    for i in range(d):
        out[offs[i] : offs[i + 1]] = mat[i, i:]
    return out


def tri_unpack(flat: np.ndarray, d: int, out: np.ndarray | None = None) -> np.ndarray:
    """Rebuild the full symmetric ``d x d`` matrix from a packed triangle.

    Example
    -------
    >>> import numpy as np
    >>> from repro.comm.fusion import tri_unpack
    >>> tri_unpack(np.array([1.0, 2.0, 3.0]), 2).tolist()
    [[1.0, 2.0], [2.0, 3.0]]
    """
    if flat.shape != (tri_len(d),):
        raise ValueError(
            f"packed triangle for d={d} must have {tri_len(d)} elements, "
            f"got shape {flat.shape}"
        )
    if out is None:
        out = np.empty((d, d), dtype=flat.dtype)
    elif out.shape != (d, d) or out.dtype != flat.dtype:
        raise ValueError(
            f"tri_unpack out must be ({d}, {d}) {flat.dtype}, "
            f"got {out.shape} {out.dtype}"
        )
    offs = _row_offsets(d)
    for i in range(d):
        out[i, i:] = flat[offs[i] : offs[i + 1]]
    return mirror_upper(out)


def block_tri_len(bounds) -> int:
    """Packed length of a block-diagonal symmetric payload.

    Sum of the per-block upper triangles — what a blocked factor
    allreduce actually ships instead of the full ``tri_len(d)`` triangle
    (see :mod:`repro.approx.blocks` for the partition policy).

    Example
    -------
    >>> from repro.comm.fusion import block_tri_len, tri_len
    >>> block_tri_len(((0, 4),)) == tri_len(4)
    True
    >>> block_tri_len(((0, 2), (2, 4)))      # 2 * tri_len(2)
    6
    """
    return sum(tri_len(hi - lo) for lo, hi in bounds)


def tri_pack_blocks(mat: np.ndarray, bounds) -> np.ndarray:
    """Pack the upper triangles of ``mat``'s diagonal blocks, concatenated.

    Row-major per block, blocks in ``bounds`` order.  With a single
    block covering the whole matrix this is exactly :func:`tri_pack`.

    Example
    -------
    >>> import numpy as np
    >>> from repro.comm.fusion import tri_pack_blocks
    >>> m = np.arange(16.0).reshape(4, 4)
    >>> tri_pack_blocks(m, ((0, 2), (2, 4))).tolist()
    [0.0, 1.0, 5.0, 10.0, 11.0, 15.0]
    """
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"tri_pack_blocks expects a square matrix, got {mat.shape}")
    out = np.empty(block_tri_len(bounds), dtype=mat.dtype)
    pos = 0
    for lo, hi in bounds:
        n = tri_len(hi - lo)
        tri_pack(np.ascontiguousarray(mat[lo:hi, lo:hi]), out=out[pos : pos + n])
        pos += n
    return out


def tri_unpack_blocks(
    flat: np.ndarray, bounds, out: np.ndarray | None = None
) -> np.ndarray:
    """Scatter packed block triangles back into a matrix's diagonal blocks.

    When ``out`` is given, only the diagonal-block regions are written —
    off-block entries keep their existing values (the blocked factor
    exchange leaves them local).  Without ``out`` the off-block entries
    are zero, i.e. the block-diagonal approximation itself.

    Example
    -------
    >>> import numpy as np
    >>> from repro.comm.fusion import tri_pack_blocks, tri_unpack_blocks
    >>> m = np.arange(16.0).reshape(4, 4); m = (m + m.T) / 2
    >>> bounds = ((0, 2), (2, 4))
    >>> back = tri_unpack_blocks(tri_pack_blocks(m, bounds), bounds, out=m.copy())
    >>> bool(np.array_equal(back, m))
    True
    """
    if flat.shape != (block_tri_len(bounds),):
        raise ValueError(
            f"packed block payload must have {block_tri_len(bounds)} elements, "
            f"got shape {flat.shape}"
        )
    d = bounds[-1][1]
    if out is None:
        out = np.zeros((d, d), dtype=flat.dtype)
    elif out.shape != (d, d):
        raise ValueError(f"tri_unpack_blocks out must be ({d}, {d}), got {out.shape}")
    pos = 0
    for lo, hi in bounds:
        db = hi - lo
        n = tri_len(db)
        out[lo:hi, lo:hi] = tri_unpack(flat[pos : pos + n].astype(out.dtype, copy=False), db)
        pos += n
    return out


class FusionBuffer:
    """Accumulate named tensors and allreduce them in fused batches.

    Example
    -------
    >>> import numpy as np
    >>> from repro.comm.backend import World
    >>> from repro.comm.fusion import FusionBuffer
    >>> buf = FusionBuffer(World(2), capacity_bytes=1 << 20)
    >>> buf.add("w", [np.array([2.0]), np.array([4.0])])
    >>> buf.flush()
    >>> [v.tolist() for v in buf.pop("w")]     # averaged, one per rank
    [[3.0], [3.0]]
    """

    def __init__(
        self,
        world: World,
        capacity_bytes: int = 16 << 20,
        op: str = "average",
        phase: str = "fused_allreduce",
        codec: WireCodec | str | None = None,
        error_feedback: bool = True,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.world = world
        self.capacity_bytes = capacity_bytes
        self.op = op
        self.phase = phase
        #: wire compression for every flush (fp16/bf16 transport with fp32
        #: reduction accumulators); ``error_feedback`` banks each tensor's
        #: per-rank quantization residual and re-injects it on the next add
        self.codec = get_codec(codec)
        self._error_feedback: ErrorFeedback | None = (
            ErrorFeedback(self.codec) if self.codec is not None and error_feedback else None
        )
        self._entries: list[tuple[str, list[np.ndarray]]] = []
        self._pending_bytes = 0
        self._results: dict[str, list[np.ndarray]] = {}
        self.flush_count = 0
        #: cumulative per-rank payload actually sent through fused flushes —
        #: the "true fused payload" a persistent buffer accumulates across
        #: iterations (trainer accounting reads this), priced at the wire
        #: itemsize when a codec is set.
        self.bytes_flushed = 0

    def add(self, name: str, per_rank_tensors: list[np.ndarray]) -> None:
        """Queue one named tensor group (one tensor per rank) for reduction."""
        if len(per_rank_tensors) != self.world.size:
            raise ValueError(
                f"{name!r}: expected {self.world.size} tensors, got {len(per_rank_tensors)}"
            )
        if name in self._results or any(n == name for n, _ in self._entries):
            raise ValueError(f"duplicate tensor name {name!r} in fusion buffer")
        shape = per_rank_tensors[0].shape
        for r, t in enumerate(per_rank_tensors):
            if t.shape != shape:
                raise ValueError(f"{name!r}: rank {r} shape {t.shape} != {shape}")
        tensors = list(per_rank_tensors)
        if self._error_feedback is not None:
            tensors = [
                self._error_feedback.apply((name, r), t) for r, t in enumerate(tensors)
            ]
        self._entries.append((name, tensors))
        self._pending_bytes += wire_nbytes(tensors[0], self.codec)
        if self._pending_bytes >= self.capacity_bytes:
            self.flush()

    def flush(self) -> None:
        """Fuse all queued tensors into one flat allreduce and scatter results."""
        if not self._entries:
            return
        names = [n for n, _ in self._entries]
        shapes = [tensors[0].shape for _, tensors in self._entries]
        sizes = [int(np.prod(s)) if s else 1 for s in shapes]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        fused = [
            np.concatenate([tensors[r].reshape(-1) for _, tensors in self._entries])
            for r in range(self.world.size)
        ]
        reduced = self.world.allreduce(
            fused, op=self.op, phase=self.phase, codec=self.codec
        )
        for i, name in enumerate(names):
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            self._results[name] = [r[lo:hi].reshape(shapes[i]).copy() for r in reduced]
        self._entries.clear()
        self._pending_bytes = 0
        self.flush_count += 1
        self.bytes_flushed += wire_nbytes(fused[0], self.codec)

    def rescale_residuals(self, factor: float) -> None:
        """Rescale banked error-feedback residuals (no-op without EF).

        Callers feeding *loss-scaled* gradients must invoke this with
        ``new_scale / old_scale`` whenever the scale changes, so residuals
        banked in old-scale units re-inject at the right magnitude.
        """
        if self._error_feedback is not None:
            self._error_feedback.rescale(factor)

    def pop(self, name: str) -> list[np.ndarray]:
        """Return (and forget) the reduced per-rank results for ``name``.

        Flushes first if the tensor is still queued.
        """
        if name not in self._results:
            self.flush()
        if name not in self._results:
            raise KeyError(f"tensor {name!r} was never added to the fusion buffer")
        return self._results.pop(name)

    @property
    def pending_bytes(self) -> int:
        return self._pending_bytes
