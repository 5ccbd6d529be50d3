"""Simulated Horovod-like communication substrate.

The paper's implementation communicates through Horovod's ``allreduce()``,
``allgather()`` and ``broadcast()`` with asynchronous handles and a fusion
buffer (§II-D, §V-A).  This package reproduces those semantics for
*simulated* workers living in one process:

- :mod:`repro.comm.backend` — the :class:`World`: ranks, op matching with
  deadlock detection, and the one comm ledger (``CommStats`` bytes/ops,
  ``OverlapStats`` exposed vs. hidden seconds);
- :mod:`repro.comm.collectives` — data-moving ring allreduce/allgather,
  binomial-tree broadcast, reduce-scatter (bit-level testable);
- :mod:`repro.comm.costmodel` — alpha-beta cost functions for the same
  algorithms (drives the paper's scaling results);
- :mod:`repro.comm.fusion` — Horovod's fusion buffer (accumulate small
  tensors, flush as one bandwidth-bound allreduce);
- :mod:`repro.comm.engine` — the shared bucketing primitive and the
  deterministic compute budgets that pipelined (SPD-KFAC-style) waits
  hide communication behind;
- :mod:`repro.comm.horovod` — a ``hvd``-flavoured per-rank frontend
  (``size``/``rank``/``allreduce_async_``/``synchronize``/
  ``broadcast_parameters``/``DistributedOptimizer``).
"""

from repro.comm.backend import OverlapStats, World, task_overlap_profile
from repro.comm.engine import estimate_second_order_seconds, partition_buckets
from repro.comm.collectives import (
    binomial_broadcast,
    ring_allgather,
    ring_allreduce,
    ring_reduce_scatter,
)
from repro.comm.costmodel import (
    NetworkProfile,
    allgather_time,
    allreduce_time,
    broadcast_time,
    reduce_scatter_time,
)
from repro.comm.fusion import (
    FusionBuffer,
    block_tri_len,
    tri_len,
    tri_pack,
    tri_pack_blocks,
    tri_unpack,
    tri_unpack_blocks,
)
from repro.comm.horovod import Average, DistributedOptimizer, HorovodContext, Sum

__all__ = [
    "World",
    "OverlapStats",
    "task_overlap_profile",
    "estimate_second_order_seconds",
    "partition_buckets",
    "tri_len",
    "tri_pack",
    "tri_unpack",
    "block_tri_len",
    "tri_pack_blocks",
    "tri_unpack_blocks",
    "ring_allreduce",
    "ring_allgather",
    "ring_reduce_scatter",
    "binomial_broadcast",
    "NetworkProfile",
    "allreduce_time",
    "allgather_time",
    "broadcast_time",
    "reduce_scatter_time",
    "FusionBuffer",
    "HorovodContext",
    "DistributedOptimizer",
    "Average",
    "Sum",
]
