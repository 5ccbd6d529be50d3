"""The simulated communication world.

Two usage styles, sharing the same collective algorithms and cost model:

1. **Phase-style (synchronous)** — the caller holds all ranks' buffers and
   invokes ``world.allreduce([buf_0, ..., buf_{p-1}])``.  Deterministic and
   fast; used by the data-parallel trainer and the distributed K-FAC
   implementation.

2. **SPMD-style (threaded)** — ``world.run_spmd(program)`` launches one
   thread per rank; each thread's :class:`RankView` offers *blocking*
   ``allreduce``/``allgather``/``broadcast``/``barrier`` calls matched by
   operation name, exactly like Horovod ops are matched by tensor name.
   Mismatched or missing posts raise :class:`DeadlockError` instead of
   hanging forever.

Every collective charges simulated seconds (from
:mod:`repro.comm.costmodel`) and payload bytes to one per-phase ledger —
``world.stats`` (:class:`CommStats`: bytes and ops, recorded at launch)
and ``world.overlap`` (:class:`OverlapStats`: exposed and hidden seconds,
recorded at settle) — so experiments can report the communication
profile the paper shows in Table V.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.comm.collectives import (
    binomial_broadcast,
    ring_allgather,
    ring_allreduce,
    ring_reduce_scatter,
)
from repro.comm.compression import WireCodec, get_codec, wire_nbytes
from repro.comm.faults import CollectiveError, FaultPlan
from repro.comm.costmodel import (
    EDR_LIKE,
    NetworkProfile,
    allgather_time,
    allreduce_time,
    broadcast_time,
    reduce_scatter_time,
)
from repro.comm.handles import InFlightHandle, LaunchedHandle
from repro.obs.tracer import NULL_TRACER

__all__ = [
    "World",
    "RankView",
    "DeadlockError",
    "CommStats",
    "OverlapStats",
    "task_overlap_profile",
]


class DeadlockError(RuntimeError):
    """Raised when a matched collective cannot complete (missing ranks)."""


@dataclass
class CommStats:
    """Aggregate communication accounting for one world."""

    bytes_by_phase: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    ops_by_phase: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def record(self, phase: str, nbytes: float) -> None:
        self.bytes_by_phase[phase] += nbytes
        self.ops_by_phase[phase] += 1

    def total_bytes(self) -> float:
        return sum(self.bytes_by_phase.values())

    def total_ops(self) -> int:
        return sum(self.ops_by_phase.values())


@dataclass
class OverlapStats:
    """Exposed vs. hidden communication seconds, per phase.

    Together with :class:`CommStats` (bytes and ops, recorded at launch)
    this is the world's one comm ledger.  Every collective's simulated
    cost lands here exactly once, at settle: synchronous calls are fully
    *exposed*; a launched call waited with an overlap budget splits into
    ``exposed = max(0, t - overlap_budget)`` plus the ``hidden``
    remainder (comm time masked by concurrent local compute, the
    SPD-KFAC pipelining gain).  Driver retry backoff is recorded under
    the ``retry_backoff`` phase, fully exposed.

    Example
    -------
    >>> from repro.comm.backend import OverlapStats
    >>> stats = OverlapStats()
    >>> stats.record("factor_comm", exposed=0.2, hidden=0.8)
    >>> stats.total("factor_comm"), stats.total_hidden()
    (1.0, 0.8)
    """

    exposed_by_phase: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    hidden_by_phase: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def record(self, phase: str, exposed: float, hidden: float) -> None:
        """Add one op's exposed and hidden seconds to ``phase``."""
        if exposed < 0 or hidden < 0:
            raise ValueError(
                f"cannot record negative time for {phase!r}: "
                f"exposed={exposed}, hidden={hidden}"
            )
        self.exposed_by_phase[phase] += exposed
        self.hidden_by_phase[phase] += hidden

    def exposed(self, phase: str) -> float:
        return self.exposed_by_phase.get(phase, 0.0)

    def hidden(self, phase: str) -> float:
        return self.hidden_by_phase.get(phase, 0.0)

    def total(self, phase: str) -> float:
        return self.exposed(phase) + self.hidden(phase)

    def total_hidden(self) -> float:
        return sum(self.hidden_by_phase.values())

    def as_dict(self) -> dict[str, dict[str, float]]:
        phases = set(self.exposed_by_phase) | set(self.hidden_by_phase)
        return {
            p: {"exposed": self.exposed(p), "hidden": self.hidden(p)}
            for p in sorted(phases)
        }


#: comm phase -> scheduler task kind responsible for that traffic
_PHASE_TO_TASK_KIND = {
    "factor_comm": "FactorComm",
    "eig_comm": "EigShare",
    "precond_comm": "GradShare",
    "grad_allreduce": "GradAllReduce",
}


def task_overlap_profile(
    exposed: Mapping[str, float], hidden: Mapping[str, float]
) -> dict[str, dict[str, float]]:
    """Exposed/hidden seconds keyed by scheduler task kind.

    Translates per-phase exposed and hidden seconds (the two sides of an
    :class:`OverlapStats`) into the task vocabulary of :mod:`repro.sched`
    (``FactorComm``, ``EigShare``, ``GradShare``, ...), so training
    histories can report which *task kind* paid exposed communication and
    which overlapped.  Every mapped task kind is always present — kinds
    that never ran report zeroed fields, so downstream tables see a stable
    schema.  Phases without a task mapping keep their phase name.

    Example
    -------
    >>> from repro.comm.backend import OverlapStats, task_overlap_profile
    >>> stats = OverlapStats()
    >>> stats.record("factor_comm", exposed=0.2, hidden=0.8)
    >>> profile = task_overlap_profile(stats.exposed_by_phase, stats.hidden_by_phase)
    >>> profile["FactorComm"]
    {'exposed': 0.2, 'hidden': 0.8}
    >>> sorted(profile)                       # zeroed kinds still present
    ['EigShare', 'FactorComm', 'GradAllReduce', 'GradShare']
    >>> profile["EigShare"]
    {'exposed': 0.0, 'hidden': 0.0}
    """
    out: dict[str, dict[str, float]] = {
        kind: {"exposed": 0.0, "hidden": 0.0}
        for kind in _PHASE_TO_TASK_KIND.values()
    }
    for phase in sorted(set(exposed) | set(hidden)):
        kind = _PHASE_TO_TASK_KIND.get(phase, phase)
        bucket = out.setdefault(kind, {"exposed": 0.0, "hidden": 0.0})
        bucket["exposed"] += exposed.get(phase, 0.0)
        bucket["hidden"] += hidden.get(phase, 0.0)
    return out


class World:
    """A simulated set of ``size`` communicating workers.

    Example
    -------
    >>> import numpy as np
    >>> from repro.comm.backend import World
    >>> world = World(2)
    >>> out = world.allreduce([np.array([1.0]), np.array([3.0])])
    >>> out[0].tolist()                          # averaged across ranks
    [2.0]
    >>> world.stats.total_ops()                  # and accounted
    1
    """

    def __init__(self, size: int, net: NetworkProfile = EDR_LIKE) -> None:
        if size < 1:
            raise ValueError(f"world size must be >= 1, got {size}")
        self.size = size
        self.net = net
        self.stats = CommStats()
        self.overlap = OverlapStats()
        # SPMD matching state
        self._lock = threading.Condition()
        self._pending: dict[str, dict[int, np.ndarray]] = {}
        self._results: dict[str, list[Any]] = {}
        self._consumed: dict[str, int] = {}
        self._op_meta: dict[str, tuple[str, Any, tuple[int, ...]]] = {}
        self._overlap_budget: dict[str, float] = {}
        # per (kind, name, rank) repost counter so op names can be reused
        # across iterations without racing slow consumers
        self._generation: dict[tuple[str, str, int], int] = {}
        self._spmd_failed: BaseException | None = None
        # fault/straggler injection (repro.comm.faults); None = clean fleet
        self.fault_plan: FaultPlan | None = None
        self.current_step = 0
        # span tracing (repro.obs.tracer); the null tracer records nothing
        self.tracer = NULL_TRACER

    def begin_step(self, step: int) -> None:
        """Advance the fault-injection step clock (no-op without a plan).

        Example
        -------
        >>> from repro.comm.backend import World
        >>> w = World(2)
        >>> w.begin_step(3)
        >>> w.current_step
        3
        """
        self.current_step = int(step)

    def _fault_gate(self, phase: str, group: Sequence[int] | None = None) -> float:
        """Consult the fault plan for one collective.

        Raises :class:`~repro.comm.faults.CollectiveError` for injected
        failures/dead ranks; returns extra straggler/latency seconds to
        fold into the op's simulated cost.
        """
        if self.fault_plan is None:
            return 0.0
        members = tuple(range(self.size)) if group is None else tuple(group)
        tracer = self.tracer
        try:
            extra = self.fault_plan.apply(self.current_step, phase, members)
        except CollectiveError as exc:
            if tracer.enabled:
                for r in members:
                    tracer.instant(
                        f"fault:{phase}", "fault", r,
                        attrs={"error": type(exc).__name__, "step": self.current_step},
                    )
            raise
        if extra and tracer.enabled:
            for r in members:
                tracer.instant(
                    f"fault:{phase}", "fault", r,
                    attrs={"delay_seconds": float(extra), "step": self.current_step},
                )
        return extra

    # ------------------------------------------------------------------
    # phase-style synchronous API
    # ------------------------------------------------------------------
    def _trace_comm(
        self,
        phase: str,
        seconds: float,
        exposed: float,
        hidden: float,
        nbytes: float,
        group: Sequence[int] | None,
    ) -> None:
        """Record one comm span per participating rank (tracing enabled only).

        Spans are recorded at the *exact* ledger-charge sites with the
        same floats in the same order, so per-phase trace sums reconcile
        with ``CommStats``/``OverlapStats`` without tolerance.  The
        ledgers charge each op *once* regardless of group membership, so
        only the first member's span carries ``owner=True`` — summing
        owner spans (``Tracer.phase_totals()`` with no rank) rebuilds the
        global ledger; per-rank spans all carry the timings for display.
        """
        tracer = self.tracer
        members = list(range(self.size)) if group is None else list(group)
        for r in members:
            tracer.span(
                phase,
                "comm",
                r,
                seconds,
                attrs={
                    "exposed": exposed,
                    "hidden": hidden,
                    "bytes": float(nbytes),
                    "owner": r == members[0],
                },
            )

    def _charge(
        self,
        phase: str,
        seconds: float,
        nbytes: float,
        group: Sequence[int] | None = None,
    ) -> None:
        self.stats.record(phase, nbytes)
        self.overlap.record(phase, seconds, 0.0)
        if self.tracer.enabled:
            self._trace_comm(phase, seconds, seconds, 0.0, nbytes, group)

    def _settle_async(
        self,
        phase: str,
        seconds: float,
        overlap_seconds: float,
        nbytes: float = 0.0,
        group: Sequence[int] | None = None,
    ) -> None:
        """Split an async op's cost into exposed + hidden and account it."""
        hidden = min(seconds, max(0.0, overlap_seconds))
        exposed = seconds - hidden
        self.overlap.record(phase, exposed, hidden)
        if self.tracer.enabled:
            self._trace_comm(phase, seconds, exposed, hidden, nbytes, group)

    def allreduce(
        self,
        buffers: Sequence[np.ndarray],
        op: str = "average",
        phase: str = "allreduce",
        codec: WireCodec | str | None = None,
    ) -> list[np.ndarray]:
        """Ring-allreduce per-rank buffers; ``op`` is ``"sum"`` or ``"average"``."""
        return self.allreduce_async(buffers, op=op, phase=phase, codec=codec).wait()

    def allreduce_async(
        self,
        buffers: Sequence[np.ndarray],
        op: str = "average",
        phase: str = "allreduce",
        codec: WireCodec | str | None = None,
    ) -> InFlightHandle[list[np.ndarray]]:
        """Non-blocking ring allreduce.

        The data movement happens eagerly (the phase-style world is
        deterministic); the simulated cost is settled at
        ``handle.wait(overlap_seconds=...)``, splitting it into exposed and
        compute-hidden seconds.

        With a ``codec`` (``"fp16"``/``"bf16"``) the wire carries the
        compressed representation — bytes and seconds are charged at the
        codec's itemsize — while the reduction itself runs on decoded
        **fp32 accumulators**; the result is re-quantized to wire
        precision, exactly like an NCCL half-precision allreduce with
        fp32 arithmetic.
        """
        bufs = list(buffers)
        if len(bufs) != self.size:
            raise ValueError(f"expected {self.size} buffers, got {len(bufs)}")
        extra = self._fault_gate(phase)
        codec = get_codec(codec)
        # non-finite payloads are legitimate here: AMP overflow steps ship
        # saturated values and detect them *after* the reduce, so the ring
        # arithmetic must not warn about inf/nan propagation
        with np.errstate(invalid="ignore", over="ignore"):
            if codec is not None:
                nbytes = wire_nbytes(bufs[0], codec)
                bufs = [codec.decode(codec.encode(b)) for b in bufs]
            else:
                nbytes = bufs[0].nbytes
            out = ring_allreduce(bufs)
            if op == "average":
                out = [o / self.size for o in out]
            elif op != "sum":
                raise ValueError(f"unknown reduction op {op!r}")
            if codec is not None:
                out = [codec.quantize(o) for o in out]
        t = allreduce_time(nbytes, self.size, self.net) + extra
        self.stats.record(phase, nbytes)
        return InFlightHandle(
            out, t, lambda ov: self._settle_async(phase, t, ov, nbytes)
        )

    def allgather(
        self, contributions: Sequence[np.ndarray], phase: str = "allgather"
    ) -> list[list[np.ndarray]]:
        """Ring-allgather per-rank tensors (shapes may differ across ranks)."""
        return self.allgather_async(contributions, phase=phase).wait()

    def allgather_async(
        self, contributions: Sequence[np.ndarray], phase: str = "allgather"
    ) -> InFlightHandle[list[list[np.ndarray]]]:
        """Non-blocking ring allgather (see :meth:`allreduce_async`)."""
        contribs = list(contributions)
        if len(contribs) != self.size:
            raise ValueError(f"expected {self.size} contributions, got {len(contribs)}")
        extra = self._fault_gate(phase)
        total = float(sum(c.nbytes for c in contribs))
        out = ring_allgather(contribs)
        t = allgather_time(total, self.size, self.net) + extra
        self.stats.record(phase, total)
        return InFlightHandle(
            out, t, lambda ov: self._settle_async(phase, t, ov, total)
        )

    def broadcast(
        self, value: np.ndarray, root: int = 0, phase: str = "broadcast"
    ) -> list[np.ndarray]:
        """Binomial broadcast from ``root``; returns one copy per rank."""
        extra = self._fault_gate(phase)
        out = binomial_broadcast(value, self.size, root)
        t = broadcast_time(value.nbytes, self.size, self.net) + extra
        self._charge(phase, t, value.nbytes)
        return out

    def group_allgather(
        self,
        contributions: Sequence[np.ndarray],
        ranks: Sequence[int],
        phase: str = "allgather",
    ) -> list[list[np.ndarray]]:
        """Ring allgather restricted to a rank subset (a worker group).

        ``contributions`` is ordered as ``ranks``; each member receives
        the full list of member contributions.  Cost and bytes are those
        of a ``len(ranks)``-rank ring — the gradient-worker-fraction
        strategy's cheaper eigenbasis exchange.
        """
        return self.group_allgather_async(contributions, ranks, phase=phase).wait()

    def group_allgather_async(
        self,
        contributions: Sequence[np.ndarray],
        ranks: Sequence[int],
        phase: str = "allgather",
    ) -> InFlightHandle[list[list[np.ndarray]]]:
        """Non-blocking group allgather (see :meth:`allreduce_async`).

        A singleton group moves no data and charges nothing, matching the
        blocking shortcut.
        """
        group = tuple(ranks)
        contribs = list(contributions)
        if len(contribs) != len(group):
            raise ValueError(f"expected {len(group)} contributions, got {len(contribs)}")
        if len(set(group)) != len(group) or any(not 0 <= r < self.size for r in group):
            raise ValueError(f"invalid group ranks {group} for world size {self.size}")
        extra = self._fault_gate(phase, group)
        if len(group) == 1:
            if extra:
                return InFlightHandle(
                    [[contribs[0]]],
                    extra,
                    lambda ov: self._settle_async(phase, extra, ov, 0.0, group),
                )
            return InFlightHandle([[contribs[0]]], 0.0, lambda ov: None)
        total = float(sum(c.nbytes for c in contribs))
        out = ring_allgather(contribs)
        t = allgather_time(total, len(group), self.net) + extra
        self.stats.record(phase, total)
        return InFlightHandle(
            out, t, lambda ov: self._settle_async(phase, t, ov, total, group)
        )

    def group_broadcast(
        self,
        value: np.ndarray,
        root: int,
        ranks: Sequence[int],
        phase: str = "broadcast",
    ) -> list[np.ndarray]:
        """Binomial broadcast from ``root`` to the subset ``ranks``.

        Returns one copy per listed rank (ordered as ``ranks``).  The
        simulated tree spans only the group, so a broadcast to few ranks
        is proportionally cheaper than a world broadcast.
        """
        return self.group_broadcast_async(value, root, ranks, phase=phase).wait()

    def group_broadcast_async(
        self,
        value: np.ndarray,
        root: int,
        ranks: Sequence[int],
        phase: str = "broadcast",
    ) -> InFlightHandle[list[np.ndarray]]:
        """Non-blocking group broadcast (see :meth:`allreduce_async`)."""
        group = tuple(ranks)
        if root not in group:
            raise ValueError(f"root {root} not in group {group}")
        if len(set(group)) != len(group) or any(not 0 <= r < self.size for r in group):
            raise ValueError(f"invalid group ranks {group} for world size {self.size}")
        extra = self._fault_gate(phase, group)
        if len(group) == 1:
            if extra:
                return InFlightHandle(
                    [value],
                    extra,
                    lambda ov: self._settle_async(phase, extra, ov, 0.0, group),
                )
            return InFlightHandle([value], 0.0, lambda ov: None)
        out = binomial_broadcast(value, len(group), group.index(root))
        t = broadcast_time(value.nbytes, len(group), self.net) + extra
        self.stats.record(phase, float(value.nbytes))
        return InFlightHandle(
            out,
            t,
            lambda ov: self._settle_async(phase, t, ov, float(value.nbytes), group),
        )

    def reduce_scatter(
        self, buffers: Sequence[np.ndarray], phase: str = "reduce_scatter"
    ) -> list[np.ndarray]:
        """Ring reduce-scatter; rank ``r`` receives summed chunk ``r``."""
        bufs = list(buffers)
        if len(bufs) != self.size:
            raise ValueError(f"expected {self.size} buffers, got {len(bufs)}")
        extra = self._fault_gate(phase)
        nbytes = bufs[0].nbytes
        out = ring_reduce_scatter(bufs)
        t = reduce_scatter_time(nbytes, self.size, self.net) + extra
        self._charge(phase, t, nbytes)
        return out

    # ------------------------------------------------------------------
    # SPMD-style threaded API
    # ------------------------------------------------------------------
    def run_spmd(
        self,
        program: Callable[["RankView"], Any],
        timeout: float = 60.0,
    ) -> list[Any]:
        """Run ``program(rank_view)`` on every rank in its own thread.

        Returns the per-rank return values.  Any exception in any rank is
        re-raised in the caller (other ranks are unblocked and drained).
        """
        results: list[Any] = [None] * self.size
        errors: list[BaseException | None] = [None] * self.size

        def runner(r: int) -> None:
            try:
                results[r] = program(RankView(self, r, timeout))
            except BaseException as exc:  # noqa: BLE001 - propagated below
                errors[r] = exc
                with self._lock:
                    if self._spmd_failed is None:
                        self._spmd_failed = exc
                    self._lock.notify_all()

        threads = [threading.Thread(target=runner, args=(r,), daemon=True) for r in range(self.size)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=timeout * 2)
            if t.is_alive():  # pragma: no cover - defensive
                with self._lock:
                    self._spmd_failed = DeadlockError("rank thread failed to terminate")
                    self._lock.notify_all()
                raise DeadlockError("SPMD program did not terminate (deadlock?)")
        self._spmd_failed = None
        first_error = next((e for e in errors if e is not None), None)
        if first_error is not None:
            raise first_error
        return results

    def _post_matched(
        self,
        kind: str,
        name: str,
        rank: int,
        tensor: np.ndarray,
        meta: Any,
        timeout: float,
        overlap_seconds: float = 0.0,
        ranks: Sequence[int] | None = None,
    ) -> Any:
        """Post one rank's contribution to a named op; blocks until matched.

        ``overlap_seconds`` is this rank's compute time since the op was
        launched; the *minimum* across ranks bounds how much of the op's
        cost counts as hidden (the least-overlapped rank sets the barrier).
        ``ranks`` restricts the op to a worker group: only listed ranks
        post, and the op completes once all of them have (the default is
        the whole world).
        """
        group = tuple(range(self.size)) if ranks is None else tuple(ranks)
        with self._lock:
            if rank not in group:
                raise DeadlockError(
                    f"op {name!r}: rank {rank} posted to group {group} it is not in"
                )
            gen = self._generation.get((kind, name, rank), 0)
            self._generation[(kind, name, rank)] = gen + 1
            key = f"{kind}:{name}#{gen}"
            if key in self._op_meta:
                prev_kind, prev_meta, prev_group = self._op_meta[key]
                if prev_kind != kind or prev_meta != meta or prev_group != group:
                    raise DeadlockError(
                        f"op {name!r}: rank {rank} posted {kind}/{meta}/{group}, "
                        f"but op was registered as {prev_kind}/{prev_meta}/{prev_group}"
                    )
            else:
                self._op_meta[key] = (kind, meta, group)
            pending = self._pending.setdefault(key, {})
            if rank in pending:
                raise DeadlockError(f"op {name!r}: rank {rank} posted twice")
            pending[rank] = tensor
            self._overlap_budget[key] = min(
                self._overlap_budget.get(key, float("inf")), max(0.0, overlap_seconds)
            )
            if len(pending) == len(group):
                ordered = [pending[r] for r in group]
                try:
                    values = self._execute(
                        kind, ordered, meta, self._overlap_budget.pop(key, 0.0)
                    )
                except CollectiveError as exc:
                    # deliver the failure to every member in lockstep: each
                    # rank re-raises the same error on consume, so all ranks
                    # observe (and can retry) the op identically
                    self._results[key] = {r: exc for r in group}
                else:
                    self._results[key] = dict(zip(group, values))
                self._consumed[key] = 0
                self._lock.notify_all()
            else:
                deadline = threading.TIMEOUT_MAX if timeout is None else timeout
                while key not in self._results:
                    if self._spmd_failed is not None:
                        raise DeadlockError(
                            f"op {name!r} aborted: another rank failed "
                            f"({type(self._spmd_failed).__name__})"
                        )
                    if not self._lock.wait(timeout=deadline):
                        missing = [r for r in group if r not in pending]
                        raise DeadlockError(
                            f"op {name!r} timed out waiting for ranks {missing}"
                        )
            result = self._results[key][rank]
            self._consumed[key] += 1
            if self._consumed[key] == len(group):
                # whole op consumed: clear so the name can be reused next iter
                del self._results[key]
                del self._pending[key]
                del self._consumed[key]
                del self._op_meta[key]
            if isinstance(result, CollectiveError):
                raise result
            return result

    def _execute(
        self, kind: str, ordered: list[np.ndarray], meta: Any, overlap_seconds: float = 0.0
    ) -> list[Any]:
        if kind == "allreduce":
            codec = meta[2] if len(meta) > 2 else None
            return self.allreduce_async(
                ordered, op=meta[0], phase=meta[1], codec=codec
            ).wait(overlap_seconds)
        if kind == "allgather":
            return self.allgather_async(ordered, phase=meta[1]).wait(overlap_seconds)
        if kind == "broadcast":
            root = meta[0]
            return self.broadcast(ordered[root], root=root, phase=meta[1])
        if kind == "group_allgather":
            ranks, phase = meta
            return self.group_allgather_async(ordered, ranks, phase=phase).wait(
                overlap_seconds
            )
        if kind == "group_broadcast":
            root, ranks, phase = meta
            return self.group_broadcast_async(
                ordered[ranks.index(root)], root, ranks, phase=phase
            ).wait(overlap_seconds)
        if kind == "barrier":
            return [None] * len(ordered)
        raise ValueError(f"unknown collective kind {kind!r}")


class RankView:
    """One rank's blocking view of the world (SPMD style)."""

    def __init__(self, world: World, rank: int, timeout: float = 60.0) -> None:
        self.world = world
        self.rank = rank
        self.timeout = timeout

    @property
    def size(self) -> int:
        return self.world.size

    def begin_step(self, step: int) -> None:
        """Advance the shared fault-injection step clock from this rank.

        All ranks of an SPMD program call this with the same step value
        at the same loop point, so the benign last-writer-wins race is
        invisible.
        """
        self.world.begin_step(step)

    def allreduce(
        self,
        tensor: np.ndarray,
        name: str,
        op: str = "average",
        phase: str = "allreduce",
        codec: str | None = None,
    ) -> np.ndarray:
        """Blocking named allreduce (matched across ranks by ``name``).

        ``codec`` names a wire compression (``"fp16"``/``"bf16"``); it is
        part of the matched metadata, so every rank must request the same
        transport precision.
        """
        return self.world._post_matched(
            "allreduce", name, self.rank, tensor, (op, phase, codec), self.timeout
        )

    def allreduce_async(
        self,
        tensor: np.ndarray,
        name: str,
        op: str = "average",
        phase: str = "allreduce",
        codec: str | None = None,
    ) -> LaunchedHandle[np.ndarray]:
        """Non-blocking named allreduce; the matched post happens at wait.

        ``wait(overlap_seconds=...)`` forwards this rank's compute-overlap
        budget; the op's hidden time is bounded by the minimum budget
        across ranks.
        """
        return LaunchedHandle(
            lambda ov: self.world._post_matched(
                "allreduce", name, self.rank, tensor, (op, phase, codec), self.timeout, ov
            )
        )

    def allgather(self, tensor: np.ndarray, name: str, phase: str = "allgather") -> list[np.ndarray]:
        """Blocking named allgather; returns all ranks' contributions."""
        return self.world._post_matched(
            "allgather", name, self.rank, tensor, (None, phase), self.timeout
        )

    def allgather_async(
        self, tensor: np.ndarray, name: str, phase: str = "allgather"
    ) -> LaunchedHandle[list[np.ndarray]]:
        """Non-blocking named allgather (see :meth:`allreduce_async`)."""
        return LaunchedHandle(
            lambda ov: self.world._post_matched(
                "allgather", name, self.rank, tensor, (None, phase), self.timeout, ov
            )
        )

    def broadcast(
        self, tensor: np.ndarray, name: str, root: int = 0, phase: str = "broadcast"
    ) -> np.ndarray:
        """Blocking named broadcast from ``root``."""
        return self.world._post_matched(
            "broadcast", name, self.rank, tensor, (root, phase), self.timeout
        )

    def group_allgather(
        self,
        tensor: np.ndarray,
        name: str,
        ranks: Sequence[int],
        phase: str = "allgather",
    ) -> list[np.ndarray]:
        """Blocking allgather among a rank subset (this rank must be in it).

        Only ranks listed in ``ranks`` may post; the op completes once all
        of them have.  Returns the members' contributions ordered as
        ``ranks``.
        """
        group = tuple(ranks)
        return self.world._post_matched(
            "group_allgather", name, self.rank, tensor, (group, phase),
            self.timeout, ranks=group,
        )

    def group_allgather_async(
        self,
        tensor: np.ndarray,
        name: str,
        ranks: Sequence[int],
        phase: str = "allgather",
    ) -> LaunchedHandle[list[np.ndarray]]:
        """Non-blocking group allgather (see :meth:`allreduce_async`)."""
        group = tuple(ranks)
        return LaunchedHandle(
            lambda ov: self.world._post_matched(
                "group_allgather", name, self.rank, tensor, (group, phase),
                self.timeout, ov, ranks=group,
            )
        )

    def group_broadcast(
        self,
        tensor: np.ndarray,
        name: str,
        root: int,
        ranks: Sequence[int],
        phase: str = "broadcast",
    ) -> np.ndarray:
        """Blocking broadcast from ``root`` to the subset ``ranks``."""
        group = tuple(ranks)
        return self.world._post_matched(
            "group_broadcast", name, self.rank, tensor, (root, group, phase),
            self.timeout, ranks=group,
        )

    def group_broadcast_async(
        self,
        tensor: np.ndarray,
        name: str,
        root: int,
        ranks: Sequence[int],
        phase: str = "broadcast",
    ) -> LaunchedHandle[np.ndarray]:
        """Non-blocking group broadcast (see :meth:`allreduce_async`)."""
        group = tuple(ranks)
        return LaunchedHandle(
            lambda ov: self.world._post_matched(
                "group_broadcast", name, self.rank, tensor, (root, group, phase),
                self.timeout, ov, ranks=group,
            )
        )

    def barrier(self, name: str = "barrier") -> None:
        """Block until every rank reaches the barrier."""
        self.world._post_matched(
            "barrier", name, self.rank, np.zeros(0, dtype=np.float32), (None, "barrier"), self.timeout
        )
