"""Drivers binding the K-FAC step generator to a communication substrate.

Two drivers, one algorithm, one protocol:

- :class:`PhaseController` — lockstep execution of P replicas' step
  generators against a :class:`repro.comm.World` (deterministic; used by
  the data-parallel trainer and all experiments).  Each matched allreduce
  launch is fused into a single flat ring-allreduce, reproducing
  Horovod's fusion-buffer behaviour for factor communication.
- :class:`SPMDDriver` — executes a single rank's generator inside a
  threaded SPMD program via matched named collectives (what the
  Listing 1-style quickstart uses).

Both speak the launch/wait protocol of :mod:`repro.core.comm_ops`: a
launch starts a collective, and the matching wait settles it, crediting
the compute the generator reports as hidden communication time (zero for
a blocking collective).  A world of one needs no driver:
``KFAC.step()`` runs the generator directly.

Failed collectives are retried by one helper shared by both drivers
(:meth:`_RetryingDriver._with_retry`).  It runs where each substrate
posts: at the launch on the phase-style ``World``, whose collectives move
data eagerly, and at the wait for SPMD, whose matched post is deferred
until then.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Generator, Sequence

import numpy as np

from repro.comm.backend import World
from repro.comm.faults import CollectiveError, CollectiveFailed, RetryPolicy
from repro.comm.handles import Handle, LaunchedHandle
from repro.comm.horovod import HorovodContext
from repro.core.comm_ops import (
    AllGatherLaunch,
    AllReduceLaunch,
    GroupAllGatherLaunch,
    GroupBroadcastLaunch,
    WaitRequest,
    pack_arrays,
    unpack_arrays,
)
from repro.core.preconditioner import KFAC
from repro.utils.logging import NULL_LOGGER, Logger

__all__ = ["PhaseController", "SPMDDriver"]


def _advance(gen: Generator, value: Any = None, first: bool = False) -> Any | None:
    """Advance a generator; return the next request or None when finished."""
    try:
        return next(gen) if first else gen.send(value)
    except StopIteration:
        return None


class _RetryingDriver:
    """Bounded retry-with-backoff shared by both drivers.

    ``ranks`` are the ranks the driver speaks for: every rank for the
    phase controller, its own rank for an SPMD driver.  The world delivers
    an injected failure to every posting rank in lockstep, so all ranks
    retry the same number of times and (SPMD) their matched-op generation
    counters stay aligned.
    """

    def __init__(
        self,
        world: World,
        ranks: Sequence[int],
        retry_policy: RetryPolicy | None,
        logger: Logger,
    ) -> None:
        self.world = world
        self._ranks = tuple(ranks)
        #: bounded retry-with-backoff for failed collectives; ``None``
        #: propagates the first :class:`CollectiveError` unchanged
        self.retry_policy = retry_policy
        #: degraded-path events (retries, fallbacks) surface as warnings
        self.logger = logger
        self.comm_retries = 0
        self.comm_fallbacks = 0

    def _with_retry(
        self,
        phase: str,
        attempt_fn: Callable[[], Any],
        group: tuple[int, ...] | None = None,
    ) -> Any:
        """Run a collective with bounded retry-with-backoff.

        Returns the collective's result, or a :class:`CollectiveFailed`
        sentinel when the retry budget is exhausted on a degradable phase
        (the step generator then falls back to stale state); re-raises on
        any other phase.  ``group`` is the op's member ranks (``None``:
        the whole world).  Backoff seconds are charged to the
        ``retry_backoff`` ledger phase by the op's owner, its first
        member, only, since the world ledger is shared; each
        retry/fallback is warned through ``self.logger`` and marked on the
        trace of every member the driver speaks for.
        """
        policy = self.retry_policy
        tracer = self.world.tracer
        attempt = 0
        while True:
            try:
                return attempt_fn()
            except CollectiveError as exc:
                if policy is None:
                    raise
                owner = 0 if group is None else group[0]
                marked = [r for r in self._ranks if group is None or r in group]
                if attempt < policy.max_retries:
                    backoff = policy.backoff(attempt)
                    if owner in self._ranks:
                        self.world.overlap.record("retry_backoff", backoff, 0.0)
                    self.comm_retries += 1
                    attempt += 1
                    self.logger.warn(
                        f"{phase}: collective failed ({exc}); retry "
                        f"{attempt}/{policy.max_retries} after {backoff:.4g}s"
                    )
                    if tracer.enabled:
                        for r in marked:
                            tracer.instant(
                                f"retry:{phase}", "fault", r,
                                attrs={"attempt": attempt},
                            )
                            tracer.span(
                                "retry_backoff", "comm", r, backoff,
                                attrs={
                                    "exposed": backoff,
                                    "hidden": 0.0,
                                    "bytes": 0.0,
                                    "retry_of": phase,
                                    "owner": r == owner,
                                },
                            )
                    continue
                if phase in policy.fallback_phases:
                    self.comm_fallbacks += 1
                    self.logger.warn(
                        f"{phase}: retries exhausted ({exc}); falling back "
                        "to stale state"
                    )
                    if tracer.enabled:
                        for r in marked:
                            tracer.instant(f"fallback:{phase}", "fault", r)
                    return CollectiveFailed(phase=phase, error=exc)
                raise


class PhaseController(_RetryingDriver):
    """Lockstep driver for P replicas' preconditioners over one World.

    All replicas must be configured with the same hyper-parameters and
    ``world_size == world.size`` and ``rank == index``; the controller
    matches their yielded requests step by step and executes each matched
    launch as one fused collective.

    Example
    -------
    >>> import numpy as np
    >>> from repro.comm.backend import World
    >>> from repro.core.distributed import PhaseController
    >>> from repro.core.preconditioner import KFAC
    >>> from repro.nn import Linear, Sequential
    >>> from repro.nn.loss import CrossEntropyLoss
    >>> world = World(2)
    >>> models = [Sequential(Linear(4, 3, rng=np.random.default_rng(1)))
    ...           for _ in range(2)]
    >>> kfacs = [KFAC(m, rank=r, world_size=2, kfac_update_freq=1)
    ...          for r, m in enumerate(models)]
    >>> controller = PhaseController(kfacs, world)
    >>> x = np.ones((4, 4), dtype=np.float32)
    >>> for m in models:
    ...     loss_fn = CrossEntropyLoss()
    ...     _ = loss_fn(m(x), np.arange(4) % 3)
    ...     _ = m.backward(loss_fn.backward())
    >>> controller.step()             # one lockstep K-FAC step, fused comm
    >>> world.stats.total_ops() > 0
    True
    """

    def __init__(
        self,
        kfacs: Sequence[KFAC],
        world: World,
        retry_policy: RetryPolicy | None = RetryPolicy(),
        logger: Logger = NULL_LOGGER,
    ) -> None:
        if len(kfacs) != world.size:
            raise ValueError(f"got {len(kfacs)} KFAC replicas for world size {world.size}")
        for i, k in enumerate(kfacs):
            if k.rank != i or k.world_size != world.size:
                raise ValueError(
                    f"replica {i} has rank/world {k.rank}/{k.world_size}, "
                    f"expected {i}/{world.size}"
                )
        super().__init__(world, range(world.size), retry_policy, logger)
        self.kfacs = list(kfacs)

    def step(self) -> None:
        """Execute one K-FAC step on every replica, in lockstep.

        A launch runs its collective (the world moves the data eagerly)
        and is answered with ``None``; the matching WaitRequest settles its
        simulated time with the minimum compute-overlap budget across
        replicas — the least-overlapped rank sets the barrier.
        """
        gens = [k.step_generator() for k in self.kfacs]
        requests = [_advance(g, first=True) for g in gens]
        # tag -> (handle, allreduce shapes or None, member ranks whose
        # compute budgets bound the hidden time, or None for all)
        pending: dict[str, tuple[Handle, Any, tuple[int, ...] | None]] = {}
        while any(r is not None for r in requests):
            kinds = {type(r) for r in requests}
            if len(kinds) != 1 or None in requests:
                raise RuntimeError(
                    f"replicas diverged: mixed requests {[type(r).__name__ for r in requests]}"
                )
            if isinstance(requests[0], WaitRequest):
                responses = self._wait(requests, pending)  # type: ignore[arg-type]
            else:
                responses = self._launch(requests, pending)
            requests = [_advance(g, resp) for g, resp in zip(gens, responses)]
        if pending:  # pragma: no cover - defensive
            raise RuntimeError(f"step ended with unawaited collectives: {sorted(pending)}")

    def _launch(
        self,
        reqs: Sequence[AllReduceLaunch | AllGatherLaunch | GroupAllGatherLaunch | GroupBroadcastLaunch],
        pending: dict[str, tuple[Handle, Any, tuple[int, ...] | None]],
    ) -> list[None]:
        tags = {req.tag for req in reqs}
        if len(tags) != 1:
            raise RuntimeError(f"replicas diverged: mixed launch tags {sorted(tags)}")
        first = reqs[0]
        tag, phase = first.tag, first.phase
        if tag in pending:
            raise RuntimeError(f"duplicate launch tag {tag!r} within one step")
        shapes = members = None
        if isinstance(first, AllReduceLaunch):
            shapes = [t.shape for t in first.tensors]
            for r, req in enumerate(reqs):
                if [t.shape for t in req.tensors] != shapes:
                    raise RuntimeError(f"rank {r} launch {tag!r} shapes diverged")
            attempt = partial(
                self.world.allreduce_async,
                [pack_arrays(req.tensors) for req in reqs],
                op=first.op,
                phase=phase,
                codec=first.comm_dtype,
            )
        elif isinstance(first, AllGatherLaunch):
            attempt = partial(
                self.world.allgather_async, [req.tensor for req in reqs], phase=phase
            )
        elif isinstance(first, GroupAllGatherLaunch):
            groups = {req.ranks for req in reqs}
            if len(groups) != 1:
                raise RuntimeError(f"replicas diverged: mixed groups {sorted(groups)}")
            members = first.ranks
            for r, req in enumerate(reqs):
                if (req.tensor is None) != (r not in members):
                    raise RuntimeError(
                        f"rank {r}: group-allgather launch {tag!r} contribution "
                        f"does not match membership of group {members}"
                    )
            attempt = partial(
                self.world.group_allgather_async,
                [reqs[r].tensor for r in members],
                members,
                phase=phase,
            )
        elif isinstance(first, GroupBroadcastLaunch):
            keys = {(req.root, req.ranks) for req in reqs}
            if len(keys) != 1:
                raise RuntimeError(f"replicas diverged: mixed broadcast groups {sorted(keys)}")
            root, members = first.root, first.ranks
            if reqs[root].tensor is None:
                raise RuntimeError(f"broadcast root {root} provided no tensor")
            attempt = partial(
                self.world.group_broadcast_async, reqs[root].tensor, root, members, phase=phase
            )
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown request type {type(first)}")
        pending[tag] = (self._with_retry(phase, attempt, members), shapes, members)
        return [None] * len(reqs)

    def _wait(
        self,
        reqs: list[WaitRequest],
        pending: dict[str, tuple[Handle, Any, tuple[int, ...] | None]],
    ) -> list[Any]:
        tags = {req.tag for req in reqs}
        if len(tags) != 1:
            raise RuntimeError(f"replicas diverged: mixed wait tags {sorted(tags)}")
        tag = reqs[0].tag
        if tag not in pending:
            raise RuntimeError(f"wait on unknown tag {tag!r} (never launched?)")
        handle, shapes, members = pending.pop(tag)
        if isinstance(handle, CollectiveFailed):
            # the launch failed past the retry budget: every replica gets
            # the sentinel so the stale-state ledgers stay in lockstep
            return [handle] * len(reqs)
        # only participating ranks' compute can hide a group op's cost
        budgets = (
            [reqs[r].compute_seconds for r in members]
            if members is not None
            else [req.compute_seconds for req in reqs]
        )
        result = handle.wait(min(budgets))
        if shapes is not None:
            return [unpack_arrays(flat, shapes) for flat in result]
        if members is not None:
            # group members receive their copy, everyone else None
            by_rank = dict(zip(members, result))
            return [by_rank.get(r) for r in range(len(reqs))]
        return result


class SPMDDriver(_RetryingDriver):
    """Per-rank driver using matched named collectives (threaded SPMD).

    Example
    -------
    >>> import numpy as np
    >>> from repro.comm.backend import World
    >>> from repro.comm.horovod import HorovodContext
    >>> from repro.core.distributed import SPMDDriver
    >>> from repro.core.preconditioner import KFAC
    >>> from repro.nn import Linear, Sequential
    >>> from repro.nn.loss import CrossEntropyLoss
    >>> def program(view):
    ...     model = Sequential(Linear(4, 3, rng=np.random.default_rng(1)))
    ...     kfac = KFAC(model, rank=view.rank, world_size=2, kfac_update_freq=1)
    ...     driver = SPMDDriver(kfac, HorovodContext(view))
    ...     loss_fn = CrossEntropyLoss()
    ...     _ = loss_fn(model(np.ones((4, 4), dtype=np.float32)), np.arange(4) % 3)
    ...     _ = model.backward(loss_fn.backward())
    ...     driver.step()
    ...     return kfac.steps
    >>> World(2).run_spmd(program)
    [1, 1]
    """

    def __init__(
        self,
        kfac: KFAC,
        hvd: HorovodContext,
        retry_policy: RetryPolicy | None = RetryPolicy(),
        logger: Logger = NULL_LOGGER,
    ) -> None:
        if kfac.world_size != hvd.size():
            raise ValueError(
                f"KFAC world_size {kfac.world_size} != hvd size {hvd.size()}"
            )
        if kfac.rank != hvd.rank():
            raise ValueError(f"KFAC rank {kfac.rank} != hvd rank {hvd.rank()}")
        super().__init__(hvd._view.world, (kfac.rank,), retry_policy, logger)
        self.kfac = kfac
        self.hvd = hvd

    def step(self) -> None:
        """Execute this rank's K-FAC step.

        A launch only builds a deferred handle; the wait posts this rank's
        contribution with its compute-overlap budget and blocks until
        every member has posted.  A failed post raises at the wait, and
        the handle re-posts on each retry (its result is not cached until
        a wait succeeds), keeping the op generations aligned.
        """
        gen = self.kfac.step_generator()
        req = _advance(gen, first=True)
        # tag -> (handle, allreduce shapes or None, phase, group or None)
        pending: dict[str, tuple[Handle, Any, str, tuple[int, ...] | None]] = {}
        while req is not None:
            if isinstance(req, WaitRequest):
                if req.tag not in pending:
                    raise RuntimeError(f"wait on unknown tag {req.tag!r} (never launched?)")
                handle, shapes, phase, group = pending.pop(req.tag)
                result = self._with_retry(
                    phase, partial(handle.wait, req.compute_seconds), group
                )
                if shapes is not None and not isinstance(result, CollectiveFailed):
                    result = unpack_arrays(result, shapes)
            else:
                if req.tag in pending:
                    raise RuntimeError(f"duplicate launch tag {req.tag!r} within one step")
                pending[req.tag] = self._launch(req)
                result = None
            req = _advance(gen, result)
        if pending:  # pragma: no cover - defensive
            raise RuntimeError(f"step ended with unawaited collectives: {sorted(pending)}")

    def _launch(
        self,
        req: AllReduceLaunch | AllGatherLaunch | GroupAllGatherLaunch | GroupBroadcastLaunch,
    ) -> tuple[Handle, Any, str, tuple[int, ...] | None]:
        # matched op names must be identical across ranks, so key them by
        # tag: tags are deterministic, and a group op's tag names its
        # logical group, which keeps the world's per-rank generation
        # counters aligned even when membership differs between steps
        name = f"kfac:{req.phase}:{req.tag}"
        rank = self.kfac.rank
        shapes = group = None
        if isinstance(req, AllReduceLaunch):
            shapes = [t.shape for t in req.tensors]
            handle = self.hvd.allreduce_async(
                pack_arrays(req.tensors),
                name=name,
                op=req.op,
                phase=req.phase,
                codec=req.comm_dtype,
            )
        elif isinstance(req, AllGatherLaunch):
            handle = self.hvd.allgather_async(req.tensor, name=name, phase=req.phase)
        elif isinstance(req, (GroupAllGatherLaunch, GroupBroadcastLaunch)):
            group = req.ranks
            if rank not in group:
                # non-members never post, so they cannot observe a
                # member-side failure: degradation is member-local
                handle = LaunchedHandle(lambda ov: None)
            elif isinstance(req, GroupAllGatherLaunch):
                assert req.tensor is not None
                handle = self.hvd.group_allgather_async(
                    req.tensor, name=name, ranks=req.ranks, phase=req.phase
                )
            else:
                payload = req.tensor if rank == req.root else np.zeros(0, dtype=np.float32)
                assert payload is not None
                handle = self.hvd.group_broadcast_async(
                    payload, name=name, root=req.root, ranks=req.ranks, phase=req.phase
                )
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown request type {type(req)}")
        return handle, shapes, req.phase, group
