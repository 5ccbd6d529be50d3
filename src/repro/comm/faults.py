"""Fault and straggler injection for the simulated communication world.

A production fleet is never as clean as a simulation: individual ranks
run slow (stragglers), network links hiccup (latency spikes), collectives
time out, and nodes die mid-run.  This module models those events as a
declarative :class:`FaultPlan` attached to a :class:`~repro.comm.backend.World`
(``world.fault_plan = plan``): every collective consults the plan, adds
the injected delay to its simulated cost (so stragglers flow into the
exposed/hidden overlap ledger end to end), and raises
:class:`CollectiveError` / :class:`RankDeadError` for failed operations.

The drivers in :mod:`repro.core.distributed` turn those errors into
bounded retries and — for factor/eigenbasis exchanges — a graceful
stale-state fallback (see :mod:`repro.elastic`).  Because faults are
injected *below* the rank-facing APIs, both the phase-style
:class:`~repro.comm.backend.World` collectives and the per-rank
:class:`~repro.comm.horovod.HorovodContext` frontend observe them.

Also defined here (they travel with the errors to avoid import cycles):
:class:`RetryPolicy`, the drivers' bounded retry-with-backoff schedule,
and :class:`CollectiveFailed`, the sentinel a driver hands the step
generator when retries are exhausted on a degradable phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = [
    "CollectiveError",
    "RankDeadError",
    "StaleEigenbasisError",
    "ComputeJitter",
    "LatencySpike",
    "CollectiveFailure",
    "RankDeath",
    "FaultPlan",
    "RetryPolicy",
    "CollectiveFailed",
]


class CollectiveError(RuntimeError):
    """A collective operation failed (dropped, timed out, or was killed).

    Carries the K-FAC ``phase`` the operation was charged to so drivers
    can decide between retry, degrade, and hard failure.

    Example
    -------
    >>> from repro.comm.faults import CollectiveError
    >>> err = CollectiveError("allreduce dropped", phase="factor_comm")
    >>> err.phase
    'factor_comm'
    """

    def __init__(self, message: str, phase: str | None = None) -> None:
        super().__init__(message)
        self.phase = phase


class RankDeadError(CollectiveError):
    """A collective involved a rank that died at an earlier step.

    Unlike a transient :class:`CollectiveError`, a dead rank fails every
    subsequent matching collective — retries cannot succeed, only the
    stale-state fallback (or a restart from a portable checkpoint) can.

    Example
    -------
    >>> from repro.comm.faults import RankDeadError
    >>> err = RankDeadError("rank 3 is dead", phase="eig_comm")
    >>> isinstance(err, Exception) and err.phase
    'eig_comm'
    """


class StaleEigenbasisError(RuntimeError):
    """Degraded preconditioning cannot continue from the available state.

    Raised by the stale-eigenbasis fallback when a layer has *no*
    last-known eigenbasis to fall back to, or when a factor's staleness
    counter exceeds ``KFACHyperParams.max_eig_staleness`` consecutive
    failed refreshes.

    Example
    -------
    >>> from repro.comm.faults import StaleEigenbasisError
    >>> raise StaleEigenbasisError("conv1/A stale for 4 > 3 refreshes")
    Traceback (most recent call last):
        ...
    repro.comm.faults.StaleEigenbasisError: conv1/A stale for 4 > 3 refreshes
    """


@dataclass(frozen=True)
class ComputeJitter:
    """Per-rank straggler lateness, applied once per step.

    Models a rank arriving ``seconds`` late at its first matching
    collective of the step (background daemon, thermal throttling, a slow
    I/O stall).  Every collective involving ``rank`` is a candidate; only
    the first match in each step is charged.  ``phases`` restricts the
    candidates (``None`` means any phase), ``start_step``/``end_step``
    bound the affected steps (half-open; ``None`` end means forever).

    Example
    -------
    >>> from repro.comm.faults import ComputeJitter
    >>> ComputeJitter(rank=3, seconds=0.01, phases=("eig_comm",)).rank
    3
    """

    rank: int
    seconds: float
    phases: tuple[str, ...] | None = None
    start_step: int = 0
    end_step: int | None = None

    def matches(self, step: int, phase: str, group: Sequence[int]) -> bool:
        """True when this jitter applies to the given collective."""
        if self.rank not in group:
            return False
        if self.phases is not None and phase not in self.phases:
            return False
        if step < self.start_step:
            return False
        return self.end_step is None or step < self.end_step


@dataclass(frozen=True)
class LatencySpike:
    """Extra network latency on matching collectives.

    Unlike :class:`ComputeJitter` (once per rank per step), a spike hits
    *every* matching collective: ``phase=None`` matches any phase,
    ``step=None`` any step, and ``every=n`` selects steps where
    ``step % n == 0`` (a periodic congestion pattern).

    Example
    -------
    >>> from repro.comm.faults import LatencySpike
    >>> LatencySpike(seconds=0.002, phase="grad_allreduce", every=10).every
    10
    """

    seconds: float
    phase: str | None = None
    step: int | None = None
    every: int | None = None

    def matches(self, step: int, phase: str) -> bool:
        """True when this spike applies to the given collective."""
        if self.phase is not None and phase != self.phase:
            return False
        if self.step is not None and step != self.step:
            return False
        return self.every is None or step % self.every == 0


@dataclass(frozen=True)
class CollectiveFailure:
    """Fail the first ``count`` matching collective attempts outright.

    ``count=1`` models a transient drop (the driver's first retry
    succeeds); a larger ``count`` exhausts the retry budget and forces
    the degradation path; ``count=None`` fails every attempt forever.

    Example
    -------
    >>> from repro.comm.faults import CollectiveFailure
    >>> CollectiveFailure(phase="factor_comm", step=2, count=1).count
    1
    """

    phase: str
    step: int | None = None
    count: int | None = 1

    def matches(self, step: int, phase: str) -> bool:
        """True when this failure spec targets the given collective."""
        if phase != self.phase:
            return False
        return self.step is None or step == self.step


@dataclass(frozen=True)
class RankDeath:
    """Rank ``rank`` dies at ``step``: matching collectives fail forever.

    From ``step`` on, any collective whose group contains the dead rank
    raises :class:`RankDeadError`.  ``phases`` scopes the blast radius —
    e.g. ``("eig_comm",)`` models a rank whose K-FAC service died while
    its gradient path still works — so tests can exercise degradation in
    one subsystem without killing the whole run.

    Example
    -------
    >>> from repro.comm.faults import RankDeath
    >>> RankDeath(rank=1, step=5, phases=("eig_comm",)).step
    5
    """

    rank: int
    step: int
    phases: tuple[str, ...] | None = None

    def matches(self, step: int, phase: str, group: Sequence[int]) -> bool:
        """True when the dead rank poisons the given collective."""
        if step < self.step or self.rank not in group:
            return False
        return self.phases is None or phase in self.phases


class FaultPlan:
    """A declarative schedule of faults for a simulated ``World``.

    Attach with ``world.fault_plan = plan`` and advance the step clock
    with ``world.begin_step(step)`` (the trainer does both).  Collectives
    then consult :meth:`apply`, which raises for failed ops and returns
    the injected straggler/latency seconds to add to the op's simulated
    cost.  Totals are tracked on the plan (``injected_failures``,
    ``injected_delay_seconds``, ``events``) and surfaced through
    ``TrainingHistory``.

    Example
    -------
    >>> from repro.comm.faults import ComputeJitter, FaultPlan
    >>> plan = FaultPlan(jitter=[ComputeJitter(rank=1, seconds=0.5)])
    >>> plan.apply(step=0, phase="grad_allreduce", group=(0, 1))
    0.5
    >>> plan.apply(step=0, phase="eig_comm", group=(0, 1))  # once per step
    0.0
    >>> plan.injected_delay_seconds
    0.5
    """

    def __init__(
        self,
        jitter: Sequence[ComputeJitter] = (),
        spikes: Sequence[LatencySpike] = (),
        failures: Sequence[CollectiveFailure] = (),
        deaths: Sequence[RankDeath] = (),
    ) -> None:
        self.jitter = tuple(jitter)
        self.spikes = tuple(spikes)
        self.failures = tuple(failures)
        self.deaths = tuple(deaths)
        self.reset()

    def reset(self) -> None:
        """Forget all consumed events and zero the injection counters.

        Example
        -------
        >>> from repro.comm.faults import CollectiveFailure, FaultPlan
        >>> plan = FaultPlan(failures=[CollectiveFailure(phase="eig_comm")])
        >>> try:
        ...     plan.apply(step=0, phase="eig_comm", group=(0,))
        ... except Exception as exc:
        ...     print(type(exc).__name__)
        CollectiveError
        >>> plan.reset(); plan.injected_failures
        0
        """
        self._jitter_fired: set[tuple[int, int]] = set()
        self._failure_hits: dict[int, int] = {}
        self.injected_failures = 0
        self.injected_delay_seconds = 0.0
        self.events = 0

    def apply(self, step: int, phase: str, group: Sequence[int]) -> float:
        """Consult the plan for one collective; raise or return extra seconds.

        Raises :class:`RankDeadError` if the group contains a dead rank,
        :class:`CollectiveError` for a scheduled failure (consuming one
        of its ``count`` hits), and otherwise returns the total injected
        delay (consumed jitter plus matching latency spikes).
        """
        for death in self.deaths:
            if death.matches(step, phase, group):
                self.injected_failures += 1
                self.events += 1
                raise RankDeadError(
                    f"rank {death.rank} died at step {death.step}; "
                    f"{phase} collective over ranks {tuple(group)} cannot "
                    f"complete (step {step})",
                    phase=phase,
                )
        for i, failure in enumerate(self.failures):
            if not failure.matches(step, phase):
                continue
            hits = self._failure_hits.get(i, 0)
            if failure.count is not None and hits >= failure.count:
                continue
            self._failure_hits[i] = hits + 1
            self.injected_failures += 1
            self.events += 1
            raise CollectiveError(
                f"injected {phase} collective failure at step {step} "
                f"(attempt {hits + 1}"
                + (f" of {failure.count})" if failure.count is not None else ")"),
                phase=phase,
            )
        extra = 0.0
        for i, jit in enumerate(self.jitter):
            if (i, step) in self._jitter_fired:
                continue
            if jit.matches(step, phase, group):
                self._jitter_fired.add((i, step))
                extra += jit.seconds
                self.events += 1
        for spike in self.spikes:
            if spike.matches(step, phase):
                extra += spike.seconds
                self.events += 1
        self.injected_delay_seconds += extra
        return extra


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for failed collectives in the drivers.

    A failed collective is retried up to ``max_retries`` times, charging
    exponentially growing backoff (``backoff_seconds * factor**attempt``)
    to the ``retry_backoff`` ledger phase.  When retries are exhausted on
    a phase listed in ``fallback_phases`` the driver returns a
    :class:`CollectiveFailed` sentinel to the step generator — K-FAC then
    preconditions with its last-known (stale) state instead of crashing.
    Failures on any other phase re-raise after the retries.

    Example
    -------
    >>> from repro.comm.faults import RetryPolicy
    >>> policy = RetryPolicy(max_retries=2, backoff_seconds=0.001)
    >>> [policy.backoff(a) for a in range(2)]
    [0.001, 0.002]
    """

    max_retries: int = 2
    backoff_seconds: float = 0.001
    backoff_factor: float = 2.0
    fallback_phases: tuple[str, ...] = ("factor_comm", "eig_comm")

    def backoff(self, attempt: int) -> float:
        """Backoff seconds charged before retry number ``attempt`` (0-based)."""
        return self.backoff_seconds * self.backoff_factor**attempt


@dataclass(frozen=True)
class CollectiveFailed:
    """Sentinel response: a collective failed past the retry budget.

    Delivered by a driver to the step generator *in place of* the
    collective's result, for phases in ``RetryPolicy.fallback_phases``.
    The graph executor reacts by skipping the corresponding state
    install and bumping the per-factor staleness counters — the layer
    keeps preconditioning with its last-known eigenbasis.

    Example
    -------
    >>> from repro.comm.faults import CollectiveError, CollectiveFailed
    >>> failed = CollectiveFailed("eig_comm", CollectiveError("dropped"))
    >>> failed.phase
    'eig_comm'
    """

    phase: str
    error: CollectiveError = field(compare=False)
