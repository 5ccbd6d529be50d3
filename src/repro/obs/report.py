"""Modeled-vs-measured drift report for the paper's Fig. 1 stages.

The perfmodel (:mod:`repro.perfmodel.iteration`) prices every placement
decision; the trainer measures what actually happened.  This module
aligns the two: for each stage of the paper's Fig. 1 decomposition
(``io`` / ``forward`` / ``gradient`` / ``exchange`` / ``update``) plus
the K-FAC communication sub-stages (``factor_comm`` / ``eig_comm`` /
``precond_comm``), it tabulates the modeled per-iteration time next to
the measured one and the relative error — so perfmodel regressions
become assertable instead of anecdotal.

Measured times come from a :class:`~repro.parallel.trainer.TrainingHistory`:
wall-clock stopwatches for the compute stages, the simulated
exposed+hidden comm ledgers for the communication stages.  Modeled times
come from :meth:`IterationModel.fig1_stage_times` and
:meth:`IterationModel.stage_profile`.  The two sides price different
machines (this host's wall clock and the backend's simulated wire vs.
the modeled cluster), so large absolute drift is expected; the report's
value is the *structure* — every stage is present, finite, and
trackable across commits, so a perfmodel or scheduler regression moves
a number somebody is watching.

Example
-------
>>> from repro.obs.report import DriftRow
>>> round(DriftRow(stage="io", modeled=0.02, measured=0.021).rel_error, 3)
0.05
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.perfmodel.iteration import (
    DEFAULT_BUCKET_BYTES,
    IterationModel,
    KfacIntervals,
    PRECISIONS,
)
from repro.utils.tables import format_table

__all__ = ["DriftRow", "DriftReport", "fig1_drift_report"]

#: The Fig. 1 stages, in paper order, followed by the K-FAC comm sub-stages.
FIG1_STAGES = ("io", "forward", "gradient", "exchange", "update")
COMM_STAGES = ("factor_comm", "eig_comm", "precond_comm")


@dataclass(frozen=True)
class DriftRow:
    """One stage's modeled-vs-measured comparison (seconds per iteration).

    Example
    -------
    >>> row = DriftRow(stage="exchange", modeled=0.5, measured=0.6)
    >>> (row.abs_error, round(row.rel_error, 3))
    (0.09999999999999998, 0.2)
    >>> DriftRow(stage="update", modeled=0.0, measured=0.0).rel_error
    0.0
    """

    stage: str
    modeled: float
    measured: float

    @property
    def abs_error(self) -> float:
        """``measured - modeled`` in seconds per iteration."""
        return self.measured - self.modeled

    @property
    def rel_error(self) -> float:
        """``(measured - modeled) / modeled``; ``inf`` when only one is 0."""
        if self.modeled > 0.0:
            return self.abs_error / self.modeled
        return 0.0 if self.measured == 0.0 else math.inf


@dataclass
class DriftReport:
    """A set of :class:`DriftRow` entries with a rendered ASCII table.

    Example
    -------
    >>> rep = DriftReport(rows=[DriftRow("io", 0.02, 0.03)])
    >>> rep.row("io").measured
    0.03
    >>> print(rep.render())        # doctest: +ELLIPSIS
    +-...
    | stage | modeled s/iter | measured s/iter | rel error |
    ...
    """

    rows: list[DriftRow] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def row(self, stage: str) -> DriftRow:
        """The row for ``stage`` (raises :class:`KeyError` if absent)."""
        for r in self.rows:
            if r.stage == stage:
                return r
        raise KeyError(stage)

    def stages(self) -> list[str]:
        """Stage names in row order."""
        return [r.stage for r in self.rows]

    def as_dict(self) -> dict[str, dict[str, float]]:
        """``{stage: {modeled, measured, abs_error, rel_error}}``."""
        return {
            r.stage: {
                "modeled": r.modeled,
                "measured": r.measured,
                "abs_error": r.abs_error,
                "rel_error": r.rel_error,
            }
            for r in self.rows
        }

    def render(self, title: str | None = None) -> str:
        """The modeled-vs-measured table as ASCII art."""
        body = []
        for r in self.rows:
            rel = "inf" if math.isinf(r.rel_error) else f"{r.rel_error:+.1%}"
            body.append(
                [r.stage, f"{r.modeled:.3e}", f"{r.measured:.3e}", rel]
            )
        return format_table(
            ["stage", "modeled s/iter", "measured s/iter", "rel error"],
            body,
            title=title,
        )


def _normalize_precision(name: str | None) -> str:
    """Map a precision-policy name onto the perfmodel precision axis.

    >>> (_normalize_precision("fp16"), _normalize_precision("weird"),
    ...  _normalize_precision(None))
    ('fp16', 'fp32', 'fp32')
    """
    return name if name in PRECISIONS else "fp32"


def fig1_drift_report(
    history,
    model: IterationModel,
    p: int,
    intervals: KfacIntervals,
    policy: str = "round_robin",
    bucket_bytes: int = DEFAULT_BUCKET_BYTES,
    symmetric: bool = False,
    scheduler: str | None = None,
) -> DriftReport:
    """Align a traced run's stage times with the perfmodel's predictions.

    ``history`` is a :class:`~repro.parallel.trainer.TrainingHistory`;
    strategy, gradient-worker fraction and precision are read off it, so
    the modeled configuration always matches what actually ran.
    Measured compute stages (``io``/``forward``/``gradient``/``update``)
    use the trainer's wall-clock stopwatches, divided by the iteration
    count *and* by ``p``: the phase trainer runs its replicas one after
    another, so each stopwatch sums all ``p`` of them, while the model
    prices one rank.  Measured communication stages (``exchange`` and the
    K-FAC sub-stages) use the simulated exposed+hidden ledgers, which
    charge each collective once, divided by the iteration count only.

    Example
    -------
    >>> from repro.parallel.trainer import TrainingHistory
    >>> from repro.perfmodel.hardware import FRONTERA_LIKE, V100_LIKE
    >>> from repro.perfmodel.iteration import IterationModel, KfacIntervals
    >>> from repro.perfmodel.specs import resnet_spec
    >>> hist = TrainingHistory()
    >>> hist.total_iterations = 10
    >>> hist.phase_seconds = {"io": 0.2, "forward": 1.0, "backward": 2.0,
    ...                       "update": 0.5}
    >>> hist.comm_seconds = {"grad_allreduce": 0.3, "factor_comm": 0.1}
    >>> hist.kfac_strategy = "comm-opt"
    >>> im = IterationModel(resnet_spec(50), V100_LIKE, FRONTERA_LIKE)
    >>> rep = fig1_drift_report(hist, im, p=8,
    ...                         intervals=KfacIntervals.from_eig_interval(10))
    >>> rep.stages()[:5]
    ['io', 'forward', 'gradient', 'exchange', 'update']
    >>> all(r.modeled >= 0 and r.measured >= 0 for r in rep.rows)
    True
    """
    iters = max(1, history.total_iterations)
    precision = _normalize_precision(getattr(history, "precision", None))
    strategy = getattr(history, "kfac_strategy", None)
    grad_worker_frac = getattr(history, "grad_worker_frac", None)

    modeled = model.fig1_stage_times(
        p,
        strategy=strategy,
        intervals=intervals if strategy else None,
        policy=policy,
        bucket_bytes=bucket_bytes,
        symmetric=symmetric,
        precision=precision,
        grad_worker_frac=grad_worker_frac,
        scheduler=scheduler,
    )

    wall = history.phase_seconds
    hidden = history.comm_hidden_seconds
    rank_iters = iters * max(1, p)

    def sim_total(phase: str) -> float:
        return history.comm_seconds.get(phase, 0.0) + hidden.get(phase, 0.0)

    measured = {
        "io": wall.get("io", 0.0) / rank_iters,
        "forward": wall.get("forward", 0.0) / rank_iters,
        "gradient": wall.get("backward", 0.0) / rank_iters,
        "exchange": sim_total("grad_allreduce") / iters,
        "update": wall.get("update", 0.0) / rank_iters,
    }
    rows = [DriftRow(s, modeled[s], measured[s]) for s in FIG1_STAGES]

    if strategy:
        profile = model.stage_profile(
            p,
            policy=policy,
            bucket_bytes=bucket_bytes,
            symmetric=symmetric,
            precision=precision,
            grad_worker_frac=grad_worker_frac,
            scheduler=scheduler,
        )
        modeled_comm = {
            "factor_comm": profile.factor_tcomm / intervals.fac_interval,
            "eig_comm": profile.eig_tcomm / intervals.eig_interval,
            "precond_comm": profile.precond_tcomm,
        }
        for s in COMM_STAGES:
            rows.append(DriftRow(s, modeled_comm[s], sim_total(s) / iters))

    return DriftReport(
        rows=rows,
        meta={
            "p": p,
            "strategy": strategy,
            "grad_worker_frac": grad_worker_frac,
            "precision": precision,
            "scheduler": scheduler,
            "iterations": history.total_iterations,
        },
    )
