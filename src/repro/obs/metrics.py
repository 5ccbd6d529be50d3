"""A unified metrics registry: counters, gauges, histograms with labels.

Before this module the run's counters were scattered across
``TrainingHistory`` fields, ``World`` ledgers, ``FaultPlan`` tallies and
the ``GradScaler`` — each with its own ad-hoc access path.  The
:class:`MetricsRegistry` is the single collection point: instruments are
created by name, carry optional label sets (``phase=...``,
``factor=...``), and the whole registry snapshots to one nested dict
that ``TrainingHistory.metrics`` stores verbatim.

The registry is *pull-based*: the trainer collects from the live objects
at the end of ``train()`` (see
:meth:`MetricsRegistry.collect_training_run`), so instrumenting a run
costs nothing per step.

Example
-------
>>> reg = MetricsRegistry()
>>> reg.counter("comm.retries").inc()
>>> reg.gauge("amp.loss_scale").set(65536.0)
>>> reg.histogram("task.seconds").observe(0.25, kind="Eig")
>>> snap = reg.snapshot()
>>> snap["counters"]["comm.retries"][""]
1.0
>>> snap["histograms"]["task.seconds"]["kind=Eig"]["count"]
1
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


def _label_key(labels: dict[str, object]) -> str:
    """Canonical string key for a label set (sorted ``k=v`` pairs).

    >>> _label_key({"phase": "eig_comm", "rank": 0})
    'phase=eig_comm,rank=0'
    >>> _label_key({})
    ''
    """
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


class Counter:
    """A monotonically increasing labeled counter.

    Example
    -------
    >>> c = Counter("kfac.steps")
    >>> c.inc(); c.inc(2, strategy="hybrid")
    >>> (c.value(), c.value(strategy="hybrid"), c.total())
    (1.0, 2.0, 3.0)
    """

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: dict[str, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (default 1) to the labeled series."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Current value of one labeled series (0 if never incremented)."""
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every labeled series."""
        return sum(self._values.values())

    def snapshot(self) -> dict[str, float]:
        """``{label_key: value}`` for every series."""
        return dict(sorted(self._values.items()))


class Gauge:
    """A labeled gauge: a value that can move both ways.

    Example
    -------
    >>> g = Gauge("comm.bytes")
    >>> g.set(1024.0, phase="factor_comm"); g.add(512.0, phase="factor_comm")
    >>> g.value(phase="factor_comm")
    1536.0
    """

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: dict[str, float] = {}

    def set(self, value: float, **labels: object) -> None:
        """Set the labeled series to ``value``."""
        self._values[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: object) -> None:
        """Add ``amount`` (either sign) to the labeled series."""
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Current value of one labeled series (0 if never set)."""
        return self._values.get(_label_key(labels), 0.0)

    def by(self, label: str) -> dict[str, float]:
        """``{label_value: value}`` over the series keyed by ``label`` alone.

        >>> g = Gauge("comm.bytes")
        >>> g.set(2.0, phase="eig_comm"); g.set(1.0, phase="factor_comm")
        >>> g.by("phase")
        {'eig_comm': 2.0, 'factor_comm': 1.0}
        """
        prefix = f"{label}="
        return {
            key[len(prefix):]: v
            for key, v in sorted(self._values.items())
            if key.startswith(prefix) and "," not in key
        }

    def snapshot(self) -> dict[str, float]:
        """``{label_key: value}`` for every series."""
        return dict(sorted(self._values.items()))


class Histogram:
    """A labeled summary histogram (count/sum/min/max/mean).

    Deterministic and dependency-free: observations fold into running
    summary statistics rather than stored samples.

    Example
    -------
    >>> h = Histogram("span.seconds")
    >>> for v in (0.1, 0.3): h.observe(v, cat="comm")
    >>> s = h.summary(cat="comm")
    >>> (s["count"], round(s["sum"], 3), s["min"], s["max"])
    (2, 0.4, 0.1, 0.3)
    """

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._stats: dict[str, dict[str, float]] = {}

    def observe(self, value: float, **labels: object) -> None:
        """Fold one observation into the labeled series."""
        key = _label_key(labels)
        s = self._stats.get(key)
        if s is None:
            self._stats[key] = {
                "count": 1,
                "sum": float(value),
                "min": float(value),
                "max": float(value),
            }
        else:
            s["count"] += 1
            s["sum"] += value
            s["min"] = min(s["min"], value)
            s["max"] = max(s["max"], value)

    def summary(self, **labels: object) -> dict[str, float]:
        """Summary stats for one labeled series, with ``mean`` derived."""
        s = self._stats.get(_label_key(labels))
        if s is None:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        out = dict(s)
        out["mean"] = s["sum"] / s["count"]
        return out

    def snapshot(self) -> dict[str, dict[str, float]]:
        """``{label_key: summary}`` for every series."""
        return {
            key: {**s, "mean": s["sum"] / s["count"]}
            for key, s in sorted(self._stats.items())
        }


class MetricsRegistry:
    """Creates-or-returns named instruments and snapshots them all.

    Example
    -------
    >>> reg = MetricsRegistry()
    >>> reg.counter("a") is reg.counter("a")
    True
    >>> reg.counter("a").inc(3)
    >>> reg.snapshot()["counters"]["a"]
    {'': 3.0}
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        """Get (creating on first use) the named :class:`Counter`."""
        if name not in self._counters:
            self._counters[name] = Counter(name, help)
        return self._counters[name]

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get (creating on first use) the named :class:`Gauge`."""
        if name not in self._gauges:
            self._gauges[name] = Gauge(name, help)
        return self._gauges[name]

    def histogram(self, name: str, help: str = "") -> Histogram:
        """Get (creating on first use) the named :class:`Histogram`."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(name, help)
        return self._histograms[name]

    def snapshot(self) -> dict:
        """One nested dict over every instrument: the ``metrics`` field.

        >>> reg = MetricsRegistry()
        >>> reg.gauge("x").set(1.0)
        >>> sorted(reg.snapshot())
        ['counters', 'gauges', 'histograms']
        """
        return {
            "counters": {
                name: c.snapshot() for name, c in sorted(self._counters.items())
            },
            "gauges": {name: g.snapshot() for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.snapshot() for name, h in sorted(self._histograms.items())
            },
        }

    # ------------------------------------------------------------------
    # collection from the live training objects
    # ------------------------------------------------------------------
    def collect_world(self, world) -> None:
        """Fold a ``World``'s time/byte/overlap ledgers into the registry.

        >>> import numpy as np
        >>> from repro.comm.backend import World
        >>> w = World(2)
        >>> _ = w.allreduce([np.ones(4, dtype="float32") for _ in range(2)],
        ...                 phase="grad_allreduce")
        >>> reg = MetricsRegistry(); reg.collect_world(w)
        >>> reg.gauge("comm.exposed_seconds").value(phase="grad_allreduce") > 0
        True
        """
        exposed = self.gauge("comm.exposed_seconds")
        for phase, seconds in sorted(world.overlap.exposed_by_phase.items()):
            exposed.set(seconds, phase=phase)
        hidden = self.gauge("comm.hidden_seconds")
        for phase, h in sorted(world.overlap.hidden_by_phase.items()):
            hidden.set(h, phase=phase)
        nbytes = self.gauge("comm.bytes")
        ops = self.counter("comm.ops")
        for phase in sorted(world.stats.bytes_by_phase):
            nbytes.set(world.stats.bytes_by_phase[phase], phase=phase)
            ops.inc(world.stats.ops_by_phase.get(phase, 0), phase=phase)

    def collect_scaler(self, scaler) -> None:
        """Fold a ``GradScaler``'s step tallies and live scale in."""
        self.counter("amp.steps_taken").inc(scaler.steps_taken)
        self.counter("amp.steps_skipped").inc(scaler.steps_skipped)
        self.gauge("amp.loss_scale").set(scaler.scale)

    def collect_kfacs(self, kfacs: Iterable) -> None:
        """Fold per-replica KFAC counters in (labeled by rank)."""
        stale = self.counter("kfac.stale_fallbacks")
        eigs = self.counter("kfac.local_eigs")
        staleness = self.gauge("kfac.staleness")
        for kfac in kfacs:
            rank = kfac.rank
            eigs.inc(kfac.n_eigs_computed_locally, rank=rank)
            stale.inc(kfac.n_stale_fallbacks, rank=rank)
            for key in sorted(kfac.staleness):
                staleness.set(kfac.staleness[key], rank=rank, factor=key)
        first = next(iter(kfacs), None)
        if first is not None:
            self.counter("kfac.steps").inc(first.steps)
            self.counter("kfac.factor_updates").inc(first.n_factor_updates)
            self.counter("kfac.second_order_updates").inc(
                first.n_second_order_updates
            )
            # drift-triggered refresh bookkeeping (zero when the trigger
            # is disabled; counters are lockstep so rank 0 suffices)
            self.counter("kfac.drift_refreshes").inc(
                getattr(first, "n_drift_refreshes", 0)
            )
            self.counter("kfac.drift_skips").inc(
                getattr(first, "n_drift_skips", 0)
            )
            # parameterized-but-unpreconditioned layers (identical across
            # replicas): total plus a per-type breakdown
            unsupported = getattr(first, "unsupported_layers", ())
            gauge = self.gauge("kfac.unsupported_layers")
            gauge.set(len(unsupported))
            by_type: dict[str, int] = {}
            for _name, type_name in unsupported:
                by_type[type_name] = by_type.get(type_name, 0) + 1
            for type_name in sorted(by_type):
                gauge.set(by_type[type_name], kind=type_name)

    def collect_driver(self, driver) -> None:
        """Fold a driver's retry/fallback tallies in."""
        self.counter("comm.retries").inc(driver.comm_retries)
        self.counter("comm.fallbacks").inc(driver.comm_fallbacks)

    def collect_faults(self, fault_plan) -> None:
        """Fold a ``FaultPlan``'s injection tallies in."""
        self.counter("faults.injected").inc(fault_plan.events)
        self.counter("faults.failures").inc(fault_plan.injected_failures)
        self.gauge("faults.delay_seconds").set(fault_plan.injected_delay_seconds)

    def collect_training_run(self, trainer) -> None:
        """One-call collection from a ``DataParallelTrainer`` after ``train()``.

        Folds in the world's comm ledgers, the grad scaler, the
        preconditioners and phase controller when K-FAC ran, and the fault
        plan when one was installed — the pull that rebuilds the scalar
        ``TrainingHistory`` fields from a single source.
        """
        self.collect_world(trainer.world)
        self.collect_scaler(trainer.grad_scaler)
        if trainer.kfacs is not None:
            self.collect_kfacs(trainer.kfacs)
        if trainer.kfac_controller is not None:
            self.collect_driver(trainer.kfac_controller)
        if trainer.world.fault_plan is not None:
            self.collect_faults(trainer.world.fault_plan)
