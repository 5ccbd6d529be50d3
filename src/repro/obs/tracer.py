"""Typed per-rank span tracing on the simulated clock.

The simulation charges every collective, every scheduled task, and every
injected fault to the world's per-phase comm *ledger* (``CommStats``,
``OverlapStats``) — post-hoc scalar aggregates.  This module records the
same events as **typed spans** on a per-rank simulated timeline, so
tests and tools can ask *what actually happened, in what order, on which
rank* — the per-task record SPD-KFAC-style schedulers make decisions
from (arXiv:2107.06533).

Design points:

- **Zero cost when disabled.**  The default tracer everywhere is
  :data:`NULL_TRACER`, whose ``enabled`` flag is ``False``; every call
  site guards with ``if tracer.enabled:`` so no span objects are ever
  allocated on the default path and existing histories are bitwise
  unchanged.
- **Deterministic on the simulated clock.**  Each rank owns a simulated
  clock that only *recorded spans* advance: a span of duration ``d`` on
  rank ``r`` occupies ``[clock_r, clock_r + d)`` and bumps the clock.
  Per-rank timelines are therefore strictly monotone and non-overlapping,
  and — because each rank's events are recorded in that rank's program
  order — two SPMD replicas of the same program produce *identical*
  canonical traces, diffable in tests.
- **Chrome-trace export.**  :meth:`Tracer.to_chrome` emits the Chrome
  trace event format (one ``pid`` per rank, ``"X"`` complete events in
  simulated microseconds, ``"s"``/``"f"`` flow events linking a launch
  to its wait) — loadable in Perfetto / ``chrome://tracing``.

Example
-------
>>> tr = Tracer()
>>> _ = tr.span("factor_comm", "comm", rank=0, duration=0.5,
...             attrs={"exposed": 0.1, "hidden": 0.4, "bytes": 4096.0})
>>> _ = tr.launch(0, "fac:0", attrs={"bucket": 0})
>>> _ = tr.wait(0, "fac:0")
>>> [s.name for s in tr.spans(rank=0)]
['factor_comm', 'launch:fac:0', 'wait:fac:0']
>>> tr.clock(0)
0.5
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "validate_chrome_trace",
]


@dataclass
class Span:
    """One typed event on a rank's simulated timeline.

    ``t_start``/``t_end`` are simulated seconds on the owning rank's
    clock; ``seq`` is the rank-local record index (canonical order);
    ``attrs`` carries typed payload fields (layer, bucket, bytes,
    exposed/hidden split, …).  ``flow`` marks launch→wait linkage as
    ``(phase, id, tag)`` with phase ``"s"`` (launch) or ``"f"`` (wait).
    Wall-clock fields are excluded from equality so traces from lockstep
    replicas compare equal.

    Example
    -------
    >>> Span("eig", "task", rank=1, t_start=0.0, t_end=0.25, seq=0).duration
    0.25
    """

    name: str
    cat: str
    rank: int
    t_start: float
    t_end: float
    seq: int
    attrs: dict = field(default_factory=dict)
    flow: tuple[str, str, str] | None = None
    wall_start: float = field(default=0.0, compare=False)
    wall_end: float = field(default=0.0, compare=False)

    @property
    def duration(self) -> float:
        """Simulated duration in seconds (``t_end - t_start``)."""
        return self.t_end - self.t_start


class Tracer:
    """Records :class:`Span` objects on deterministic per-rank sim clocks.

    Thread-safe: SPMD worlds record from one thread per rank (plus the
    completer thread of a matched collective); all mutation happens under
    one lock, and the canonical order — sorted by ``(rank, seq)`` — is
    independent of cross-rank thread interleaving because each rank's
    subsequence is its own program order.

    Example
    -------
    >>> tr = Tracer()
    >>> _ = tr.span("precondition", "task", rank=0, duration=0.001)
    >>> trace = tr.to_chrome()
    >>> sorted(trace) == ["displayTimeUnit", "traceEvents"]
    True
    >>> validate_chrome_trace(trace) >= 2   # metadata + the span
    True
    """

    enabled: bool = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._clocks: dict[int, float] = {}
        self._seq: dict[int, int] = {}
        self._flow_opened: dict[tuple[int, str], int] = {}
        self._flow_closed: dict[tuple[int, str], int] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        cat: str,
        rank: int,
        duration: float = 0.0,
        attrs: dict | None = None,
        wall_seconds: float = 0.0,
        flow: tuple[str, str, str] | None = None,
    ) -> Span:
        """Record a span of ``duration`` simulated seconds on ``rank``.

        The rank's simulated clock advances by the full duration, so
        successive spans on one rank never overlap.

        >>> tr = Tracer()
        >>> s = tr.span("eig", "task", rank=2, duration=0.125)
        >>> (s.t_start, s.t_end, s.rank)
        (0.0, 0.125, 2)
        """
        if duration < 0.0:
            raise ValueError(f"span duration must be >= 0, got {duration}")
        wall_end = time.perf_counter()
        with self._lock:
            t0 = self._clocks.get(rank, 0.0)
            seq = self._seq.get(rank, 0)
            span = Span(
                name=name,
                cat=cat,
                rank=rank,
                t_start=t0,
                t_end=t0 + duration,
                seq=seq,
                attrs=dict(attrs) if attrs else {},
                flow=flow,
                wall_start=wall_end - wall_seconds,
                wall_end=wall_end,
            )
            self._spans.append(span)
            self._clocks[rank] = span.t_end
            self._seq[rank] = seq + 1
        return span

    def instant(
        self, name: str, cat: str, rank: int, attrs: dict | None = None
    ) -> Span:
        """Record a zero-duration marker (fault, retry, fallback, …).

        >>> tr = Tracer()
        >>> tr.instant("retry:eig_comm", "fault", rank=1).duration
        0.0
        """
        return self.span(name, cat, rank, 0.0, attrs)

    def launch(
        self, rank: int, tag: str, cat: str = "sched", attrs: dict | None = None
    ) -> Span:
        """Record an async-collective launch, opening a flow arrow.

        Repeated launches of one tag on one rank get distinct flow ids
        (``"{rank}:{tag}:{n}"``) paired FIFO with :meth:`wait` calls.

        >>> tr = Tracer()
        >>> tr.launch(0, "fac:1").flow
        ('s', '0:fac:1:0', 'fac:1')
        """
        with self._lock:
            n = self._flow_opened.get((rank, tag), 0)
            self._flow_opened[(rank, tag)] = n + 1
        return self.span(
            f"launch:{tag}", cat, rank, 0.0, attrs, flow=("s", f"{rank}:{tag}:{n}", tag)
        )

    def wait(
        self,
        rank: int,
        tag: str,
        cat: str = "sched",
        duration: float = 0.0,
        attrs: dict | None = None,
    ) -> Span:
        """Record the wait completing the oldest open launch of ``tag``.

        >>> tr = Tracer()
        >>> tr.launch(0, "eig:0")              # doctest: +ELLIPSIS
        Span(...)
        >>> tr.wait(0, "eig:0").flow
        ('f', '0:eig:0:0', 'eig:0')
        """
        with self._lock:
            n = self._flow_closed.get((rank, tag), 0)
            self._flow_closed[(rank, tag)] = n + 1
        return self.span(
            f"wait:{tag}", cat, rank, duration, attrs,
            flow=("f", f"{rank}:{tag}:{n}", tag),
        )

    # ------------------------------------------------------------------
    # querying (the compact in-memory timeline)
    # ------------------------------------------------------------------
    def spans(
        self,
        rank: int | None = None,
        cat: str | None = None,
        name: str | None = None,
    ) -> list[Span]:
        """Spans in canonical order ``(rank, seq)``, optionally filtered.

        >>> tr = Tracer()
        >>> _ = tr.span("a", "task", rank=1); _ = tr.span("b", "comm", rank=0)
        >>> [(s.rank, s.name) for s in tr.spans()]
        [(0, 'b'), (1, 'a')]
        >>> [s.name for s in tr.spans(cat="comm")]
        ['b']
        """
        with self._lock:
            out = sorted(self._spans, key=lambda s: (s.rank, s.seq))
        if rank is not None:
            out = [s for s in out if s.rank == rank]
        if cat is not None:
            out = [s for s in out if s.cat == cat]
        if name is not None:
            out = [s for s in out if s.name == name]
        return out

    def ranks(self) -> list[int]:
        """Sorted ranks that recorded at least one span.

        >>> tr = Tracer()
        >>> _ = tr.span("x", "task", rank=3)
        >>> tr.ranks()
        [3]
        """
        with self._lock:
            return sorted({s.rank for s in self._spans})

    def clock(self, rank: int) -> float:
        """Current simulated clock of ``rank`` in seconds.

        >>> Tracer().clock(0)
        0.0
        """
        with self._lock:
            return self._clocks.get(rank, 0.0)

    def phase_totals(
        self, rank: int | None = None, cat: str = "comm"
    ) -> dict[str, dict[str, float]]:
        """Per-phase ``exposed``/``hidden``/``bytes`` sums.

        With ``rank=None`` (the default) this is the **ledger view**:
        only spans marked ``owner=True`` count (each collective charges
        the world's ledgers once, and exactly one member span owns that
        charge), summed in record order — so the result reconciles
        exactly (not just approximately) with
        ``TrainingHistory.comm_seconds`` and ``comm_hidden_seconds``.
        With an explicit ``rank`` it is that rank's display view: every
        span on the rank's track, group-shared timings included.

        >>> tr = Tracer()
        >>> _ = tr.span("eig_comm", "comm", rank=0, duration=1.0,
        ...             attrs={"exposed": 0.25, "hidden": 0.75, "bytes": 8.0})
        >>> tr.phase_totals(0)["eig_comm"]
        {'exposed': 0.25, 'hidden': 0.75, 'bytes': 8.0}
        >>> tr.phase_totals()["eig_comm"]["exposed"]    # ledger view
        0.25
        """
        out: dict[str, dict[str, float]] = {}
        for s in self.spans(rank=rank, cat=cat):
            if rank is None and not s.attrs.get("owner", True):
                continue
            bucket = out.setdefault(
                s.name, {"exposed": 0.0, "hidden": 0.0, "bytes": 0.0}
            )
            bucket["exposed"] += s.attrs.get("exposed", 0.0)
            bucket["hidden"] += s.attrs.get("hidden", 0.0)
            bucket["bytes"] += s.attrs.get("bytes", 0.0)
        return out

    def reset(self) -> None:
        """Drop all spans and rewind every rank clock to zero.

        >>> tr = Tracer()
        >>> _ = tr.span("x", "task", rank=0, duration=1.0)
        >>> tr.reset(); (tr.spans(), tr.clock(0))
        ([], 0.0)
        """
        with self._lock:
            self._spans.clear()
            self._clocks.clear()
            self._seq.clear()
            self._flow_opened.clear()
            self._flow_closed.clear()

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_chrome(self) -> dict:
        """Export the Chrome trace event format (Perfetto-loadable).

        One ``pid`` per rank (with a ``process_name`` metadata event),
        ``"X"`` complete events with ``ts``/``dur`` in simulated
        microseconds, and ``"s"``/``"f"`` flow events linking each
        launch to its wait.  Wall-clock times ride in ``args``.

        >>> tr = Tracer()
        >>> tr.launch(0, "fac:0"); tr.wait(0, "fac:0")  # doctest: +ELLIPSIS
        Span(...)
        Span(...)
        >>> phs = [e["ph"] for e in tr.to_chrome()["traceEvents"]]
        >>> ("s" in phs, "f" in phs, "M" in phs)
        (True, True, True)
        """
        events: list[dict] = []
        spans = self.spans()
        for r in sorted({s.rank for s in spans}):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": r,
                    "tid": 0,
                    "args": {"name": f"rank {r}"},
                }
            )
        for s in spans:
            ts = s.t_start * 1e6
            args = dict(s.attrs)
            args["wall_start"] = s.wall_start
            args["wall_end"] = s.wall_end
            events.append(
                {
                    "name": s.name,
                    "cat": s.cat,
                    "ph": "X",
                    "pid": s.rank,
                    "tid": 0,
                    "ts": ts,
                    "dur": s.duration * 1e6,
                    "args": args,
                }
            )
            if s.flow is not None:
                ph, flow_id, tag = s.flow
                flow_event = {
                    "name": tag,
                    "cat": "flow",
                    "ph": ph,
                    "pid": s.rank,
                    "tid": 0,
                    "ts": ts,
                    "id": flow_id,
                }
                if ph == "f":
                    flow_event["bp"] = "e"
                events.append(flow_event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_json(self, indent: int | None = None) -> str:
        """Chrome-trace export serialized to a JSON string.

        >>> import json
        >>> tr = Tracer()
        >>> _ = tr.span("x", "task", rank=0)
        >>> json.loads(tr.to_json())["displayTimeUnit"]
        'ms'
        """
        return json.dumps(self.to_chrome(), indent=indent)

    def write(self, path) -> None:
        """Write the Chrome-trace JSON to ``path``.

        >>> import json, tempfile, os
        >>> tr = Tracer(); _ = tr.span("x", "task", rank=0)
        >>> p = os.path.join(tempfile.mkdtemp(), "trace.json")
        >>> tr.write(p)
        >>> "traceEvents" in json.load(open(p))
        True
        """
        with open(path, "w") as fh:
            fh.write(self.to_json())


class NullTracer:
    """The zero-cost disabled tracer: every method is a no-op.

    Call sites guard span construction with ``if tracer.enabled:``, so
    with the null tracer installed no span (or attrs dict) is ever
    allocated and all simulated ledgers are bitwise identical to an
    uninstrumented run.

    Example
    -------
    >>> NULL_TRACER.enabled
    False
    >>> NULL_TRACER.span("x", "task", rank=0) is None
    True
    >>> NULL_TRACER.spans()
    []
    """

    enabled: bool = False

    def span(self, *args, **kwargs) -> None:
        return None

    def instant(self, *args, **kwargs) -> None:
        return None

    def launch(self, *args, **kwargs) -> None:
        return None

    def wait(self, *args, **kwargs) -> None:
        return None

    def spans(self, *args, **kwargs) -> list:
        return []

    def ranks(self) -> list:
        return []

    def clock(self, rank: int) -> float:
        return 0.0

    def phase_totals(self, *args, **kwargs) -> dict:
        return {}

    def reset(self) -> None:
        return None

    def to_chrome(self) -> dict:
        return {"traceEvents": [], "displayTimeUnit": "ms"}


#: Shared process-wide disabled tracer (the default everywhere).
NULL_TRACER = NullTracer()


def validate_chrome_trace(trace: dict) -> int:
    """Validate a Chrome-trace dict; return its event count.

    Checks the schema (required keys per event phase), per-pid timestamp
    monotonicity of ``"X"`` events, and ``"s"``/``"f"`` flow pairing
    (every flow id opened exactly once and closed at most once, never
    closed before it opens).  Raises :class:`ValueError` on violation.

    >>> tr = Tracer()
    >>> tr.launch(0, "t"); tr.wait(0, "t")   # doctest: +ELLIPSIS
    Span(...)
    Span(...)
    >>> validate_chrome_trace(tr.to_chrome())
    5
    >>> validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
    Traceback (most recent call last):
        ...
    ValueError: event 0 missing keys: ...
    """
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise ValueError("trace must be a dict with a 'traceEvents' list")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    required = {
        "M": ("name", "ph", "pid", "tid", "args"),
        "X": ("name", "cat", "ph", "pid", "tid", "ts", "dur"),
        "i": ("name", "cat", "ph", "pid", "tid", "ts"),
        "s": ("name", "cat", "ph", "pid", "tid", "ts", "id"),
        "f": ("name", "cat", "ph", "pid", "tid", "ts", "id"),
    }
    last_ts: dict[int, float] = {}
    open_flows: dict[str, int] = {}
    closed_flows: set[str] = set()
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in required:
            raise ValueError(f"event {i} has unknown phase {ph!r}")
        missing = [k for k in required[ph] if k not in ev]
        if missing:
            raise ValueError(f"event {i} missing keys: {missing}")
        if ph == "X":
            pid = ev["pid"]
            ts = float(ev["ts"])
            if ts < last_ts.get(pid, 0.0) - 1e-9:
                raise ValueError(
                    f"event {i}: ts {ts} regresses on pid {pid} "
                    f"(last {last_ts[pid]})"
                )
            if float(ev["dur"]) < 0.0:
                raise ValueError(f"event {i}: negative dur")
            last_ts[pid] = ts + float(ev["dur"])
        elif ph == "s":
            fid = str(ev["id"])
            open_flows[fid] = open_flows.get(fid, 0) + 1
            if open_flows[fid] > 1:
                raise ValueError(f"event {i}: flow id {fid!r} opened twice")
        elif ph == "f":
            fid = str(ev["id"])
            if fid not in open_flows:
                raise ValueError(f"event {i}: flow id {fid!r} closed before open")
            if fid in closed_flows:
                raise ValueError(f"event {i}: flow id {fid!r} closed twice")
            closed_flows.add(fid)
    return len(events)
