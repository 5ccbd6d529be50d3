"""Per-layer spans recorded from outside the program.

:func:`install` wraps calls into the public functions and classes of each
``repro`` layer and records one span per call: name, start, end, parent
span, step id and rank.  A function is wrapped under every name it is
bound to inside ``repro`` (``repro.nn.layers.im2col`` and
``repro.core.factors.im2col`` are separate bindings of one function), so
a caller that imported it by name is still seen.

The rank is set while a replica's forward/backward/optimizer step runs and
while a K-FAC instance's ``step_generator`` advances; spans opened outside
those (collectives the phase controller runs for all ranks at once, the
gradient fusion buffer) carry rank ``-1`` and count as shared work.

Every wrapper also counts its calls while recording is off (set-up), so
:func:`unseen_layers` can tell a layer the run never reached from one it
only reached before the timed loop.

Spans stay in memory; :meth:`SpanRecorder.dump` writes them out at exit.
Tracing is only ever installed in the traced child process: the untraced
run executes the program with no wrapper at all.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Generator

import stats

perf_counter = time.perf_counter

#: spans whose union is the step's top-level work; the rest is trainer glue
TOP_LEVEL = ("nn.forward", "nn.backward", "comm.fusion", "core.kfac_step", "optim.step")

#: K-FAC work: second-order layers, the step scheduler, blocks, the wire codec
KFAC_SPANS = frozenset({
    "tensor.gram", "core.capture", "core.factor", "core.ema", "core.eig",
    "core.precondition", "core.kfac_step", "sched.plan", "sched.build_step_plan",
    "sched.executor", "comm.pack", "comm.codec", "approx.precondition",
    "approx.install_block_eig",
})
#: wrapped layers each workload never calls, by construction; every other
#: wrapped layer must show up in its traced run
BYPASSED = {
    # SGD alone
    "cnn-sgd": KFAC_SPANS,
    # exact (one-block) factors, fp32 wire
    "cnn-kfac": frozenset({"approx.precondition", "approx.install_block_eig", "comm.codec"}),
    # no convolution
    "transformer-kfac": frozenset({"tensor.im2col", "tensor.col2im"}),
}
#: layers called only while setting up: the step plan is built on the
#: first K-FAC step and served from the plan cache after that
SET_UP_ONLY = frozenset({"sched.build_step_plan"})


class SpanRecorder:
    """Columnar in-memory span store with a call stack for parent links."""

    def __init__(self) -> None:
        self.enabled = False
        self.step = -1
        self.rank = -1
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.span_step: list[int] = []
        self.span_rank: list[int] = []
        #: True when no enclosing span has the same name (nested same-name
        #: calls, e.g. ``allreduce`` -> ``allreduce_async``, count once)
        self.outer: list[bool] = []
        #: calls of each wrapped name, recorded or not; every wrapped name is a key
        self.calls: dict[str, int] = {}
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        #: (step, rank, seconds) of each ``step_generator`` advance
        self.rank_advances: list[tuple[int, int, float]] = []
        #: per-phase (ledger-recorded ops, bytes) counted by the collective wrappers
        self.coll_ops: dict[str, int] = defaultdict(int)
        self.coll_bytes: dict[str, float] = defaultdict(float)
        self.fusion_bytes = 0
        self.fusion_capacity_bytes = 0
        #: wall window of each timed iteration: step -> (start, end)
        self.windows: dict[int, tuple[float, float]] = {}

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.span_step.append(self.step)
        self.span_rank.append(self.rank)
        self.outer.append(self._open[name] == 0)
        self._open[name] += 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        popped = self._stack.pop()
        if popped != idx:  # pragma: no cover - wrappers always nest
            raise RuntimeError(f"span stack out of order: {popped} != {idx}")
        self._open[self.name[idx]] -= 1

    def dump(self, path: str) -> None:
        payload = {
            "fields": ["name", "start", "end", "parent", "step", "rank"],
            "spans": list(
                zip(self.name, self.start, self.end, self.parent, self.span_step, self.span_rank)
            ),
            "rank_advances": self.rank_advances,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _span(rec: SpanRecorder, name: str, fn: Callable, rank: int | None = None,
          on_outer: Callable[..., None] | None = None) -> Callable:
    rec.calls.setdefault(name, 0)

    @functools.wraps(fn)
    def wrapped(*args: Any, **kwargs: Any) -> Any:
        rec.calls[name] += 1
        if not rec.enabled:
            return fn(*args, **kwargs)
        prev_rank = rec.rank
        if rank is not None:
            rec.rank = rank
        idx = rec.open(name)
        try:
            if on_outer is not None and rec.outer[idx]:
                on_outer(*args, **kwargs)
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)
            rec.rank = prev_rank

    return wrapped


def _spanned_generator(rec: SpanRecorder, name: str, gen: Generator) -> Generator:
    """Re-yield ``gen``, recording one span per advance."""
    first, value = True, None
    while True:
        rec.calls[name] += 1
        idx = rec.open(name) if rec.enabled else -1
        try:
            req = next(gen) if first else gen.send(value)
        except StopIteration:
            return
        finally:
            if idx >= 0:
                rec.close(idx)
        first = False
        value = yield req


def _rank_generator(rec: SpanRecorder, rank: int, gen: Generator) -> Generator:
    """Re-yield ``gen`` with ``rank`` current while it advances.

    Advances are timed into ``rank_advances`` rather than recorded as
    spans: they attribute work to a rank, they are not a layer.
    """
    first, value = True, None
    while True:
        prev_rank = rec.rank
        rec.rank = rank
        t0 = perf_counter()
        try:
            req = next(gen) if first else gen.send(value)
        except StopIteration:
            return
        finally:
            rec.rank = prev_rank
            if rec.enabled:
                rec.rank_advances.append((rec.step, rank, perf_counter() - t0))
        first = False
        value = yield req


def _rebind(module_name: str, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace every ``repro`` binding of ``module_name.attr``."""
    orig = getattr(importlib.import_module(module_name), attr)
    wrapped = make(orig)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        if getattr(mod, attr, None) is orig:
            setattr(mod, attr, wrapped)


def _patch_method(cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Wrap ``attr`` on ``cls`` and on every subclass defining its own."""
    for klass in [cls, *_subclasses(cls)]:
        if attr in klass.__dict__:
            setattr(klass, attr, make(klass.__dict__[attr]))


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _collective_bytes(rec: SpanRecorder, method: str, orig: Callable) -> Callable[..., None]:
    """Count what the world ledger should record for one collective call.

    Mirrors the ledger's rule: an allreduce ships its first buffer at the
    codec's wire size, an allgather the sum of contributions, a broadcast
    the value; a group of one moves nothing and records nothing.
    """
    from repro.comm.compression import get_codec, wire_nbytes

    sig = inspect.signature(orig)

    def count(*args: Any, **kwargs: Any) -> None:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        phase = a["phase"]
        if method.startswith("allreduce"):
            nbytes = float(wire_nbytes(a["buffers"][0], get_codec(a["codec"])))
        elif method == "reduce_scatter":
            nbytes = float(a["buffers"][0].nbytes)
        elif method.startswith("allgather"):
            nbytes = float(sum(c.nbytes for c in a["contributions"]))
        elif method.startswith("group_allgather"):
            if len(tuple(a["ranks"])) == 1:
                return
            nbytes = float(sum(c.nbytes for c in a["contributions"]))
        elif method.startswith("group_broadcast"):
            if len(tuple(a["ranks"])) == 1:
                return
            nbytes = float(a["value"].nbytes)
        else:  # broadcast
            nbytes = float(a["value"].nbytes)
        rec.coll_ops[phase] += 1
        rec.coll_bytes[phase] += nbytes

    return count


COLLECTIVES = (
    "allreduce", "allreduce_async", "allgather", "allgather_async", "broadcast",
    "group_allgather", "group_allgather_async", "group_broadcast",
    "group_broadcast_async", "reduce_scatter",
)


def install(rec: SpanRecorder, trainer: Any) -> None:
    """Wrap every layer boundary of ``trainer``'s process.

    Class-level and module-level wrappers stay for the life of the
    process, which only ever runs this one traced trainer.
    """
    # import everything a lazy import inside the program would load later,
    # so every binding exists before it is rebound
    for mod in ("repro.sched.executor", "repro.sched.planner", "repro.approx.blockeig",
                "repro.core.distributed", "repro.comm.fusion", "repro.comm.compression"):
        importlib.import_module(mod)
    from repro.comm.backend import World
    from repro.comm.compression import WireCodec
    from repro.comm.fusion import FusionBuffer
    from repro.core.distributed import PhaseController
    from repro.core.layers import KFACLayer
    from repro.core.preconditioner import KFAC
    from repro.sched.executor import GraphExecutor

    def span(name: str) -> Callable[[Callable], Callable]:
        return lambda fn: _span(rec, name, fn)

    functions = [
        ("repro.tensor.im2col", "im2col", "tensor.im2col"),
        ("repro.tensor.im2col", "col2im", "tensor.col2im"),
        ("repro.tensor.amp", "amp_matmul", "tensor.matmul"),
        ("repro.tensor.gram", "gram", "tensor.gram"),
        ("repro.core.factors", "ema_update", "core.ema"),
        ("repro.core.inverse", "eigendecompose", "core.eig"),
        ("repro.approx.blockeig", "precondition_block_eigen", "approx.precondition"),
        ("repro.comm.fusion", "tri_pack", "comm.pack"),
        ("repro.comm.fusion", "tri_unpack", "comm.pack"),
        ("repro.comm.fusion", "tri_pack_blocks", "comm.pack"),
        ("repro.comm.fusion", "tri_unpack_blocks", "comm.pack"),
        ("repro.sched.planner", "build_step_plan", "sched.build_step_plan"),
    ]
    for module, attr, name in functions:
        _rebind(module, attr, span(name))

    methods = [
        (KFACLayer, "save_input", "core.capture"),
        (KFACLayer, "save_grad_output", "core.capture"),
        (KFACLayer, "update_factors", "core.factor"),
        (KFACLayer, "precondition", "core.precondition"),
        (KFACLayer, "install_block_eig", "approx.install_block_eig"),
        (KFAC, "build_plan", "sched.plan"),
        (PhaseController, "step", "core.kfac_step"),
        (WireCodec, "encode", "comm.codec"),
        (WireCodec, "decode", "comm.codec"),
        (FusionBuffer, "add", "comm.fusion"),
        (FusionBuffer, "pop", "comm.fusion"),
    ]
    for cls, attr, name in methods:
        _patch_method(cls, attr, span(name))

    for attr in COLLECTIVES:
        orig = World.__dict__[attr]
        setattr(World, attr, _span(rec, "comm.collective", orig,
                                   on_outer=_collective_bytes(rec, attr, orig)))

    orig_flush = FusionBuffer.flush

    def flush(self: Any) -> None:
        before = self.bytes_flushed
        flushes = self.flush_count
        orig_flush(self)
        if rec.enabled and self.flush_count > flushes:
            rec.fusion_bytes += self.bytes_flushed - before
            rec.fusion_capacity_bytes += self.capacity_bytes

    FusionBuffer.flush = _span(rec, "comm.fusion", functools.wraps(orig_flush)(flush))

    orig_run = GraphExecutor.run
    rec.calls.setdefault("sched.executor", 0)
    GraphExecutor.run = functools.wraps(orig_run)(
        lambda self: _spanned_generator(rec, "sched.executor", orig_run(self))
    )

    orig_gen = KFAC.step_generator
    KFAC.step_generator = functools.wraps(orig_gen)(
        lambda self: _rank_generator(rec, self.rank, orig_gen(self))
    )

    # per-replica work runs through the trainer's own objects: wrap the
    # instances so each span carries the replica's rank
    for r, (model, opt) in enumerate(zip(trainer.replicas, trainer.optimizers)):
        model.forward = _span(rec, "nn.forward", model.forward, rank=r)
        model.backward = _span(rec, "nn.backward", model.backward, rank=r)
        opt.step = _span(rec, "optim.step", opt.step, rank=r)


def unseen_layers(rec: SpanRecorder, workload: str) -> tuple[list[str], list[str]]:
    """Wrapped layers the run missed, and bypassed layers it called anyway.

    A layer the workload reaches must have a span in the timed loop (or,
    for :data:`SET_UP_ONLY`, a call during set-up); a missing one means a
    binding the wrappers did not catch.  A bypassed layer must have no
    call at all.
    """
    bypassed = BYPASSED[workload]
    if not bypassed <= rec.calls.keys():
        raise ValueError(f"not wrapped: {sorted(bypassed - rec.calls.keys())}")
    spans = Counter(rec.name)
    missing = sorted(
        name for name in rec.calls
        if name not in bypassed
        and (rec.calls[name] == 0 if name in SET_UP_ONLY else spans[name] == 0)
    )
    called = sorted(name for name in bypassed if rec.calls.get(name, 0) > 0)
    return missing, called


# ----------------------------------------------------------------------
# per-layer metrics from the recorded spans
# ----------------------------------------------------------------------
#: rank-attributable time metrics: metric -> span name (outermost spans)
TIME_METRICS = {
    "nn.forward_ms": "nn.forward",
    "nn.backward_ms": "nn.backward",
    "tensor.im2col_ms": "tensor.im2col",
    "tensor.col2im_ms": "tensor.col2im",
    "tensor.matmul_ms": "tensor.matmul",
    "tensor.gram_ms": "tensor.gram",
    "core.capture_ms": "core.capture",
    "core.factor_ms": "core.factor",
    "core.ema_ms": "core.ema",
    "core.eig_ms": "core.eig",
    "core.precondition_ms": "core.precondition",
    "core.kfac_step_ms": "core.kfac_step",
    "sched.plan_ms": "sched.plan",
    "comm.collective_host_ms": "comm.collective",
    "comm.pack_ms": "comm.pack",
    "comm.codec_ms": "comm.codec",
    "comm.fusion_ms": "comm.fusion",
    "approx.precondition_ms": "approx.precondition",
    "optim.step_ms": "optim.step",
}
CALL_METRICS = {
    "tensor.matmul_calls": "tensor.matmul",
    "tensor.gram_calls": "tensor.gram",
    "core.eig_calls": "core.eig",
    "comm.collective_calls": "comm.collective",
    "approx.eig_blocks": "approx.install_block_eig",
}
SELF_METRICS = {
    "core.kfac_self_ms": "core.kfac_step",
    "sched.executor_self_ms": "sched.executor",
}


def per_step_critical(
    rec: SpanRecorder, steps: list[int], value: Callable[[int], float], names: set[str],
    outer_only: bool = True,
) -> dict[str, float]:
    """Per-step mean of shared work plus the busiest rank, for each name."""
    shared: dict[tuple[str, int], float] = defaultdict(float)
    by_rank: dict[tuple[str, int], dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for i, name in enumerate(rec.name):
        if name not in names or (outer_only and not rec.outer[i]):
            continue
        step, rank = rec.span_step[i], rec.span_rank[i]
        if rank < 0:
            shared[name, step] += value(i)
        else:
            by_rank[name, step][rank] += value(i)
    return {
        name: sum(
            stats.rank_critical_path(shared.get((name, s), 0.0), by_rank.get((name, s), {}))
            for s in steps
        ) / len(steps)
        for name in names
    }


def layer_metrics(rec: SpanRecorder, world_size: int) -> dict[str, float]:
    """Per-step per-layer numbers; ranks are combined as the critical path."""
    steps = sorted(rec.windows)
    if not steps:
        raise ValueError("no traced steps")
    dur = [e - s for s, e in zip(rec.start, rec.end)]
    self_t = stats.self_times(list(zip(rec.start, rec.end, rec.parent)))
    out: dict[str, float] = {}

    times = per_step_critical(rec, steps, lambda i: dur[i], set(TIME_METRICS.values()))
    for metric, name in TIME_METRICS.items():
        out[metric] = 1e3 * times[name]
    calls = per_step_critical(rec, steps, lambda i: 1.0, set(CALL_METRICS.values()))
    for metric, name in CALL_METRICS.items():
        out[metric] = calls[name]
    selfs = per_step_critical(rec, steps, lambda i: self_t[i], set(SELF_METRICS.values()),
                              outer_only=False)
    for metric, name in SELF_METRICS.items():
        out[metric] = 1e3 * selfs[name]

    # plan reuse: build_plan calls answered from the cache
    plan_calls = sum(1 for n in rec.name if n == "sched.plan")
    plan_builds = sum(1 for n in rec.name if n == "sched.build_step_plan")
    out["sched.plan_cache_hit_ratio"] = (
        (plan_calls - plan_builds) / plan_calls if plan_calls else 0.0
    )
    out["comm.fusion_fill_ratio"] = (
        rec.fusion_bytes / rec.fusion_capacity_bytes if rec.fusion_capacity_bytes else 0.0
    )

    # per-rank step_generator advance time: the rank each K-FAC step waits for
    per_rank: dict[int, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for step, rank, seconds in rec.rank_advances:
        per_rank[step][rank] += seconds
    maxes, imbalances = [], []
    for s in steps:
        ranks = per_rank.get(s)
        if not ranks:
            maxes.append(0.0)
            continue
        loads = [ranks.get(r, 0.0) for r in range(world_size)]
        maxes.append(max(loads))
        imbalances.append(max(loads) / (sum(loads) / world_size))
    out["core.kfac_rank_max_ms"] = 1e3 * sum(maxes) / len(steps)
    out["core.kfac_rank_imbalance"] = (
        sum(imbalances) / len(imbalances) if imbalances else 0.0
    )

    # top-level coverage of each step's wall window; the rest is glue
    top = defaultdict(list)
    for i, name in enumerate(rec.name):
        if name in TOP_LEVEL and rec.parent[i] < 0:
            top[rec.span_step[i]].append((rec.start[i], rec.end[i]))
    wall = covered = 0.0
    for s in steps:
        lo, hi = rec.windows[s]
        wall += hi - lo
        covered += stats.covered((lo, hi), top[s]) * (hi - lo)
    out["parallel.glue_ms"] = 1e3 * (wall - covered) / len(steps)
    out["trace.top_level_coverage"] = covered / wall
    return out
