"""One comm protocol: every collective is a launch plus a wait.

Covers the step generator's request stream (five request types, every
launch waited exactly once, no overlap credit on synchronous plans) and
the shared retry loop: a failed collective degrades a run identically
under the phase-style controller and the threaded SPMD driver — same
parameters, same ``retry_backoff`` ledger, same per-rank fault marks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.backend import World
from repro.comm.faults import CollectiveFailure, FaultPlan
from repro.comm.horovod import HorovodContext
from repro.core import comm_ops
from repro.core.comm_ops import (
    AllGatherLaunch,
    AllReduceLaunch,
    GroupAllGatherLaunch,
    GroupBroadcastLaunch,
    WaitRequest,
)
from repro.core.distributed import PhaseController, SPMDDriver
from repro.core.preconditioner import KFAC
from repro.nn import Linear, Sequential
from repro.nn.layers import ReLU
from repro.nn.loss import CrossEntropyLoss
from repro.obs.tracer import Tracer
from repro.optim.sgd import SGD

P = 4
N_SAMPLES = 32
LAUNCHES = (AllReduceLaunch, AllGatherLaunch, GroupAllGatherLaunch, GroupBroadcastLaunch)
PLACEMENTS = {
    "comm-opt": {"strategy": "comm-opt"},
    "layer-wise": {"strategy": "layer-wise"},
    "hybrid": {"grad_worker_frac": 0.5},
}


def _model() -> Sequential:
    rng = np.random.default_rng(7)
    return Sequential(
        Linear(10, 12, rng=rng), ReLU(), Linear(12, 8, rng=rng), ReLU(), Linear(8, 3, rng=rng)
    )


def _data():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(N_SAMPLES, 10)).astype(np.float32)
    y = rng.integers(0, 3, size=N_SAMPLES).astype(np.int64)
    shards = [np.arange(r, N_SAMPLES, P) for r in range(P)]
    return x, y, shards


def _kfac_kw(**kw):
    base = dict(damping=0.01, fac_update_freq=1, kfac_update_freq=2, lr=0.1, bucket_bytes=256)
    base.update(kw)
    return base


def _run(driver, kfac_kw, fault_plan=None, steps=4, wrap=None):
    """Train data-parallel under one driver; return (params, world, tracer)."""
    x, y, shards = _data()
    world = World(P)
    tracer = Tracer()
    world.tracer = tracer
    world.fault_plan = fault_plan
    if driver == "spmd":

        def program(view):
            model = _model()
            kfac = KFAC(model, rank=view.rank, world_size=P, **kfac_kw)
            kfac.tracer = tracer
            drv = SPMDDriver(kfac, HorovodContext(view))
            opt = SGD(model.parameters(), lr=0.1)
            loss_fn = CrossEntropyLoss()
            for step in range(steps):
                view.begin_step(step)
                opt.zero_grad()
                loss_fn(model(x[shards[view.rank]]), y[shards[view.rank]])
                model.backward(loss_fn.backward())
                for name, p in model.named_parameters():
                    p.grad[...] = view.allreduce(
                        p.grad, name=f"g:{name}", phase="grad_allreduce"
                    )
                drv.step()
                opt.step()
            return [p.data.copy() for p in model.parameters()]

        return world.run_spmd(program, timeout=60)[0], world, tracer

    models = [_model() for _ in range(P)]
    kfacs = [KFAC(m, rank=r, world_size=P, **kfac_kw) for r, m in enumerate(models)]
    for k in kfacs:
        k.tracer = tracer
        if wrap is not None:
            k.step_generator = wrap(k)
    controller = PhaseController(kfacs, world)
    opts = [SGD(m.parameters(), lr=0.1) for m in models]
    loss_fns = [CrossEntropyLoss() for _ in range(P)]
    for step in range(steps):
        world.begin_step(step)
        for r in range(P):
            opts[r].zero_grad()
            loss_fns[r](models[r](x[shards[r]]), y[shards[r]])
            models[r].backward(loss_fns[r].backward())
        for grads in zip(*[[p.grad for p in m.parameters()] for m in models]):
            reduced = world.allreduce(list(grads), op="average", phase="grad_allreduce")
            for g, red in zip(grads, reduced):
                g[...] = red
        controller.step()
        for opt in opts:
            opt.step()
    return [p.data.copy() for p in models[0].parameters()], world, tracer


class TestRequestStream:
    def test_comm_ops_exports_exactly_five_request_types(self):
        types = {n for n in comm_ops.__all__ if n[0].isupper()}
        assert types == {
            "AllReduceLaunch",
            "AllGatherLaunch",
            "GroupAllGatherLaunch",
            "GroupBroadcastLaunch",
            "WaitRequest",
        }

    @pytest.mark.parametrize("scheduler", ["sync", "graph"])
    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    def test_every_launch_is_waited_once(self, scheduler, placement):
        streams: list[list] = []

        def wrap(kfac):
            gen_fn = kfac.step_generator

            def recording():
                stream: list = []
                streams.append(stream)
                gen = gen_fn()
                try:
                    req = next(gen)
                    while True:
                        stream.append(req)
                        req = gen.send((yield req))
                except StopIteration:
                    return

            return recording

        _run("phase", _kfac_kw(scheduler=scheduler, **PLACEMENTS[placement]), wrap=wrap)
        assert len(streams) == 4 * P
        assert any(streams), "the matrix must exercise communication"
        for stream in streams:
            launched: list[str] = []
            waited: list[str] = []
            for i, req in enumerate(stream):
                assert isinstance(req, LAUNCHES + (WaitRequest,)), type(req)
                if isinstance(req, WaitRequest):
                    assert req.tag in launched and req.tag not in waited, req.tag
                    waited.append(req.tag)
                    if scheduler == "sync":
                        assert req.compute_seconds == 0.0
                        # blocking = launch immediately followed by its wait
                        assert stream[i - 1].tag == req.tag
                else:
                    assert req.tag not in launched, f"duplicate tag {req.tag!r}"
                    launched.append(req.tag)
            assert sorted(waited) == sorted(launched)

    def test_single_worker_step_rejects_comm_requests(self):
        kfac = KFAC(_model(), kfac_update_freq=1)

        def chatty():
            yield WaitRequest(tag="x")

        kfac.step_generator = chatty
        with pytest.raises(RuntimeError, match="WaitRequest"):
            kfac.step()


def _fault_marks(tracer):
    """Per-rank retry/fallback instants: (name, attrs) in record order."""
    marks: dict[int, list] = {}
    for s in tracer.spans(cat="fault"):
        if s.name.startswith(("retry:", "fallback:")):
            marks.setdefault(s.rank, []).append((s.name, s.attrs))
    return marks


def _assert_fault_parity(kfac_kw, plan_fn, full_trace):
    phase_params, phase_world, phase_tr = _run("phase", kfac_kw, plan_fn())
    spmd_params, spmd_world, spmd_tr = _run("spmd", kfac_kw, plan_fn())
    for a, b in zip(phase_params, spmd_params):
        np.testing.assert_array_equal(a, b)
    backoff = phase_world.overlap.exposed("retry_backoff")
    assert backoff > 0.0
    assert spmd_world.overlap.exposed("retry_backoff") == backoff
    assert spmd_world.overlap == phase_world.overlap
    assert spmd_world.stats == phase_world.stats
    assert _fault_marks(spmd_tr) == _fault_marks(phase_tr)
    if full_trace:
        assert spmd_tr.spans() == phase_tr.spans()
    return _fault_marks(phase_tr)


class TestFaultParity:
    @pytest.mark.parametrize("scheduler", ["sync", "graph"])
    @pytest.mark.parametrize("count", [1, None], ids=["transient", "exhausted"])
    def test_factor_comm_failure_phase_equals_spmd(self, scheduler, count):
        marks = _assert_fault_parity(
            _kfac_kw(scheduler=scheduler),
            lambda: FaultPlan(
                failures=[CollectiveFailure(phase="factor_comm", step=1, count=count)]
            ),
            full_trace=scheduler == "sync",
        )
        assert sorted(marks) == list(range(P))
        names = [name for name, _ in marks[0]]
        assert names.count("retry:factor_comm") == (1 if count == 1 else 2)
        assert names.count("fallback:factor_comm") == (0 if count == 1 else 1)

    @pytest.mark.parametrize("scheduler", ["sync", "graph"])
    def test_group_share_failure_charged_once_per_retry(self, scheduler):
        """A group op's retries are owned by its first member, so a group
        without rank 0 still charges its backoff under SPMD."""
        marks = _assert_fault_parity(
            _kfac_kw(scheduler=scheduler, grad_worker_frac=0.5),
            lambda: FaultPlan(
                failures=[CollectiveFailure(phase="eig_comm", step=2, count=None)]
            ),
            full_trace=scheduler == "sync",
        )
        # each group share a rank belongs to exhausts two retries, then
        # falls back; every rank is a member of at least one share
        assert sorted(marks) == list(range(P))
        for rank in range(P):
            names = [name for name, _ in marks[rank]]
            assert names.count("fallback:eig_comm") >= 1
            assert names.count("retry:eig_comm") == 2 * names.count("fallback:eig_comm")
