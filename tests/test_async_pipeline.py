"""Pipelined (async) K-FAC execution and comm-path dtype preservation.

Covers the correctness claims of pipelined launch/wait execution:

1. pipelining is *semantics-preserving* — PhaseController with overlap
   on/off produces identical preconditioned gradients (COMM_OPT, both
   second-order modes, both drivers);
2. the comm path preserves the caller's dtype — a float64 model's
   multi-worker COMM_OPT step matches the single-worker path bit-for-bit
   in dtype (the historical ``pack_arrays`` float32 hard-code silently
   downcast factors crossing worker boundaries);
3. overlap accounting: async runs report hidden communication seconds,
   sync runs never do;
4. scheduler frequency changes at epoch boundaries never desync hook
   capture from ``update_factors``;
5. checkpoint save/resume mid ``kfac_update_freq`` interval under
   LAYER_WISE + greedy assignment resumes bit-equivalently.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.backend import World
from repro.comm.horovod import HorovodContext
from repro.core.distributed import PhaseController, SPMDDriver
from repro.core.preconditioner import COMM_OPT, LAYER_WISE, KFAC
from repro.core.schedule import KFACParamScheduler
from repro.nn.container import Sequential
from repro.nn.layers import Linear, ReLU
from repro.nn.loss import CrossEntropyLoss
from tests.conftest import build_tiny_cnn


def build_f64_mlp(seed: int = 11, num_classes: int = 3):
    """A small all-Linear model promoted to float64 end to end."""
    r = np.random.default_rng(seed)
    model = Sequential(Linear(6, 8, rng=r), ReLU(), Linear(8, num_classes, rng=r))
    for p in model.parameters():
        p.data = p.data.astype(np.float64)
        p.grad = np.zeros_like(p.data)
    return model


def _mlp_data(n: int = 16, dtype=np.float64):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(n, 6)).astype(dtype)
    y = rng.integers(0, 3, size=n).astype(np.int64)
    return x, y


def run_phase_preconditioned(
    world_size: int,
    steps: int = 3,
    scheduler: str = "sync",
    bucket_bytes: int = 1 << 12,
    use_eigen: bool = True,
    assignment: str = "round_robin",
    model_factory=build_tiny_cnn,
    data=None,
    seed: int = 42,
):
    """Train with the PhaseController; return rank-0's final preconditioned
    gradients (captured after KFAC.step, before the optimizer update) and
    the world (for overlap accounting assertions)."""
    world = World(world_size)
    models = [model_factory(seed) for _ in range(world_size)]
    kfacs = [
        KFAC(
            m,
            rank=r,
            world_size=world_size,
            damping=0.01,
            fac_update_freq=1,
            kfac_update_freq=1,
            use_eigen_decomp=use_eigen,
            assignment=assignment,
            scheduler=scheduler,
            bucket_bytes=bucket_bytes,
        )
        for r, m in enumerate(models)
    ]
    controller = PhaseController(kfacs, world)
    losses = [CrossEntropyLoss() for _ in range(world_size)]
    if data is None:
        rng = np.random.default_rng(0)
        x = rng.normal(size=(16, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=16).astype(np.int64)
    else:
        x, y = data
    shard = len(x) // world_size
    grads = None
    for _ in range(steps):
        for r in range(world_size):
            models[r].zero_grad()
            out = models[r](x[r * shard : (r + 1) * shard])
            losses[r](out, y[r * shard : (r + 1) * shard])
            models[r].backward(losses[r].backward())
        params = [list(m.parameters()) for m in models]
        for j in range(len(params[0])):
            reduced = world.allreduce([params[r][j].grad for r in range(world_size)])
            for r in range(world_size):
                params[r][j].grad[...] = reduced[r]
        controller.step()
        grads = {n: p.grad.copy() for n, p in models[0].named_parameters()}
        # keep weights moving so later steps see fresh factors
        for m in models:
            for p in m.parameters():
                p.data -= 0.05 * p.grad
    return grads, world


class TestPipelinedEquivalence:
    @pytest.mark.parametrize("world_size", [2, 4])
    def test_overlap_on_off_identical_preconditioned_grads(self, world_size):
        """One sync and one async step from identical state: same dtype,
        gradients equal within atol 1e-6 (the acceptance bound)."""
        sync, _ = run_phase_preconditioned(world_size, steps=1, scheduler="sync")
        pipe, _ = run_phase_preconditioned(world_size, steps=1, scheduler="graph")
        for key in sync:
            assert pipe[key].dtype == sync[key].dtype
            np.testing.assert_allclose(
                pipe[key], sync[key], atol=1e-6, rtol=1e-6, err_msg=key
            )

    @pytest.mark.parametrize("world_size", [2, 4])
    def test_overlap_trajectory_stays_close(self, world_size):
        """Multi-step trajectories only drift by float32 reassociation
        noise (bucketed ring reductions re-order additions)."""
        sync, _ = run_phase_preconditioned(world_size, steps=3, scheduler="sync")
        pipe, _ = run_phase_preconditioned(world_size, steps=3, scheduler="graph")
        for key in sync:
            np.testing.assert_allclose(
                pipe[key], sync[key], atol=2e-5, rtol=2e-4, err_msg=key
            )

    def test_overlap_with_inverse_mode(self):
        sync, _ = run_phase_preconditioned(2, steps=1, use_eigen=False, scheduler="sync")
        pipe, _ = run_phase_preconditioned(2, steps=1, use_eigen=False, scheduler="graph")
        for key in sync:
            np.testing.assert_allclose(pipe[key], sync[key], atol=1e-6, rtol=1e-6)

    def test_overlap_with_greedy_assignment(self):
        sync, _ = run_phase_preconditioned(3, steps=1, assignment="greedy", scheduler="sync")
        pipe, _ = run_phase_preconditioned(3, steps=1, assignment="greedy", scheduler="graph")
        for key in sync:
            np.testing.assert_allclose(pipe[key], sync[key], atol=1e-6, rtol=1e-6)

    def test_single_bucket_pipeline_matches_sync(self):
        """A bucket big enough for everything still exercises launch/wait."""
        sync, _ = run_phase_preconditioned(2, scheduler="sync")
        pipe, _ = run_phase_preconditioned(2, scheduler="graph", bucket_bytes=1 << 30)
        for key in sync:
            np.testing.assert_allclose(pipe[key], sync[key], atol=1e-6, rtol=1e-6)

    def test_async_reports_hidden_comm(self):
        _, w_sync = run_phase_preconditioned(4, scheduler="sync")
        _, w_pipe = run_phase_preconditioned(4, scheduler="graph")
        assert w_sync.overlap.total_hidden() == 0.0
        assert w_pipe.overlap.total_hidden() > 0.0
        # exposed + hidden must equal the phase's total accounted comm
        for phase in ("factor_comm", "eig_comm"):
            total = w_pipe.overlap.total(phase)
            assert total > 0.0
            assert w_pipe.overlap.exposed(phase) + w_pipe.overlap.hidden(
                phase
            ) == pytest.approx(total)

    def test_spmd_async_matches_phase_async(self):
        phase, _ = run_phase_preconditioned(2, scheduler="graph")

        world = World(2)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(16, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=16).astype(np.int64)

        def program(view):
            model = build_tiny_cnn(seed=42)
            kfac = KFAC(
                model,
                rank=view.rank,
                world_size=2,
                damping=0.01,
                fac_update_freq=1,
                kfac_update_freq=1,
                scheduler="graph",
                bucket_bytes=1 << 12,
            )
            drv = SPMDDriver(kfac, HorovodContext(view))
            loss_fn = CrossEntropyLoss()
            xs, ys = x[view.rank * 8 : (view.rank + 1) * 8], y[view.rank * 8 : (view.rank + 1) * 8]
            grads = None
            for step in range(3):
                model.zero_grad()
                out = model(xs)
                loss_fn(out, ys)
                model.backward(loss_fn.backward())
                for name, p in model.named_parameters():
                    p.grad[...] = view.allreduce(
                        p.grad, name=f"g:{name}:{step}", op="average"
                    )
                drv.step()
                grads = {n: p.grad.copy() for n, p in model.named_parameters()}
                for p in model.parameters():
                    p.data -= 0.05 * p.grad
            return grads

        spmd = world.run_spmd(program, timeout=60)[0]
        for key in phase:
            np.testing.assert_allclose(spmd[key], phase[key], atol=1e-6, rtol=1e-6)


class TestCommDtypePreservation:
    """Regression: pack_arrays used to hard-code float32 transport."""

    @pytest.mark.parametrize("scheduler", ["sync", "graph"])
    def test_float64_multi_worker_matches_single_worker(self, scheduler):
        data = _mlp_data()

        # single-worker reference (no communication at all)
        model = build_f64_mlp()
        kfac = KFAC(model, damping=0.01, fac_update_freq=1, kfac_update_freq=1)
        loss = CrossEntropyLoss()
        x, y = data
        model.zero_grad()
        out = model(x)
        loss(out, y)
        model.backward(loss.backward())
        kfac.step()
        ref = {n: p.grad.copy() for n, p in model.named_parameters()}

        dist, _ = run_phase_preconditioned(
            2,
            steps=1,
            scheduler=scheduler,
            model_factory=lambda seed: build_f64_mlp(),
            data=data,
        )
        for key in ref:
            assert ref[key].dtype == np.float64
            # bit-identical dtype: the collective round trip must not downcast
            assert dist[key].dtype == np.float64, (
                f"{key}: comm path downcast float64 -> {dist[key].dtype}"
            )
            np.testing.assert_allclose(dist[key], ref[key], atol=1e-10, rtol=1e-10)

    def test_float64_replicas_stay_identical(self):
        """All replicas agree after a float64 COMM_OPT pipelined step."""
        data = _mlp_data()
        world = World(2)
        models = [build_f64_mlp() for _ in range(2)]
        kfacs = [
            KFAC(m, rank=r, world_size=2, damping=0.01, scheduler="graph",
                 bucket_bytes=256, fac_update_freq=1, kfac_update_freq=1)
            for r, m in enumerate(models)
        ]
        controller = PhaseController(kfacs, world)
        losses = [CrossEntropyLoss() for _ in range(2)]
        x, y = data
        for r in range(2):
            models[r].zero_grad()
            out = models[r](x[r * 8 : (r + 1) * 8])
            losses[r](out, y[r * 8 : (r + 1) * 8])
            models[r].backward(losses[r].backward())
        params = [list(m.parameters()) for m in models]
        for j in range(len(params[0])):
            reduced = world.allreduce([params[r][j].grad for r in range(2)])
            for r in range(2):
                params[r][j].grad[...] = reduced[r]
        controller.step()
        g0 = {n: p.grad for n, p in models[0].named_parameters()}
        g1 = {n: p.grad for n, p in models[1].named_parameters()}
        for key in g0:
            assert g0[key].dtype == np.float64
            np.testing.assert_array_equal(g0[key], g1[key])


class TestSchedulerCaptureSync:
    def test_freq_changes_never_desync_capture_from_update(self):
        """Hook capture and ``update_factors`` must agree at every step even
        as the scheduler rescales both update intervals at epoch bounds."""
        model = build_tiny_cnn(seed=3)
        kfac = KFAC(model, damping=0.01, fac_update_freq=2, kfac_update_freq=4)
        sched = KFACParamScheduler(
            kfac, update_freq_alpha=3.0, update_freq_schedule=[1, 3]
        )
        loss = CrossEntropyLoss()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=8).astype(np.int64)
        expected_updates = 0
        for epoch in range(5):
            sched.step(epoch)
            for _ in range(4):
                will_update = kfac.steps % kfac.fac_update_freq == 0
                expected_updates += int(will_update)
                model.zero_grad()
                out = model(x)
                loss(out, y)
                model.backward(loss.backward())
                kfac.step()  # raises if capture and update disagree
                for layer in kfac.layers:
                    # captures are consumed by the update or never taken —
                    # a lingering capture means capture/update desynced
                    assert layer.a_input is None and layer.g_output is None
        assert kfac.n_factor_updates == expected_updates
        # the schedule actually changed the interval (guard against a
        # vacuous test)
        assert kfac.fac_update_freq != 2

    def test_mid_interval_freq_change_still_consistent(self):
        """Changing frequencies between iterations (not just epochs) keeps
        the capture decision and the update decision in lockstep."""
        model = build_tiny_cnn(seed=4)
        kfac = KFAC(model, damping=0.01, fac_update_freq=1, kfac_update_freq=2)
        loss = CrossEntropyLoss()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=8).astype(np.int64)
        for step in range(6):
            if step == 3:
                kfac.fac_update_freq = 2
                kfac.kfac_update_freq = 4
            model.zero_grad()
            out = model(x)
            loss(out, y)
            model.backward(loss.backward())
            kfac.step()
            for layer in kfac.layers:
                assert layer.a_input is None and layer.g_output is None


class TestMidIntervalCheckpoint:
    def test_layer_wise_greedy_resume_mid_interval(self):
        """Save/resume between two second-order refreshes (step 2 of a
        kfac_update_freq=3 interval) under LAYER_WISE + greedy."""
        kw = dict(
            damping=0.01,
            fac_update_freq=1,
            kfac_update_freq=3,
            strategy=LAYER_WISE,
            assignment="greedy",
        )
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=8).astype(np.int64)
        loss = CrossEntropyLoss()

        def one_step(model, kfac):
            model.zero_grad()
            out = model(x)
            loss(out, y)
            model.backward(loss.backward())
            kfac.step()
            for p in model.parameters():
                p.data -= 0.1 * p.grad

        m1 = build_tiny_cnn(seed=5)
        k1 = KFAC(m1, **kw)
        for _ in range(5):
            one_step(m1, k1)

        m2 = build_tiny_cnn(seed=5)
        k2 = KFAC(m2, **kw)
        for _ in range(2):  # stop mid-interval: last refresh was step 0
            one_step(m2, k2)
        model_state = m2.state_dict()
        kfac_state = k2.state_dict()

        m3 = build_tiny_cnn(seed=99)  # different init, fully overwritten
        m3.load_state_dict(model_state)
        k3 = KFAC(m3, **kw)
        k3.load_state_dict(kfac_state)
        assert k3.steps == 2  # resumes inside the interval, not at a bound
        for _ in range(3):
            one_step(m3, k3)

        for (n1, p1), (_, p3) in zip(m1.named_parameters(), m3.named_parameters()):
            np.testing.assert_allclose(
                p3.data, p1.data, rtol=1e-6, atol=1e-7, err_msg=n1
            )
