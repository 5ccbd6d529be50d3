"""The KFAC preconditioner: hooks, update scheduling, single-worker math."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.preconditioner import COMM_OPT, LAYER_WISE, KFAC, KFACHyperParams
from repro.nn.loss import CrossEntropyLoss
from repro.nn.layers import Linear, ReLU
from repro.nn.container import Sequential
from tests.conftest import build_tiny_cnn


def forward_backward(model, x, y, loss_fn=None):
    loss_fn = loss_fn or CrossEntropyLoss()
    model.zero_grad()
    out = model(x)
    val = loss_fn(out, y)
    model.backward(loss_fn.backward())
    return val


class TestConstruction:
    def test_discovers_supported_layers(self, tiny_cnn):
        kfac = KFAC(tiny_cnn)
        kinds = sorted(type(h).__name__ for h in kfac.layers)
        assert kinds.count("Conv2dKFACLayer") == 2
        assert kinds.count("LinearKFACLayer") == 2

    def test_skip_layers(self, tiny_cnn):
        kfac = KFAC(tiny_cnn, skip_layers=("m7",))  # final classifier
        assert all("m7" not in h.name for h in kfac.layers)

    def test_no_supported_layers_raises(self):
        with pytest.raises(ValueError):
            KFAC(Sequential(ReLU()))

    def test_hyperparam_validation(self, tiny_cnn):
        with pytest.raises(ValueError):
            KFAC(tiny_cnn, damping=0.0)
        with pytest.raises(ValueError):
            KFAC(tiny_cnn, strategy="bogus")
        with pytest.raises(ValueError):
            KFACHyperParams(fac_update_freq=0)

    def test_empty_skip_layers_entry_rejected(self, tiny_cnn):
        """'' is a substring of every layer name — accepting it silently
        excludes the whole model and then misreports "no supported layers"."""
        with pytest.raises(ValueError, match="skip_layers"):
            KFACHyperParams(skip_layers=("",))
        with pytest.raises(ValueError, match="skip_layers"):
            KFAC(tiny_cnn, skip_layers=("",))
        with pytest.raises(ValueError, match="skip_layers"):
            KFACHyperParams(skip_layers=("fc", ""))

    def test_non_string_skip_layers_entry_rejected(self):
        with pytest.raises(ValueError, match="skip_layers"):
            KFACHyperParams(skip_layers=(3,))  # type: ignore[arg-type]

    def test_unknown_override_raises_named_typeerror(self, tiny_cnn):
        with pytest.raises(TypeError, match="kfac_update_frequency"):
            KFAC(tiny_cnn, kfac_update_frequency=10)  # typo'd key is named

    def test_valid_overrides_still_accepted(self, tiny_cnn):
        kfac = KFAC(tiny_cnn, kfac_update_freq=7, scheduler="graph")
        assert kfac.hp.kfac_update_freq == 7
        assert kfac.hp.scheduler == "graph"

    def test_factor_metas_order(self, tiny_cnn):
        kfac = KFAC(tiny_cnn)
        kinds = [m.kind for m in kfac.factor_metas]
        n = len(kfac.layers)
        assert kinds == ["A"] * n + ["G"] * n


class TestCaptureScheduling:
    def test_captures_only_on_factor_steps(self, tiny_cnn, tiny_batch):
        x, y = tiny_batch
        kfac = KFAC(tiny_cnn, fac_update_freq=2, kfac_update_freq=2)
        # step 0: captures
        forward_backward(tiny_cnn, x, y)
        assert all(h.a_input is not None for h in kfac.layers)
        kfac.step()
        # step 1: no capture
        forward_backward(tiny_cnn, x, y)
        assert all(h.a_input is None for h in kfac.layers)
        kfac.step()
        # step 2: captures again
        forward_backward(tiny_cnn, x, y)
        assert all(h.a_input is not None for h in kfac.layers)

    def test_eval_mode_does_not_capture(self, tiny_cnn, tiny_batch):
        x, _ = tiny_batch
        kfac = KFAC(tiny_cnn)
        tiny_cnn.eval()
        tiny_cnn(x)
        assert all(h.a_input is None for h in kfac.layers)

    def test_update_counters(self, tiny_cnn, tiny_batch):
        x, y = tiny_batch
        kfac = KFAC(tiny_cnn, fac_update_freq=1, kfac_update_freq=3)
        for _ in range(6):
            forward_backward(tiny_cnn, x, y)
            kfac.step()
        assert kfac.steps == 6
        assert kfac.n_factor_updates == 6
        assert kfac.n_second_order_updates == 2  # steps 0 and 3

    def test_remove_hooks(self, tiny_cnn, tiny_batch):
        x, y = tiny_batch
        kfac = KFAC(tiny_cnn)
        kfac.remove_hooks()
        forward_backward(tiny_cnn, x, y)
        assert all(h.a_input is None for h in kfac.layers)


class TestPreconditioning:
    def test_grads_are_rewritten(self, tiny_cnn, tiny_batch):
        x, y = tiny_batch
        kfac = KFAC(tiny_cnn, damping=0.01)
        forward_backward(tiny_cnn, x, y)
        raw = {n: p.grad.copy() for n, p in tiny_cnn.named_parameters()}
        kfac.step()
        changed = 0
        for name, p in tiny_cnn.named_parameters():
            if not np.allclose(p.grad, raw[name]):
                changed += 1
        assert changed >= 4  # all kfac-layer weights at least

    def test_bn_like_layers_untouched(self, rng, tiny_batch):
        """Layers K-FAC does not support keep their raw gradients."""
        from repro.nn.layers import BatchNorm2d, Conv2d, Flatten

        model = Sequential(
            Conv2d(1, 4, 3, padding=1, rng=rng),
            BatchNorm2d(4),
            ReLU(),
            Flatten(),
            Linear(4 * 8 * 8, 3, rng=rng),
        )
        x, y = tiny_batch
        kfac = KFAC(model, damping=0.01)
        forward_backward(model, x, y)
        bn = model[1]
        raw_bn = bn.weight.grad.copy()
        kfac.step()
        np.testing.assert_array_equal(bn.weight.grad, raw_bn)

    def test_large_damping_shrinks_toward_scaled_gradient(self, rng):
        """gamma -> large: preconditioned grad ~ grad/gamma (direction kept)."""
        lin = Linear(4, 3, bias=False, rng=rng)
        model = Sequential(lin)
        kfac = KFAC(model, damping=1e7, kl_clip=1e12)  # disable clipping
        x = rng.normal(size=(16, 4)).astype(np.float32)
        out = model(x)
        model.backward(rng.normal(size=out.shape).astype(np.float32) / out.size)
        raw = lin.weight.grad.copy()
        kfac.step()
        np.testing.assert_allclose(lin.weight.grad, raw / 1e7, rtol=1e-3)

    def test_stale_second_order_reused_between_updates(self, tiny_cnn, tiny_batch):
        x, y = tiny_batch
        kfac = KFAC(tiny_cnn, fac_update_freq=1, kfac_update_freq=10)
        forward_backward(tiny_cnn, x, y)
        kfac.step()
        eig_before = kfac.layers[0].eig_A
        forward_backward(tiny_cnn, x, y)
        kfac.step()  # step 1: no second-order update
        assert kfac.layers[0].eig_A is eig_before

    def test_inverse_mode(self, tiny_cnn, tiny_batch):
        x, y = tiny_batch
        kfac = KFAC(tiny_cnn, use_eigen_decomp=False, damping=0.01)
        forward_backward(tiny_cnn, x, y)
        kfac.step()
        assert all(h.inv_A is not None and h.inv_G is not None for h in kfac.layers)
        assert all(h.eig_A is None for h in kfac.layers)

    def test_layer_wise_single_worker(self, tiny_cnn, tiny_batch):
        x, y = tiny_batch
        kfac = KFAC(tiny_cnn, strategy=LAYER_WISE, damping=0.01)
        forward_backward(tiny_cnn, x, y)
        raw = {n: p.grad.copy() for n, p in tiny_cnn.named_parameters()}
        kfac.step()
        assert any(
            not np.allclose(p.grad, raw[n]) for n, p in tiny_cnn.named_parameters()
        )

    def test_step_rejects_multiworker(self, tiny_cnn):
        kfac = KFAC(tiny_cnn, rank=0, world_size=2)
        with pytest.raises(RuntimeError):
            kfac.step()


class TestTrainingEffect:
    def test_loss_decreases_faster_than_gd_on_illconditioned_quadratic(self, rng):
        """On an ill-conditioned linear regression, K-FAC-preconditioned
        steps beat plain GD at equal step count and learning rate."""
        from repro.nn.loss import MSELoss
        from repro.optim.sgd import SGD

        d = 12
        scales = np.logspace(0, 1.5, d)  # condition number ~1e3
        x = (rng.normal(size=(256, d)) * scales).astype(np.float32)
        # target weights sized so the error mass sits in the *small*-scale
        # coordinates — exactly the directions plain GD crawls along
        w_true = (rng.normal(size=(1, d)) / scales).astype(np.float32)
        y = x @ w_true.T

        # Each method gets its own well-tuned lr: GD is bound by
        # 2/lambda_max of the quadratic (loss = ||Xw-y||^2/N, Hessian
        # 2 X^T X / N); natural-gradient steps are ~scale-free, lr O(1).
        lam_max = np.linalg.eigvalsh(2 * (x.T @ x) / 256).max()
        gd_lr = float(1.0 / lam_max)

        def losses(use_kfac):
            lr = 1.0 if use_kfac else gd_lr
            lin = Linear(d, 1, bias=False, rng=np.random.default_rng(0))
            lin.weight.data[...] = 0.0  # start both methods at the origin
            model = Sequential(lin)
            opt = SGD(model.parameters(), lr=lr)
            kfac = KFAC(model, damping=1e-5, kl_clip=1e9, lr=lr) if use_kfac else None
            loss_fn = MSELoss()
            out_losses = []
            for _ in range(40):
                model.zero_grad()
                pred = model(x)
                val = loss_fn(pred, y)
                model.backward(loss_fn.backward())
                if kfac is not None:
                    kfac.step()
                opt.step()
                out_losses.append(val)
            return out_losses

        plain = losses(False)
        precond = losses(True)
        assert np.isfinite(plain).all() and np.isfinite(precond).all()
        # curvature-aware steps beat the best stable GD by a wide margin
        assert precond[-1] < plain[-1] * 0.1
