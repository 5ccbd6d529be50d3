#!/usr/bin/env python3
"""Block-diagonal factors, drift-triggered refresh, adaptive damping.

Two views of the ``repro.approx`` tier:

1. The performance model prices ``KFAC(diag_blocks=k)`` at ResNet
   scale: per-``k`` slowest-worker eigendecomposition stage time,
   eigenbasis/factor wire payloads, and amortized iteration time
   (``~k^2`` FLOP cut at the widest factor, block triangles on the
   wire).
2. A tiny training run with the drift trigger and adaptive damping on:
   every refresh decision (go/skip), the staleness counters, and the
   damping trajectory, printed step by step.

Run:  python examples/approximation.py [--blocks 1 2 4 8] [--depth 50]
                                       [--gpus 64] [--drift-tol 0.05]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core.preconditioner import KFAC
from repro.experiments.approx_exp import run_approximation_sweep
from repro.nn import Linear, Sequential
from repro.nn.loss import CrossEntropyLoss
from repro.optim.sgd import SGD
from repro.utils.tables import format_table


def drift_demo(drift_tol: float, steps: int = 10) -> None:
    """Train a toy model; print per-step refresh verdicts and damping."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 24)).astype(np.float32)
    y = rng.integers(0, 3, size=64).astype(np.int64)
    model = Sequential(Linear(24, 16, rng=rng), Linear(16, 3, rng=rng))
    kfac = KFAC(
        model, damping=0.01, kfac_update_freq=1, fac_update_freq=1, lr=0.1,
        diag_blocks=4, diag_warmup=1, drift_tol=drift_tol, adapt_damping=True,
    )
    opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
    loss_fn = CrossEntropyLoss()

    rows = []
    for step in range(steps):
        refreshes = kfac.n_second_order_updates
        opt.zero_grad()
        loss = loss_fn(model(x), y)
        model.backward(loss_fn.backward())
        kfac.step()
        opt.step()
        rows.append(
            [
                step,
                "go" if kfac.n_second_order_updates > refreshes else "skip",
                max(kfac.staleness.values(), default=0),
                f"{kfac.damping:.2e}",
                f"{float(loss):.4f}",
            ]
        )
    print(
        format_table(
            ["step", "refresh", "worst staleness", "damping", "loss"],
            rows,
            title=(
                f"drift trigger (tol={drift_tol}, diag_blocks=4, "
                f"budget={kfac.hp.max_eig_staleness}) + adaptive damping"
            ),
        )
    )
    print(
        f"refreshes: {kfac.n_drift_refreshes}   skips: {kfac.n_drift_skips}   "
        f"damping grows/shrinks: {kfac._adaptive_damping.n_grows}"
        f"/{kfac._adaptive_damping.n_shrinks}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, nargs="+", default=[1, 2, 4, 8])
    parser.add_argument("--depth", type=int, default=50)
    parser.add_argument("--gpus", type=int, default=64)
    parser.add_argument("--drift-tol", type=float, default=0.05)
    args = parser.parse_args()

    print(
        run_approximation_sweep(
            depth=args.depth, p=args.gpus, blocks=tuple(args.blocks)
        ).render()
    )
    print()
    drift_demo(args.drift_tol)


if __name__ == "__main__":
    main()
