#!/usr/bin/env python3
"""Quickstart: the paper's Listing 1 on a simulated 4-worker world.

Each simulated worker runs the exact integration pattern the paper ships::

    optimizer = SGD(model.parameters(), ...)
    optimizer = DistributedOptimizer(optimizer, ...)   # Horovod wrapper
    preconditioner = KFAC(model, ...)
    ...
    loss.backward()
    optimizer.synchronize()          # average gradients across workers
    preconditioner.step()            # K-FAC preconditions averaged grads
    with optimizer.skip_synchronize():
        optimizer.step()             # SGD applies the update

Workers are threads communicating through matched named collectives
(ring allreduce / allgather), so this exercises the real distributed code
path of Algorithm 1, strategy K-FAC-opt.

``--precision fp16`` (or ``bf16``) runs the mixed-precision recipe end to
end: autocast forward/backward, dynamic loss scaling with
skip-step-and-rescale, compressed gradient *and* factor collectives.

``--save PATH`` writes a world-size-portable checkpoint after the last
step (K-FAC state gathered across ranks); ``--resume PATH`` continues
from one — at *any* worker count, since the bundle is redistributed for
the current placement on load.

``--trace PATH`` records every collective, scheduler task, and retry as
typed spans and writes a Chrome-trace JSON (one process track per rank;
open it at ``ui.perfetto.dev``).

Run:  python examples/quickstart.py [--workers 4] [--steps 30]
                                    [--precision {fp32,fp16,bf16}]
                                    [--save ckpt] [--resume ckpt]
                                    [--trace trace.json]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.comm.backend import World
from repro.comm.horovod import DistributedOptimizer, HorovodContext
from repro.core.distributed import SPMDDriver
from repro.core.preconditioner import KFAC
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.elastic import Checkpoint, broadcast_scaler_state, gather_state_dict
from repro.nn.loss import CrossEntropyLoss
from repro.nn.metrics import topk_accuracy
from repro.nn.resnet import resnet20_cifar
from repro.obs.tracer import Tracer, validate_chrome_trace
from repro.optim.sgd import SGD
from repro.parallel.sharding import shard_indices
from repro.precision import GradScaler, resolve_policy


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--steps", type=int, default=30)
    parser.add_argument("--batch", type=int, default=16, help="per-worker batch size")
    parser.add_argument("--lr", type=float, default=0.2)
    parser.add_argument("--precision", choices=["fp32", "fp16", "bf16"],
                        default="fp32", help="mixed-precision policy")
    parser.add_argument("--save", default=None, metavar="PATH",
                        help="write a portable checkpoint after the last step")
    parser.add_argument("--resume", default=None, metavar="PATH",
                        help="resume from a checkpoint (any worker count)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Chrome-trace JSON of the run "
                             "(open at ui.perfetto.dev)")
    args = parser.parse_args()
    policy = resolve_policy(args.precision)

    dataset = SyntheticImageDataset(
        SyntheticSpec(n_train=640, n_val=256, num_classes=4, image_size=10,
                      channels=3, noise=0.6, seed=1)
    )
    tx, ty, vx, vy = dataset.splits
    world = World(args.workers)
    if args.trace:
        world.tracer = Tracer()

    def worker(view) -> float:
        hvd = HorovodContext(view)
        model = resnet20_cifar(np.random.default_rng(0), width_multiplier=0.25,
                               num_classes=4)
        hvd.broadcast_parameters(model)  # identical initial weights

        # every rank holds an identical scaler: the overflow verdict comes
        # from allreduced (identical) gradients, so skips stay in lockstep
        scaler = GradScaler(init_scale=2.0**10, enabled=policy.loss_scaling)
        optimizer = SGD(model.parameters(), lr=args.lr, momentum=0.9)
        optimizer = DistributedOptimizer(
            optimizer, hvd, model.named_parameters(),
            compression=policy.comm_dtype,  # ~ hvd.Compression.fp16
        )
        preconditioner = KFAC(
            model, rank=hvd.rank(), world_size=hvd.size(),
            lr=args.lr, damping=0.003, fac_update_freq=1, kfac_update_freq=5,
            comm_dtype=policy.comm_dtype, grad_scaler=scaler,
        )
        preconditioner.tracer = view.world.tracer  # span recorder (no-op off)
        driver = SPMDDriver(preconditioner, hvd)
        criterion = CrossEntropyLoss(label_smoothing=0.1)

        start_step = 0
        if args.resume:
            # every rank reads the file; the portable K-FAC bundle is
            # redistributed for THIS world size on load, and the loss
            # scale is re-shared from rank 0 so no replica diverges
            payload = Checkpoint(args.resume).load()
            model.load_state_dict(payload["model"])
            optimizer.load_state_dict(payload["optimizer"])
            if payload["kfac"] is not None:
                preconditioner.load_state_dict(payload["kfac"])
            if hvd.rank() == 0 and payload["grad_scaler"] is not None:
                scaler.load_state_dict(payload["grad_scaler"])
            broadcast_scaler_state(scaler, hvd, root=0)
            start_step = payload["step"]
            if hvd.rank() == 0:
                print(f"resumed from step {start_step}")

        indices = shard_indices(len(tx), hvd.size(), hvd.rank(), seed=0, epoch=0)
        skipped = 0
        for step in range(start_step, start_step + args.steps):
            lo = (step * args.batch) % max(1, len(indices) - args.batch)
            idx = indices[lo : lo + args.batch]
            optimizer.zero_grad()
            with policy.autocast():
                output = model(tx[idx])
                loss = criterion(output, ty[idx])
                model.backward(scaler.scale_grad(criterion.backward()))

            optimizer.synchronize()
            found_inf = scaler.unscale_(p.grad for p in model.parameters())
            prev_scale = scaler.scale
            scaler.update(found_inf)
            if scaler.scale != prev_scale:
                # compression residuals were banked in old-scale units
                optimizer.rescale_error_feedback(scaler.scale / prev_scale)
            if found_inf:
                skipped += 1  # skip-step-and-rescale: no update this step
                continue
            driver.step()  # preconditioner.step() across the world
            with optimizer.skip_synchronize():
                optimizer.step()

            if hvd.rank() == 0 and step % 5 == 0:
                print(f"step {step:3d}  loss {loss:.4f}")
        if hvd.rank() == 0 and scaler.enabled:
            print(f"loss scale {scaler.scale:g}, {skipped} overflow-skipped steps")

        if args.save:
            # the gather is a collective (every rank contributes its owned
            # second-order shards); only rank 0 touches the filesystem
            bundle = gather_state_dict(preconditioner, hvd=hvd)
            if hvd.rank() == 0:
                ckpt = Checkpoint(args.save)
                ckpt.save(ckpt.capture(
                    model=model, optimizer=optimizer, kfac_state=bundle,
                    grad_scaler=scaler, step=start_step + args.steps,
                ))
                print(f"saved checkpoint at step {start_step + args.steps}")

        model.eval()
        accuracy = topk_accuracy(model(vx), vy)
        # checksum of trainable parameters (BatchNorm running statistics are
        # legitimately rank-local, as in real Horovod training)
        checksum = float(sum(abs(p.data).sum() for p in model.parameters()))
        return accuracy, checksum

    results = world.run_spmd(worker, timeout=600)
    accuracies = [acc for acc, _ in results]
    checksums = [cs for _, cs in results]
    print(f"\nfinal validation accuracy per worker replica: "
          f"{[f'{a:.3f}' for a in accuracies]}")
    exposed = sorted(world.overlap.exposed_by_phase.items())
    print(f"exposed communication time by phase (simulated): "
          f"{ {k: f'{v*1e3:.2f}ms' for k, v in exposed} }")
    assert max(checksums) - min(checksums) < 1e-3 * max(checksums), "replicas diverged!"
    print("replica parameters stayed in sync — distributed K-FAC is consistent.")
    if args.trace:
        n_events = validate_chrome_trace(world.tracer.to_chrome())
        world.tracer.write(args.trace)
        print(f"trace: {n_events} events -> {args.trace} (valid Chrome trace)")


if __name__ == "__main__":
    main()
