"""One workload run in a fresh process: set up, warm up, closed loop, checks.

Started by ``perfbench/run.py`` with ``OPENBLAS_NUM_THREADS=1`` already in
the environment and ``src`` on ``PYTHONPATH``; prints one JSON object as
its last stdout line; a traced child also writes its spans to
``perfbench/results/spans-<workload>.json.gz``.  A single client drives
``DataParallelTrainer.train_iteration``: each iteration starts when the
previous one returns.

    python3 perfbench/child.py --workload cnn-kfac --seed 1 --seconds 8 --trace 0
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Iterator

import numpy as np
import scipy
import scipy.linalg

import stats

perf_counter = time.perf_counter

HERE = Path(__file__).resolve().parent
#: timed steps after warm-up that ``final_loss`` averages; every child runs
#: at least this many, whatever ``--seconds`` allows
MIN_STEPS = 16
#: probes timed before and after set-up, to scale it to the reference host
SETUP_PROBES = 5
#: set-ups timed per untraced child: the one that trains, then repeats
#: after its run, one trainer alive at a time; the median is reported
SETUP_REPEATS = 3


def check_sources() -> None:
    """Refuse to run against any ``repro`` but the checkout's own ``src``."""
    import repro

    src = (Path.cwd() / "src").resolve()
    found = Path(repro.__file__).resolve()
    if src not in found.parents:
        raise SystemExit(f"repro imported from {found}, not from {src}")


class HostProbe:
    """A fixed GEMM + ``eigh`` mix that calls no ``repro`` code.

    Timed before and after each sample; step time divided by probe time
    cancels the host's drift in speed between and within processes.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((256, 256)).astype(np.float32)
        m = rng.standard_normal((96, 96))
        self.s = m @ m.T + 96.0 * np.eye(96)

    def __call__(self) -> float:
        t0 = perf_counter()
        for _ in range(8):
            self.a @ self.a
        for _ in range(2):
            scipy.linalg.eigh(self.s)
        return perf_counter() - t0


def batch_stream(trainer, train_x: np.ndarray, train_y: np.ndarray) -> Iterator[list]:
    """Per-iteration per-rank batches in the trainer's own shard order."""
    from repro.data.loader import batch_iterator

    epoch = 0
    while True:
        shards = []
        for sampler in trainer.samplers:
            sampler.set_epoch(epoch)
            shards.append(
                list(batch_iterator(train_x, train_y, sampler.indices(),
                                    trainer.config.batch_size, drop_last=True))
            )
        for batches in zip(*shards):
            yield list(batches)
        epoch += 1


def replicas_bitwise_equal(trainer) -> bool:
    ref = [p.data for p in trainer.replicas[0].parameters()]
    for model in trainer.replicas[1:]:
        for a, b in zip(ref, (p.data for p in model.parameters())):
            if a.dtype != b.dtype or a.tobytes() != b.tobytes():
                return False
    return True


def host_facts() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # older NumPy: no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def trajectory_seed(seed: int, trajectory: int) -> int:
    """Seed of one of a run's independent trajectories (data, weights, order)."""
    return int(np.random.SeedSequence([seed, trajectory]).generate_state(1)[0])


def set_up(wl, train_x: np.ndarray, train_y: np.ndarray, seed: int, probe: HostProbe,
           rec=None) -> tuple:
    """Build a trainer and run its first refresh cycle, timed.

    The cycle fills the plan cache and the workspace arena and runs the
    first eig, so work moved out of the step into set-up shows here.
    Returns the trainer, its batch stream, the warm-up losses, the wall
    seconds and the median host-probe time around them.
    """
    from workloads import CYCLE, build_trainer

    probes = [probe() for _ in range(SETUP_PROBES)]
    t0 = perf_counter()
    trainer = build_trainer(wl, train_x, train_y, seed)
    if rec is not None:
        import tracing

        tracing.install(rec, trainer)
    stream = batch_stream(trainer, train_x, train_y)
    losses = []
    for step in range(CYCLE):
        trainer.world.begin_step(step)
        losses.append(trainer.train_iteration(next(stream), wl.lr))
        if not math.isfinite(losses[-1]):
            raise RuntimeError(f"warm-up step {step} loss {losses[-1]}")
    seconds = perf_counter() - t0
    probes += [probe() for _ in range(SETUP_PROBES)]
    return trainer, stream, losses, seconds, stats.median(probes)


def run(args: argparse.Namespace) -> dict:
    from workloads import CYCLE, WORKLOADS

    wl = WORKLOADS[args.workload]
    seed = trajectory_seed(args.seed, args.trajectory)
    train_x, train_y = wl.make_data(seed)
    probe = HostProbe()
    probe()  # first call pays lazy LAPACK set-up; keep it out of the samples

    rec = None
    if args.trace:
        import tracing

        rec = tracing.SpanRecorder()
    trainer, stream, losses, setup_s, setup_probe_s = set_up(
        wl, train_x, train_y, seed, probe, rec
    )
    setup_s, setup_probe_s = [setup_s], [setup_probe_s]
    failures: list[str] = []
    attempted = step = CYCLE

    def iterate() -> bool:
        """One closed-loop iteration; False once a step has failed."""
        nonlocal step, attempted
        batches = next(stream)
        trainer.world.begin_step(step)
        attempted += 1
        if rec is not None:
            rec.step = step
        t0 = perf_counter()
        try:
            loss = trainer.train_iteration(batches, wl.lr)
        except Exception as exc:  # the boundary of one step: count it, stop the run
            failures.append(f"step {step} raised {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return False
        if rec is not None and rec.enabled:
            rec.windows[step] = (t0, perf_counter())
        losses.append(loss)
        step += 1
        if not math.isfinite(loss):
            failures.append(f"step {step - 1} loss {loss}")
            return False
        return True

    iter_s: list[float] = []
    probe_before: list[float] = []
    probe_after: list[float] = []
    base = ledger_snapshot(trainer)
    p = probe()
    t_loop = perf_counter()
    ok = True
    while ok:
        if rec is not None:
            rec.enabled = True
        for _ in range(CYCLE):
            t_it = perf_counter()
            ok = iterate()
            if not ok:
                break
            iter_s.append(perf_counter() - t_it)
        if rec is not None:
            rec.enabled = False
        probe_before.append(p)
        p = probe()
        probe_after.append(p)
        timed = step - CYCLE
        if timed >= MIN_STEPS and perf_counter() - t_loop >= args.seconds:
            break

    checks = {"replicas_bitwise_equal": replicas_bitwise_equal(trainer)}
    # the trajectory up to the fixed step count, identical for any --seconds;
    # its mean over the timed steps is steadier across seeds than one step's
    fixed = losses[: CYCLE + MIN_STEPS]
    final_loss = None
    if len(fixed) == CYCLE + MIN_STEPS:
        final_loss = stats.mean(fixed[CYCLE:])
    else:
        failures.append(f"stopped after {len(fixed)} of {CYCLE + MIN_STEPS} fixed steps")
    if wl.hyper is not None:
        kfacs = trainer.kfacs
        expected = -(-step // CYCLE)  # refreshes at steps 0, CYCLE, 2*CYCLE, ...
        checks["eig_calls_positive"] = sum(k.n_eigs_computed_locally for k in kfacs) > 0
        checks["second_order_updates"] = all(
            k.n_second_order_updates == expected for k in kfacs
        )
        if wl.hyper.diag_blocks > 1:
            checks["blocks_active"] = all(k.blocks_active for k in kfacs)
            checks["no_unsupported_layers"] = all(
                len(k.unsupported_layers) == 0 for k in kfacs
            )

    layers = bypassed_called = None
    if rec is not None:
        now = ledger_snapshot(trainer)
        layers = tracing.layer_metrics(rec, trainer.config.world_size)
        layers.update(simulated_metrics(base, now, step - CYCLE))
        checks["collectives_match_ledger"], detail = ledger_matches(rec, base, now)
        if not checks["collectives_match_ledger"]:
            failures.append(detail)
        # step time outside the top-level spans is trainer glue; a large
        # share means a top-level call the wrappers missed
        checks["top_level_spans_cover_90pct"] = layers["trace.top_level_coverage"] >= 0.9
        missing, bypassed_called = tracing.unseen_layers(rec, wl.name)
        checks["every_layer_seen"] = not missing
        if missing:
            failures.append(f"wrapped layers never seen: {missing}")
        spans = HERE / "results" / f"spans-{wl.name}.json.gz"
        spans.parent.mkdir(exist_ok=True)
        rec.dump(str(spans))
    failures.extend(f"check {name} failed" for name, passed in checks.items() if not passed)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    global_batch = trainer.config.world_size * trainer.config.batch_size
    if rec is None:
        # peak RSS is read: drop the trained trainer, so each repeat has
        # one trainer alive, as the first set-up had
        trainer = stream = None
        for _ in range(SETUP_REPEATS - 1):
            seconds, probe_s = set_up(wl, train_x, train_y, seed, probe)[3:]
            setup_s.append(seconds)
            setup_probe_s.append(probe_s)

    samples = stats.cycle_samples(iter_s, CYCLE)
    return {
        "workload": wl.name,
        "seed": args.seed,
        "trajectory": args.trajectory,
        "trace": bool(args.trace),
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "samples_s": samples,
        "probe_before_s": probe_before[: len(samples)],
        "probe_after_s": probe_after[: len(samples)],
        "timed_iterations": len(samples) * CYCLE,
        "timed_seconds": sum(iter_s[: len(samples) * CYCLE]),
        "global_batch": global_batch,
        "final_loss": final_loss,
        "fixed_losses_hex": [float(v).hex() for v in fixed],
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted + len(checks),
        "failed": len(failures),
        "failures": failures,
        "checks": checks,
        "layers": layers,
        "bypassed_called": bypassed_called,
        "host": host_facts(),
    }


def ledger_snapshot(trainer) -> dict:
    """The world's own comm ledger (what ``TrainingHistory`` reports)."""
    world = trainer.world
    controller = trainer.kfac_controller
    return {
        "ops": dict(world.stats.ops_by_phase),
        "bytes": dict(world.stats.bytes_by_phase),
        "exposed": sum(world.overlap.exposed_by_phase.values()),
        "hidden": sum(world.overlap.hidden_by_phase.values()),
        "retries": controller.comm_retries if controller is not None else 0,
    }


#: simulated per-step bytes by ledger phase
BYTE_PHASES = {
    "comm.grad_bytes": "grad_allreduce",
    "comm.factor_bytes": "factor_comm",
    "comm.eig_bytes": "eig_comm",
    "comm.precond_bytes": "precond_comm",
}


def simulated_metrics(base: dict, now: dict, steps: int) -> dict[str, float]:
    """Exact ledger counts and simulated seconds over the timed steps."""
    out = {
        metric: (now["bytes"].get(phase, 0.0) - base["bytes"].get(phase, 0.0)) / steps
        for metric, phase in BYTE_PHASES.items()
    }
    out["comm.exposed_sim_ms"] = 1e3 * (now["exposed"] - base["exposed"]) / steps
    out["comm.hidden_sim_ms"] = 1e3 * (now["hidden"] - base["hidden"]) / steps
    out["comm.retries"] = float(now["retries"] - base["retries"])
    return out


def ledger_matches(rec, base: dict, now: dict) -> tuple[bool, str]:
    """Collectives counted by the wrappers against the world's own ledger.

    Tracing is on only for timed iterations, and nothing between them
    communicates, so the wrappers must have seen exactly the ledger's
    growth over the timed loop: the same ops and bytes in every phase.
    """
    ops = {k: v - base["ops"].get(k, 0) for k, v in now["ops"].items()}
    nbytes = {k: v - base["bytes"].get(k, 0.0) for k, v in now["bytes"].items()}
    ops = {k: v for k, v in ops.items() if v}
    nbytes = {k: v for k, v in nbytes.items() if k in ops}
    seen_ops, seen_bytes = dict(rec.coll_ops), dict(rec.coll_bytes)
    ok = ops == seen_ops and nbytes == seen_bytes
    return ok, f"ledger ops {ops} bytes {nbytes}; wrappers saw ops {seen_ops} bytes {seen_bytes}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trajectory", type=int, default=0,
                        help="which of the seed's independent training runs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    check_sources()
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
