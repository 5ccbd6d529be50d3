"""The synchronous data-parallel trainer (paper Fig. 1).

Executes, per iteration:

1. **I/O** — each worker reads its shard of the global mini-batch;
2. **Forward** — loss on the local mini-batch;
3. **Gradient evaluation** — explicit backward pass;
4. **Gradient exchange** — fused ring allreduce (Horovod fusion buffer);
5. **Variable update** — optional distributed K-FAC preconditioning
   (Listing 1 ordering: gradients are averaged *before* ``KFAC.step``),
   then the wrapped first-order optimizer.

Wall-clock per phase is measured (``Stopwatch``), simulated communication
time is accounted by the :class:`repro.comm.World`, and validation runs on
the rank-0 replica at configurable epoch intervals — mirroring how the
paper's experiments report Top-1 validation accuracy per epoch.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

from repro.comm.backend import World, task_overlap_profile
from repro.comm.faults import FaultPlan, RetryPolicy
from repro.comm.fusion import FusionBuffer
from repro.core.distributed import PhaseController
from repro.core.preconditioner import KFAC, KFACHyperParams
from repro.data.loader import batch_iterator
from repro.nn.loss import CrossEntropyLoss
from repro.nn.metrics import topk_accuracy
from repro.nn.module import Module
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.optim.base import Optimizer
from repro.optim.lr_scheduler import ConstantSchedule, LRSchedule
from repro.optim.sgd import SGD
from repro.parallel.sharding import ShardedIndexSampler
from repro.precision import GradScaler, PrecisionPolicy, resolve_policy
from repro.utils.timer import Stopwatch

__all__ = ["TrainerConfig", "EpochStats", "TrainingHistory", "DataParallelTrainer"]


@dataclass
class TrainerConfig:
    """Configuration of one data-parallel training run.

    ``batch_size`` is per-worker (the paper's ``N x 32`` / ``N x 128``
    recipes mean per-worker sizes 32 / 128).

    Example
    -------
    >>> from repro.core.preconditioner import KFACHyperParams
    >>> from repro.parallel.trainer import TrainerConfig
    >>> cfg = TrainerConfig(world_size=4, batch_size=32, epochs=2,
    ...                     kfac=KFACHyperParams(kfac_update_freq=20))
    >>> cfg.world_size * cfg.batch_size        # global batch
    128
    """

    world_size: int = 1
    batch_size: int = 32
    epochs: int = 10
    momentum: float = 0.9
    weight_decay: float = 0.0
    label_smoothing: float = 0.0
    seed: int = 0
    eval_every: int = 1
    fusion_capacity_bytes: int = 16 << 20
    kfac: KFACHyperParams | None = None
    lr_schedule: LRSchedule = field(default_factory=lambda: ConstantSchedule(0.1))
    kfac_scheduler_factory: Callable[[KFAC], object] | None = None
    #: precision policy name ("fp32"/"fp16"/"bf16"/"fp64") or a
    #: :class:`repro.precision.PrecisionPolicy`; governs the compute dtype
    #: of forward/backward GEMMs, the wire codec of gradient *and* factor
    #: collectives, and whether dynamic loss scaling is armed
    precision: str | PrecisionPolicy = "fp32"
    #: optional pre-configured scaler (e.g. custom growth interval); by
    #: default one is built armed iff the policy calls for loss scaling
    grad_scaler: GradScaler | None = None
    #: fault/straggler injection plan installed on the simulated world
    #: (see :mod:`repro.elastic`); None trains on a healthy fleet
    fault_plan: FaultPlan | None = None
    #: bounded retry-with-backoff for failed K-FAC collectives, with
    #: stale-eigenbasis fallback past the budget; None fails fast
    retry_policy: RetryPolicy | None = field(default_factory=RetryPolicy)
    #: span recorder from :mod:`repro.obs` — installed on the world, every
    #: preconditioner, and the trainer's phase loop; None disables tracing
    #: at zero cost (the shared null tracer allocates nothing)
    tracer: Tracer | None = None

    def __post_init__(self) -> None:
        if self.world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {self.world_size}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        resolve_policy(self.precision)  # fail fast on unknown names


@dataclass
class EpochStats:
    """Per-epoch record.

    Example
    -------
    >>> from repro.parallel.trainer import EpochStats
    >>> EpochStats(epoch=0, train_loss=2.3, val_accuracy=0.4,
    ...            lr=0.1, iterations=100).val_accuracy
    0.4
    """

    epoch: int
    train_loss: float
    val_accuracy: float | None
    lr: float
    iterations: int


@dataclass
class TrainingHistory:
    """Full run record: per-epoch stats plus phase timings.

    ``comm_seconds`` holds *exposed* (critical-path) simulated seconds per
    phase; ``comm_hidden_seconds`` the portion masked behind local compute
    by the pipelined graph scheduler (zero for fully synchronous runs).
    ``comm_bytes`` counts the true fused payload per phase — what actually
    crossed the (simulated) wire after fusion, not per-tensor bookkeeping.

    Example
    -------
    >>> from repro.parallel.trainer import EpochStats, TrainingHistory
    >>> history = TrainingHistory()
    >>> history.epochs.append(EpochStats(0, 2.3, 0.25, 0.1, 10))
    >>> history.epochs.append(EpochStats(1, 1.9, 0.50, 0.1, 10))
    >>> history.best_val_accuracy, history.epochs_to_accuracy(0.5)
    (0.5, 1)
    """

    epochs: list[EpochStats] = field(default_factory=list)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    comm_seconds: dict[str, float] = field(default_factory=dict)
    comm_hidden_seconds: dict[str, float] = field(default_factory=dict)
    #: exposed/hidden seconds keyed by scheduler task kind (``FactorComm``,
    #: ``EigShare``, ``GradShare``, ``GradAllReduce``) — the per-task view
    #: of the same overlap ledger (:func:`repro.comm.backend.task_overlap_profile`)
    comm_task_profile: dict[str, dict[str, float]] = field(default_factory=dict)
    comm_bytes: dict[str, float] = field(default_factory=dict)
    total_iterations: int = 0
    grad_fusion_flushes: int = 0
    #: precision policy the run used, plus its loss-scaling record: updates
    #: skipped on overflow (scale backed off) and the final scale value
    precision: str = "fp32"
    amp_skipped_steps: int = 0
    final_loss_scale: float = 1.0
    #: K-FAC placement record: the strategy the run used and — for the
    #: KAISA-style HYBRID strategy — its gradient-worker fraction and the
    #: resulting per-layer group size (None/0 without K-FAC)
    kfac_strategy: str | None = None
    grad_worker_frac: float | None = None
    grad_worker_count: int = 0
    #: robustness ledger: collective retries and degraded (fallback)
    #: exchanges in the drivers, stale-eigenbasis fallbacks taken by the
    #: preconditioner, the surviving per-factor staleness counters, and
    #: what the fault plan actually injected
    comm_retries: int = 0
    comm_fallbacks: int = 0
    kfac_stale_fallbacks: int = 0
    kfac_staleness: dict[str, int] = field(default_factory=dict)
    faults_injected: int = 0
    fault_delay_seconds: float = 0.0
    #: the unified :class:`repro.obs.MetricsRegistry` snapshot the scalar
    #: ledger fields above are rebuilt from — the one collection point for
    #: counters that used to live only on World/GradScaler/FaultPlan
    metrics: dict = field(default_factory=dict)

    @property
    def final_val_accuracy(self) -> float:
        accs = [e.val_accuracy for e in self.epochs if e.val_accuracy is not None]
        if not accs:
            raise ValueError("no validation accuracy recorded")
        return accs[-1]

    @property
    def best_val_accuracy(self) -> float:
        accs = [e.val_accuracy for e in self.epochs if e.val_accuracy is not None]
        if not accs:
            raise ValueError("no validation accuracy recorded")
        return max(accs)

    def epochs_to_accuracy(self, target: float) -> int | None:
        """First epoch whose validation accuracy reaches ``target`` (or None)."""
        for e in self.epochs:
            if e.val_accuracy is not None and e.val_accuracy >= target:
                return e.epoch
        return None

    def accuracy_curve(self) -> tuple[list[int], list[float]]:
        xs = [e.epoch for e in self.epochs if e.val_accuracy is not None]
        ys = [e.val_accuracy for e in self.epochs if e.val_accuracy is not None]
        return xs, ys


class DataParallelTrainer:
    """Synchronous data-parallel SGD (optionally K-FAC-preconditioned).

    Example
    -------
    >>> import numpy as np
    >>> from repro.nn import Linear, Sequential
    >>> from repro.parallel.trainer import DataParallelTrainer, TrainerConfig
    >>> rng = np.random.default_rng(0)
    >>> x = rng.normal(size=(32, 4)).astype(np.float32)
    >>> y = (x.sum(axis=1) > 0).astype(np.int64)
    >>> trainer = DataParallelTrainer(
    ...     model_factory=lambda r: Sequential(Linear(4, 2, rng=r)),
    ...     train_x=x, train_y=y, val_x=x[:8], val_y=y[:8],
    ...     config=TrainerConfig(world_size=2, batch_size=8, epochs=1),
    ... )
    >>> history = trainer.train()
    >>> history.total_iterations
    2
    >>> "grad_allreduce" in history.comm_bytes
    True
    """

    def __init__(
        self,
        model_factory: Callable[[np.random.Generator], Module],
        train_x: np.ndarray,
        train_y: np.ndarray,
        val_x: np.ndarray,
        val_y: np.ndarray,
        config: TrainerConfig,
        world: World | None = None,
    ) -> None:
        self.config = config
        self.world = world if world is not None else World(config.world_size)
        if self.world.size != config.world_size:
            raise ValueError(
                f"world size {self.world.size} != config world_size {config.world_size}"
            )
        if config.fault_plan is not None:
            self.world.fault_plan = config.fault_plan
        # one tracer shared by the world's collectives, the schedulers, and
        # the trainer's phase loop; the null tracer records nothing
        self.tracer = config.tracer if config.tracer is not None else NULL_TRACER
        self.world.tracer = self.tracer
        self.train_x, self.train_y = train_x, train_y
        self.val_x, self.val_y = val_x, val_y

        # identical initial weights on every replica: same init stream,
        # semantically equivalent to hvd.broadcast_parameters from rank 0
        self.replicas: list[Module] = [
            model_factory(np.random.default_rng(config.seed)) for _ in range(config.world_size)
        ]
        self.optimizers: list[Optimizer] = [
            SGD(
                m.parameters(),
                lr=config.lr_schedule(0.0),
                momentum=config.momentum,
                weight_decay=config.weight_decay,
            )
            for m in self.replicas
        ]
        self.losses = [
            CrossEntropyLoss(config.label_smoothing) for _ in range(config.world_size)
        ]
        self.policy = resolve_policy(config.precision)
        # one scaler shared by every replica: the overflow verdict is taken
        # on allreduced (identical) gradients, so all ranks skip in lockstep
        self.grad_scaler = (
            config.grad_scaler
            if config.grad_scaler is not None
            else GradScaler(enabled=self.policy.loss_scaling)
        )
        self.kfacs: list[KFAC] | None = None
        self.kfac_controller: PhaseController | None = None
        self.kfac_schedulers: list[object] | None = None
        if config.kfac is not None:
            kfac_hp = config.kfac
            if self.policy.comm_dtype is not None and kfac_hp.comm_dtype is None:
                # the policy's wire precision extends to factor comm unless
                # the user pinned comm_dtype explicitly
                kfac_hp = replace(kfac_hp, comm_dtype=self.policy.comm_dtype)
            self.kfacs = [
                KFAC(
                    m,
                    rank=r,
                    world_size=config.world_size,
                    hyper=kfac_hp,
                    grad_scaler=self.grad_scaler,
                )
                for r, m in enumerate(self.replicas)
            ]
            for k in self.kfacs:
                k.tracer = self.tracer
            self.kfac_controller = PhaseController(
                self.kfacs, self.world, retry_policy=config.retry_policy
            )
            if config.kfac_scheduler_factory is not None:
                self.kfac_schedulers = [
                    config.kfac_scheduler_factory(k) for k in self.kfacs
                ]
        self.samplers = [
            ShardedIndexSampler(len(train_x), config.world_size, r, seed=config.seed)
            for r in range(config.world_size)
        ]
        self._param_names = [n for n, _ in self.replicas[0].named_parameters()]
        # one persistent gradient fusion buffer for the whole run:
        # capacity-respecting flushes carry across iterations instead of
        # the buffer being rebuilt every iteration
        self._grad_fusion = FusionBuffer(
            self.world,
            capacity_bytes=config.fusion_capacity_bytes,
            op="average",
            phase="grad_allreduce",
            codec=self.policy.comm_dtype,
        )
        self.stopwatches = {
            name: Stopwatch() for name in ("io", "forward", "backward", "exchange", "update")
        }
        # resume cursor (advanced by load_checkpoint and by train()):
        # train() continues from this epoch/step instead of a cold start
        self._start_epoch = 0
        self._epochs_done = 0
        self._global_step = 0

    # ------------------------------------------------------------------
    def _global_iterations_per_epoch(self) -> int:
        shard = (len(self.train_x) + self.config.world_size - 1) // self.config.world_size
        return (shard + self.config.batch_size - 1) // self.config.batch_size

    @contextmanager
    def _phase(self, name: str, **attrs: object) -> Iterator[None]:
        """Time one Fig. 1 phase, recording a trace span when tracing is on.

        The span carries simulated duration 0.0 — wall time lives in the
        span's wall fields — so phase tracing never perturbs the per-rank
        simulated clocks the communication spans advance.
        """
        sw = self.stopwatches[name]
        before = sw.total
        with sw:
            yield
        if self.tracer.enabled:
            self.tracer.span(
                f"phase:{name}",
                "phase",
                0,
                duration=0.0,
                attrs={"step": self.world.current_step, **attrs},
                wall_seconds=sw.total - before,
            )

    def _exchange_gradients(self) -> None:
        """Fused gradient allreduce (Fig. 1 step X / Horovod fusion buffer).

        Uses the trainer's persistent fusion buffer: capacity-triggered
        flushes fire mid-add exactly as in a real Horovod cycle, and the
        trailing flush drains the remainder before the optimizer step.
        """
        fusion = self._grad_fusion
        per_rank_params = [dict(m.named_parameters()) for m in self.replicas]
        for name in self._param_names:
            fusion.add(name, [per_rank_params[r][name].grad for r in range(self.world.size)])
        fusion.flush()
        for name in self._param_names:
            reduced = fusion.pop(name)
            for r in range(self.world.size):
                per_rank_params[r][name].grad[...] = reduced[r]

    def train_iteration(self, batches: list[tuple[np.ndarray, np.ndarray]], lr: float) -> float:
        """Run one synchronous iteration; returns the mean local loss.

        Under a half-precision policy the forward/backward pass runs in the
        policy's compute dtype (autocast), the backward seed is multiplied
        by the dynamic loss scale, and — after the (possibly compressed)
        gradient exchange — gradients are unscaled and checked: any inf/NaN
        skips *both* the K-FAC preconditioning and the optimizer step and
        backs the scale off (skip-step-and-rescale).
        """
        cfg = self.config
        scaler = self.grad_scaler
        local_losses = []
        # scaled backward passes overflow by design while the scale probes
        # its ceiling; inf/nan is detected after the exchange, not warned
        overflow_ok = (
            np.errstate(invalid="ignore", over="ignore")
            if scaler.enabled
            else np.errstate()
        )
        with self.policy.autocast(), overflow_ok:
            for r in range(cfg.world_size):
                x, y = batches[r]
                with self._phase("forward", replica=r):
                    self.optimizers[r].zero_grad()
                    logits = self.replicas[r](x)
                    loss_val = self.losses[r](logits, y)
                with self._phase("backward", replica=r):
                    seed = scaler.scale_grad(self.losses[r].backward())
                    self.replicas[r].backward(seed)
                local_losses.append(loss_val)
        with self._phase("exchange"):
            self._exchange_gradients()
        with self._phase("update"):
            if scaler.enabled:
                found_inf = False
                for r in range(cfg.world_size):
                    found = scaler.unscale_(
                        p.grad for p in self.replicas[r].parameters()
                    )
                    if r == 0:
                        found_inf = found  # grads identical across ranks
                prev_scale = scaler.scale
                scaler.update(found_inf)
                if scaler.scale != prev_scale:
                    # fusion-buffer EF residuals are banked in *scaled*
                    # gradient units; convert them to the new scale
                    self._grad_fusion.rescale_residuals(scaler.scale / prev_scale)
                if found_inf:
                    # overflow: skip preconditioning and update, rescale
                    return float(np.mean(local_losses))
            if self.kfac_controller is not None:
                assert self.kfacs is not None
                for k in self.kfacs:
                    k.lr = lr
                self.kfac_controller.step()
            for opt in self.optimizers:
                opt.lr = lr
                opt.step()
        return float(np.mean(local_losses))

    def evaluate(self, batch_size: int = 256) -> float:
        """Top-1 accuracy of the rank-0 replica on the validation set."""
        model = self.replicas[0]
        model.eval()
        correct = 0.0
        total = 0
        for lo in range(0, len(self.val_x), batch_size):
            x = self.val_x[lo : lo + batch_size]
            y = self.val_y[lo : lo + batch_size]
            logits = model(x)
            correct += topk_accuracy(logits, y, k=1) * len(y)
            total += len(y)
        model.train()
        return correct / total

    def train(self, verbose: bool = False) -> TrainingHistory:
        """Run the configured number of epochs; returns the history."""
        cfg = self.config
        history = TrainingHistory()
        iters_per_epoch = self._global_iterations_per_epoch()
        global_step = self._global_step
        for epoch in range(self._start_epoch, cfg.epochs):
            if self.kfac_schedulers is not None:
                for s in self.kfac_schedulers:
                    s.step(epoch)  # type: ignore[attr-defined]
            epoch_losses = []
            shard_batches: list[list[tuple[np.ndarray, np.ndarray]]] = []
            with self._phase("io", epoch=epoch):
                for r in range(cfg.world_size):
                    self.samplers[r].set_epoch(epoch)
                    idx = self.samplers[r].indices()
                    shard_batches.append(
                        list(
                            batch_iterator(
                                self.train_x, self.train_y, idx, cfg.batch_size
                            )
                        )
                    )
            for it in range(iters_per_epoch):
                frac_epoch = epoch + it / iters_per_epoch
                lr = cfg.lr_schedule(frac_epoch)
                batches = [shard_batches[r][it] for r in range(cfg.world_size)]
                self.world.begin_step(global_step)  # fault plan step cursor
                epoch_losses.append(self.train_iteration(batches, lr))
                global_step += 1
                self._global_step = global_step
            val_acc = None
            if (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
                val_acc = self.evaluate()
            stats = EpochStats(
                epoch=epoch,
                train_loss=float(np.mean(epoch_losses)),
                val_accuracy=val_acc,
                lr=lr,
                iterations=iters_per_epoch,
            )
            history.epochs.append(stats)
            self._epochs_done = epoch + 1
            if verbose:
                acc_str = f"{val_acc:.4f}" if val_acc is not None else "-"
                print(
                    f"epoch {epoch:3d}  loss {stats.train_loss:.4f}  "
                    f"val_acc {acc_str}  lr {lr:.4f}"
                )
        history.total_iterations = global_step
        history.phase_seconds = {k: sw.total for k, sw in self.stopwatches.items()}
        history.grad_fusion_flushes = self._grad_fusion.flush_count
        history.precision = self.policy.name
        # unified registry pull: the comm and scalar ledger fields below
        # are read back out of the registry so history and metrics cannot
        # diverge
        registry = MetricsRegistry()
        registry.collect_training_run(self)
        history.metrics = registry.snapshot()
        history.comm_seconds = registry.gauge("comm.exposed_seconds").by("phase")
        hidden = registry.gauge("comm.hidden_seconds").by("phase")
        history.comm_hidden_seconds = {p: h for p, h in hidden.items() if h > 0.0}
        history.comm_task_profile = task_overlap_profile(history.comm_seconds, hidden)
        history.comm_bytes = registry.gauge("comm.bytes").by("phase")
        history.amp_skipped_steps = int(
            registry.counter("amp.steps_skipped").total()
        )
        history.final_loss_scale = registry.gauge("amp.loss_scale").value()
        if self.kfacs is not None:
            kfac = self.kfacs[0]
            history.kfac_strategy = kfac.hp.strategy
            history.grad_worker_frac = kfac.hp.grad_worker_frac
            history.grad_worker_count = kfac.grad_worker_count
            # staleness is tracked per replica (group shares are noted by
            # members only): surface the worst counter per factor
            history.kfac_stale_fallbacks = int(
                max(registry.counter("kfac.stale_fallbacks").snapshot().values())
            )
            for k in self.kfacs:
                for key, count in k.staleness.items():
                    if count > history.kfac_staleness.get(key, 0):
                        history.kfac_staleness[key] = count
        if self.kfac_controller is not None:
            history.comm_retries = int(registry.counter("comm.retries").total())
            history.comm_fallbacks = int(
                registry.counter("comm.fallbacks").total()
            )
        if self.world.fault_plan is not None:
            history.faults_injected = int(
                registry.counter("faults.injected").total()
            )
            history.fault_delay_seconds = registry.gauge(
                "faults.delay_seconds"
            ).value()
        return history

    # ------------------------------------------------------------------
    # elastic checkpointing
    # ------------------------------------------------------------------
    def save_checkpoint(self, path: str) -> None:
        """Write a world-size-portable checkpoint of the current state.

        The K-FAC bundle is gathered across all replicas
        (:func:`repro.elastic.gather_state_dict` with ``peers=``), so a
        run trained here at ``P`` ranks can resume in a trainer built for
        a *different* world size or ``grad_worker_frac`` — model params,
        optimizer slots, loss scale, and the step/epoch cursor included.
        """
        from repro.elastic import Checkpoint, gather_state_dict

        kfac_state = None
        if self.kfacs is not None:
            kfac_state = gather_state_dict(self.kfacs[0], peers=self.kfacs)
        ckpt = Checkpoint(path)
        payload = ckpt.capture(
            model=self.replicas[0],
            optimizer=self.optimizers[0],
            kfac_state=kfac_state,
            grad_scaler=self.grad_scaler,
            step=self._global_step,
            epoch=self._epochs_done,
        )
        ckpt.save(payload)

    def load_checkpoint(self, path: str, strict: bool = True) -> int:
        """Resume from a checkpoint written by :meth:`save_checkpoint`.

        Every replica hydrates model + optimizer state; each replica's
        K-FAC redistributes the portable bundle for *its own* rank under
        the *current* placement; the shared ``GradScaler`` is restored
        once.  ``train()`` then continues from the saved epoch.  Returns
        the restored global step.
        """
        from repro.elastic import Checkpoint

        payload = Checkpoint(path).load()
        for r in range(self.config.world_size):
            if payload["model"] is not None:
                self.replicas[r].load_state_dict(payload["model"])
            if payload["optimizer"] is not None:
                self.optimizers[r].load_state_dict(payload["optimizer"])
        if self.kfacs is not None and payload["kfac"] is not None:
            for k in self.kfacs:
                k.load_state_dict(payload["kfac"], strict=strict)
        if payload["grad_scaler"] is not None:
            self.grad_scaler.load_state_dict(payload["grad_scaler"])
        self._start_epoch = int(payload["epoch"])
        self._epochs_done = int(payload["epoch"])
        self._global_step = int(payload["step"])
        return self._global_step
