"""The distributed K-FAC gradient preconditioner (paper Algorithm 1).

``KFAC`` attaches hooks to every supported layer of a model, maintains
running-average Kronecker factors, and — on ``step()`` — rewrites
``param.grad`` in place with the preconditioned gradient so that any
standard optimizer can apply the update (paper Listing 1).

Two distribution strategies (§VI-C3) are implemented behind one code path:

- ``COMM_OPT`` (the paper's **K-FAC-opt**): each *factor* is assigned to a
  worker round-robin; workers eigendecompose only their assigned factors;
  decompositions are allgathered; every worker preconditions every layer
  locally.  Iterations without a K-FAC update need **no communication
  beyond the ordinary gradient allreduce**.

- ``LAYER_WISE`` (the paper's **K-FAC-lw**, the scheme of Osawa et al.):
  each *layer* is assigned to a worker, which computes both of its
  eigendecompositions *and* its preconditioned gradient; the preconditioned
  gradients are then allgathered — on **every** iteration, since only the
  owner holds the layer's second-order state.

The step logic is a generator speaking the launch/wait protocol of
:mod:`repro.core.comm_ops` (every collective is a launch plus a wait);
drivers in :mod:`repro.core.distributed` bind it to a world, and a world
of one yields nothing.  Counters (``steps``, update frequencies,
captures) follow the reference implementation: factors are
captured/updated every ``fac_update_freq`` steps and second-order state
every ``kfac_update_freq`` steps, with ``fac_update_freq`` typically 10x
more frequent (§V-C).

Every strategy executes through one dependency-graph scheduler
(:mod:`repro.sched`): the step is planned as per-layer tasks
(``FactorComm -> Eig -> EigShare -> Precondition -> GradShare``) and a
single :class:`repro.sched.executor.GraphExecutor` walks the schedule.
``scheduler="sync"`` (default) waits every collective as soon as it is
launched; ``scheduler="graph"`` pipelines the step SPD-KFAC style —
bucketed asynchronous factor allreduces, eigenbasis shares and gradient
broadcasts all overlapping local second-order compute.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from typing import Any, Generator, Sequence

import numpy as np

from repro.approx.adaptive import AdaptiveDamping, DriftTrigger
from repro.approx.blocks import plan_block_bounds
from repro.comm.compression import ErrorFeedback, get_codec
from repro.comm.faults import StaleEigenbasisError
from repro.comm.fusion import tri_len
from repro.core.assignment import (
    BlockMeta,
    FactorMeta,
    GroupPlacement,
    build_group_placement,
    greedy_balanced_assignment,
    layer_wise_assignment,
    plan_block_metas,
    round_robin_assignment,
)
from repro.core.comm_ops import unpack_arrays
from repro.core.inverse import FactorEig
from repro.core.layers import KFACLayer, make_kfac_layer
from repro.nn.module import Module
from repro.obs.tracer import NULL_TRACER
from repro.utils.logging import Logger

__all__ = ["KFAC", "KFACHyperParams", "COMM_OPT", "LAYER_WISE", "HYBRID"]

COMM_OPT = "comm-opt"
LAYER_WISE = "layer-wise"
HYBRID = "hybrid"


@dataclass
class KFACHyperParams:
    """Hyper-parameters of the preconditioner (defaults follow the paper).

    Example
    -------
    >>> from repro.core.preconditioner import HYBRID, KFACHyperParams
    >>> hp = KFACHyperParams(kfac_update_freq=100, grad_worker_frac=0.5)
    >>> hp.strategy == HYBRID      # the fraction selects the hybrid placement
    True

    Attributes
    ----------
    lr:
        Learning rate used by the Eq. 18 scaling (kept in sync with the
        wrapped optimizer by the trainer).
    damping:
        Tikhonov damping ``gamma`` (paper uses 0.001–0.003).
    factor_decay:
        Running-average decay on the old factor value (paper ``1 - xi``).
    kl_clip:
        Eq. 18 constant ``kappa``.
    fac_update_freq:
        Interval (steps) between factor recomputation + factor allreduce.
    kfac_update_freq:
        Interval (steps) between eigendecomposition refreshes; the paper's
        *K-FAC update frequency* knob (Table III).
    use_eigen_decomp:
        Eigendecomposition path (True, Eqs. 13–15) or explicit factored
        inverse (False, Eq. 11) — the Table I comparison.
    strategy:
        ``COMM_OPT``, ``LAYER_WISE``, or ``HYBRID`` (selected implicitly
        by setting ``grad_worker_frac``).
    grad_worker_frac:
        KAISA-style gradient-worker fraction ``f`` (arXiv:2107.01739):
        each layer gets a group of ``max(1, round(f * P))`` ranks that
        hold its eigendecompositions (shared by *group* allgather rather
        than world allgather) and compute the preconditioned gradient
        locally; everyone else receives only the final preconditioned
        gradient via a group-rooted broadcast.  ``f = 1/P`` recovers
        ``LAYER_WISE``, ``f = 1`` recovers ``COMM_OPT`` (trajectories
        bit-match both endpoints); intermediate values trade per-rank
        eigenbasis memory against per-iteration broadcast volume.
        Setting this switches ``strategy`` to ``HYBRID``.
    assignment:
        ``"round_robin"`` (paper) or ``"greedy"`` (the §VI-C4 LPT policy).
    skip_layers:
        Layer-name substrings to exclude from preconditioning.  Entries
        must be non-empty (an empty string is a substring of *every* name
        and would silently skip the whole model).
    scheduler:
        ``"sync"`` (default) — the task-graph executor waits every
        collective as soon as it launches it; ``"graph"`` —
        SPD-KFAC-style pipelined execution: bucketed asynchronous factor
        allreduces overlapped with local eigendecompositions, and
        eigenbasis shares / gradient broadcasts scheduled as ordinary
        graph nodes that overlap the remaining factor buckets.  Numerically equivalent; only the
        exposed-communication accounting changes.
    bucket_bytes:
        Pipeline chunk size (per-bucket payload cap) for
        ``scheduler="graph"``.  ``None`` (default) lets the planner pick
        it from the :mod:`repro.comm.costmodel` rates
        (:func:`repro.sched.planner.choose_bucket_bytes`).
    symmetric_comm:
        Exchange each ``d x d`` factor as its ``d*(d+1)/2``-element upper
        triangle (Osawa et al. 2019), nearly halving factor-stage bytes on
        both the synchronous and pipelined paths.  Lossless: the syrk Gram
        kernel makes factors exactly symmetric, and averaging triangles
        then mirroring is bit-identical to averaging full matrices.
    comm_dtype:
        Wire precision of the factor allreduce: ``None`` (dtype-preserving,
        the default), ``"fp16"`` or ``"bf16"``.  Compressed transport uses
        fp32 reduction accumulators and per-factor error-feedback
        residuals, halves factor-stage bytes *again* on top of
        ``symmetric_comm``, and composes with both the synchronous and
        pipelined routes.  Lossy (unlike ``symmetric_comm``) but bounded:
        the EMA absorbs the quantization noise and the residuals re-inject
        it, so trajectories track the full-precision run.
    max_eig_staleness:
        Graceful-degradation bound: how many *consecutive* failed
        second-order refreshes (factor exchange or eigenbasis share lost
        past the driver's retry budget) a factor may absorb by
        preconditioning with its last-known eigenbasis before the step
        hard-fails with :class:`repro.comm.faults.StaleEigenbasisError`.
        With ``drift_tol`` set it doubles as the drift trigger's hard
        refresh budget: a basis may skip at most this many refresh
        candidates, however small its drift.
    diag_blocks:
        Block-diagonal factor approximation (:mod:`repro.approx`): the
        *widest* factor in the model is partitioned into this many
        diagonal blocks, and every other factor into proportionally
        fewer (same target block edge; factors narrower than one block
        stay exact).  Each block is eigendecomposed, assigned, and
        communicated independently — finer Eig/EigShare tasks for the
        graph scheduler, ``~k^2``-fold cheaper eigs on the widest
        layers, and block-triangle-only factor payloads.  ``1``
        (default) is the exact path, bit-identical to the seed code.
        Requires ``use_eigen_decomp=True`` when ``> 1``.
    diag_warmup:
        Number of leading *second-order updates* that use exact (full
        factor) eigendecompositions before block approximation engages
        — early steps benefit from exact curvature while the factors
        are still moving fast.
    drift_tol:
        Staleness-tolerant eigenbases: replace the fixed
        ``kfac_update_freq`` refresh schedule with a drift trigger.  On
        every factor-update step, refresh the eigendecompositions iff
        the relative Frobenius drift of any factor (or block) from the
        snapshot it was last decomposed in exceeds this tolerance — or
        a basis has exhausted its ``max_eig_staleness`` skip budget, or
        has no basis yet (step 0).  ``None`` (default) keeps the fixed
        schedule.  Decisions are computed from post-allreduce factor
        state, so every rank decides identically in lockstep.
    adapt_damping:
        Levenberg–Marquardt-style adaptive damping driven by the Eq. 18
        KL-clip statistic (:class:`repro.approx.adaptive.AdaptiveDamping`):
        persistent clipping grows ``damping``, persistently unclipped
        steps decay it toward its floor.  Lockstep across ranks (the
        statistic is computed from already-averaged gradients).
    """

    lr: float = 0.1
    damping: float = 0.003
    factor_decay: float = 0.95
    kl_clip: float = 1e-3
    fac_update_freq: int = 1
    kfac_update_freq: int = 10
    use_eigen_decomp: bool = True
    strategy: str = COMM_OPT
    grad_worker_frac: float | None = None
    assignment: str = "round_robin"
    skip_layers: tuple[str, ...] = ()
    scheduler: str = "sync"
    bucket_bytes: int | None = None
    symmetric_comm: bool = True
    comm_dtype: str | None = None
    max_eig_staleness: int = 3
    diag_blocks: int = 1
    diag_warmup: int = 0
    drift_tol: float | None = None
    adapt_damping: bool = False

    def __post_init__(self) -> None:
        if self.comm_dtype in ("fp32", "none"):
            self.comm_dtype = None
        if self.comm_dtype not in (None, "fp16", "bf16"):
            raise ValueError(
                f"comm_dtype must be None, 'fp16' or 'bf16', got {self.comm_dtype!r}"
            )
        if self.damping <= 0:
            raise ValueError(f"damping must be positive, got {self.damping}")
        if not 0 <= self.factor_decay < 1:
            raise ValueError(f"factor_decay must be in [0,1), got {self.factor_decay}")
        if self.fac_update_freq < 1 or self.kfac_update_freq < 1:
            raise ValueError("update frequencies must be >= 1")
        if self.grad_worker_frac is not None:
            if not 0.0 < self.grad_worker_frac <= 1.0:
                raise ValueError(
                    f"grad_worker_frac must be in (0, 1], got {self.grad_worker_frac}"
                )
            if self.strategy == LAYER_WISE:
                raise ValueError(
                    "grad_worker_frac generalizes the placement spectrum; "
                    "LAYER_WISE is its f=1/P endpoint — drop strategy= and "
                    "pick the fraction instead"
                )
            self.strategy = HYBRID
        elif self.strategy == HYBRID:
            raise ValueError("strategy=HYBRID requires grad_worker_frac to be set")
        if self.strategy not in (COMM_OPT, LAYER_WISE, HYBRID):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.assignment not in ("round_robin", "greedy"):
            raise ValueError(f"unknown assignment {self.assignment!r}")
        for entry in self.skip_layers:
            if not isinstance(entry, str) or not entry:
                raise ValueError(
                    f"skip_layers entries must be non-empty strings, got {entry!r} "
                    "(an empty string matches every layer name, excluding the "
                    "whole model from K-FAC)"
                )
        if self.scheduler not in ("sync", "graph"):
            raise ValueError(
                f"scheduler must be 'sync' or 'graph', got {self.scheduler!r}"
            )
        if self.bucket_bytes is not None and self.bucket_bytes <= 0:
            raise ValueError(f"bucket_bytes must be positive, got {self.bucket_bytes}")
        if not isinstance(self.diag_blocks, int) or self.diag_blocks < 1:
            raise ValueError(f"diag_blocks must be an int >= 1, got {self.diag_blocks!r}")
        if self.diag_blocks > 1 and not self.use_eigen_decomp:
            raise ValueError(
                "diag_blocks > 1 requires the eigendecomposition path "
                "(use_eigen_decomp=True); the explicit-inverse variant has no "
                "blocked form"
            )
        if not isinstance(self.diag_warmup, int) or self.diag_warmup < 0:
            raise ValueError(f"diag_warmup must be an int >= 0, got {self.diag_warmup!r}")
        if self.drift_tol is not None and not self.drift_tol > 0:
            raise ValueError(f"drift_tol must be > 0 (or None), got {self.drift_tol}")


class KFAC:
    """K-FAC preconditioner for one model replica.

    Parameters
    ----------
    model:
        The replica whose supported layers will be preconditioned.
    rank / world_size:
        This replica's position in the (simulated) worker world.
    hyper:
        Hyper-parameters; keyword overrides are also accepted.
    logger:
        Destination for degraded-path warnings — parameterized layers
        with no K-FAC handler are reported here (and recorded in
        :attr:`unsupported_layers`) instead of being dropped silently.
        Defaults to a ``Logger("kfac")`` on stderr; pass
        ``repro.utils.logging.NULL_LOGGER`` to silence.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.preconditioner import KFAC
    >>> from repro.nn import Linear, ReLU, Sequential
    >>> from repro.nn.loss import CrossEntropyLoss
    >>> model = Sequential(Linear(4, 8), ReLU(), Linear(8, 3))
    >>> kfac = KFAC(model, kfac_update_freq=1, damping=0.01)
    >>> loss_fn = CrossEntropyLoss()
    >>> x = np.random.default_rng(0).normal(size=(8, 4)).astype(np.float32)
    >>> _ = loss_fn(model(x), np.arange(8) % 3)
    >>> _ = model.backward(loss_fn.backward())
    >>> kfac.step()                   # rewrites every param.grad in place
    >>> kfac.steps, kfac.n_second_order_updates
    (1, 1)
    """

    def __init__(
        self,
        model: Module,
        rank: int = 0,
        world_size: int = 1,
        hyper: KFACHyperParams | None = None,
        grad_scaler: Any | None = None,
        logger: Logger | None = None,
        **overrides: Any,
    ) -> None:
        if world_size < 1 or not 0 <= rank < world_size:
            raise ValueError(f"invalid rank/world_size: {rank}/{world_size}")
        base = hyper if hyper is not None else KFACHyperParams()
        if overrides:
            valid = {f.name for f in fields(KFACHyperParams)}
            for key in overrides:
                if key not in valid:
                    raise TypeError(
                        f"KFAC() got an unknown hyper-parameter {key!r}; "
                        f"valid keys: {', '.join(sorted(valid))}"
                    )
            base = KFACHyperParams(
                **{**base.__dict__, **overrides}  # type: ignore[arg-type]
            )
        self.hp = base
        self.model = model
        self.rank = rank
        self.world_size = world_size
        #: AMP loss scaler (see :class:`repro.precision.GradScaler`): when
        #: set, captured output-gradients are divided by the current scale
        #: so ``G`` factors are built from *unscaled* statistics
        self.grad_scaler = grad_scaler
        #: per-factor quantization residuals for compressed factor comm
        codec = get_codec(base.comm_dtype)
        self._comm_ef: ErrorFeedback | None = (
            ErrorFeedback(codec) if codec is not None else None
        )
        self.steps = 0
        # mutable knobs (targets of KFACParamScheduler)
        self.lr = base.lr
        self.damping = base.damping
        self.fac_update_freq = base.fac_update_freq
        self.kfac_update_freq = base.kfac_update_freq

        self.logger = logger if logger is not None else Logger("kfac", stream=sys.stderr)
        self.layers: list[KFACLayer] = []
        self._hook_removers: list = []
        unsupported: list[tuple[str, str]] = []
        for name, module in model.named_modules():
            if any(s in name for s in base.skip_layers):
                continue
            handler = make_kfac_layer(name, module)
            if handler is None:
                if module._parameters:
                    # parameterized but unhandled: the layer trains
                    # first-order only — record and warn, never drop it
                    # silently (the satellite-fixed footgun)
                    unsupported.append((name, type(module).__name__))
                continue
            self.layers.append(handler)
            self._hook_removers.append(
                module.register_forward_hook(self._make_forward_hook(handler))
            )
            self._hook_removers.append(
                module.register_backward_hook(self._make_backward_hook(handler))
            )
        #: parameterized layers K-FAC does not precondition, as
        #: ``(dotted_name, type_name)`` pairs (surfaced by the metrics
        #: registry as the ``kfac.unsupported_layers`` gauge)
        self.unsupported_layers: tuple[tuple[str, str], ...] = tuple(unsupported)
        if self.rank == 0 and unsupported:
            listing = ", ".join(f"{n} ({t})" for n, t in unsupported)
            self.logger.warn(
                f"{len(unsupported)} parameterized layer(s) have no K-FAC "
                f"handler and will train first-order only: {listing}"
            )
        if not self.layers:
            raise ValueError(
                "model has no K-FAC-supported layers "
                "(Linear/Conv2d/Embedding/LayerNorm)"
            )

        self._factor_metas = self._build_factor_metas()
        self._factor_assignment: dict[str, int] = self._assign_factors()
        self._layer_assignment: dict[str, int] = layer_wise_assignment(
            [l.name for l in self.layers], world_size
        )
        #: gradient-worker placement (HYBRID strategy only): per-layer
        #: groups, broadcast roots, and the within-group factor assignment
        self._placement: GroupPlacement | None = None
        self._group_metas: list[tuple[tuple[int, ...], list[FactorMeta]]] = []
        self._bcast_plan: list[tuple[int, list[KFACLayer], tuple[int, ...]]] = []
        if base.strategy == HYBRID:
            assert base.grad_worker_frac is not None
            self._placement = build_group_placement(
                self._factor_metas,
                world_size,
                base.grad_worker_frac,
                policy=base.assignment,
            )
            self._factor_assignment = dict(self._placement.assignment)
            # the placement is immutable, so the per-step structures —
            # factor metas bucketed by group, and the fused (root,
            # participants) broadcast plan — are built once here
            self._group_metas = self._build_group_metas()
            self._bcast_plan = self._build_broadcast_plan()
        # block-diagonal approximation (repro.approx): past diag_warmup
        # second-order updates the unit of assignment, scheduling, and
        # communication becomes the diagonal *block*; these mirror the
        # factor-level structures above and are built once, here
        self._block_bounds: dict[str, tuple[tuple[int, int], ...]] = {}
        self._block_metas: list[BlockMeta] = []
        self._block_assignment: dict[str, int] = {}
        self._group_block_metas: list[tuple[tuple[int, ...], list[BlockMeta]]] = []
        if base.diag_blocks > 1:
            bounds_list = plan_block_bounds(
                [m.dim for m in self._factor_metas], base.diag_blocks
            )
            self._block_bounds = {
                m.key: tuple(b) for m, b in zip(self._factor_metas, bounds_list)
            }
            self._block_metas = plan_block_metas(self._factor_metas, bounds_list)
            if base.strategy == HYBRID:
                assert self._placement is not None
                # same layer->group map as the factor-level placement (groups
                # depend only on the layer list); only the within-group owner
                # of each *block* is re-balanced
                block_placement = build_group_placement(
                    self._block_metas,
                    world_size,
                    base.grad_worker_frac,
                    policy=base.assignment,
                )
                self._block_assignment = dict(block_placement.assignment)
                grouped: dict[tuple[int, ...], list[BlockMeta]] = {}
                for bm in self._block_metas:
                    grouped.setdefault(self._placement.groups[bm.layer], []).append(bm)
                self._group_block_metas = list(grouped.items())
            elif base.assignment == "greedy":
                self._block_assignment = greedy_balanced_assignment(
                    self._block_metas, world_size
                )
            else:
                self._block_assignment = round_robin_assignment(
                    self._block_metas, world_size
                )
        # staleness-tolerant eigenbases: drift-triggered refresh state
        self._drift_trigger: DriftTrigger | None = (
            DriftTrigger(base.drift_tol, base.max_eig_staleness)
            if base.drift_tol is not None
            else None
        )
        #: per-meta factor snapshots taken at each refresh (the state the
        #: current eigenbases were decomposed in), fed to the drift metric
        self._basis_snapshot: dict[str, np.ndarray] = {}
        self.n_drift_refreshes = 0
        self.n_drift_skips = 0
        # adaptive damping fed by the Eq. 18 KL statistic (executor hook)
        self._adaptive_damping: AdaptiveDamping | None = (
            AdaptiveDamping(base.damping) if base.adapt_damping else None
        )
        # instrumentation counters
        self.n_factor_updates = 0
        self.n_second_order_updates = 0
        self.n_eigs_computed_locally = 0
        # span tracing (repro.obs); the executor inherits this recorder
        self.tracer = NULL_TRACER
        # graceful-degradation ledger: consecutive failed refreshes per
        # factor key (reset on the next successful exchange), plus totals
        # for TrainingHistory
        self.staleness: dict[str, int] = {}
        self.n_stale_fallbacks = 0
        self.n_factor_comm_failures = 0
        self.n_eig_share_failures = 0
        #: step plans cached per (update_factors, update_second_order,
        #: blocks_active) — the graph/schedule depend only on static
        #: placement metadata plus which approximation phase is active
        self._plans: dict[tuple[bool, bool, bool], Any] = {}

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def _make_forward_hook(self, handler: KFACLayer):
        def hook(module: Module, inp: np.ndarray, out: np.ndarray) -> None:
            if module.training and self._capture_now:
                handler.save_input(inp)

        return hook

    def _make_backward_hook(self, handler: KFACLayer):
        def hook(module: Module, grad_out: np.ndarray) -> None:
            if module.training and self._capture_now:
                scaler = self.grad_scaler
                if scaler is not None and getattr(scaler, "enabled", True):
                    # undo the loss scale so G sees true gradient statistics
                    grad_out = grad_out / scaler.scale
                handler.save_grad_output(grad_out)

        return hook

    @property
    def _capture_now(self) -> bool:
        """Capture activations/grads on iterations that update factors."""
        return self.steps % self.fac_update_freq == 0

    def remove_hooks(self) -> None:
        """Detach from the model (e.g. before pickling the model)."""
        for remove in self._hook_removers:
            remove()
        self._hook_removers.clear()

    # ------------------------------------------------------------------
    # assignment
    # ------------------------------------------------------------------
    def _build_factor_metas(self) -> list[FactorMeta]:
        metas: list[FactorMeta] = []
        for layer in self.layers:
            metas.append(FactorMeta(layer.name, "A", layer.a_dim))
        for layer in self.layers:
            metas.append(FactorMeta(layer.name, "G", layer.g_dim))
        return metas

    def _assign_factors(self) -> dict[str, int]:
        if self.hp.assignment == "greedy":
            return greedy_balanced_assignment(self._factor_metas, self.world_size)
        return round_robin_assignment(self._factor_metas, self.world_size)

    @property
    def factor_metas(self) -> list[FactorMeta]:
        """All factor identities, in communication order (A's then G's)."""
        return list(self._factor_metas)

    @property
    def factor_assignment(self) -> dict[str, int]:
        """factor key -> owning worker."""
        return dict(self._factor_assignment)

    @property
    def blocks_active(self) -> bool:
        """Is the block-diagonal approximation phase currently engaged?

        True once ``diag_blocks > 1`` and ``diag_warmup`` exact
        second-order updates have completed; from then on plans, wire
        payloads, and Eig/EigShare tasks operate on block metas.
        """
        return (
            self.hp.diag_blocks > 1
            and self.n_second_order_updates >= self.hp.diag_warmup
        )

    def comm_metas(self, blocked: bool) -> "list[FactorMeta] | list[BlockMeta]":
        """The step's comm/eig units: block metas when ``blocked``."""
        return self._block_metas if blocked else self._factor_metas

    def comm_assignment(self, blocked: bool) -> dict[str, int]:
        """meta key -> owning worker, for the step's comm units."""
        return self._block_assignment if blocked else self._factor_assignment

    def _owner_of(self, meta: "FactorMeta | BlockMeta") -> int:
        if isinstance(meta, BlockMeta):
            return self._block_assignment[meta.key]
        return self._factor_assignment[meta.key]

    @property
    def grad_worker_placement(self) -> GroupPlacement | None:
        """Gradient-worker placement metadata (``HYBRID`` strategy only)."""
        return self._placement

    @property
    def grad_worker_count(self) -> int:
        """Ranks holding each layer's eigenbasis (P for COMM_OPT, 1 for LW)."""
        if self._placement is not None:
            return self._placement.group_size
        if self.hp.strategy == LAYER_WISE:
            return 1
        return self.world_size

    def is_grad_worker(self, layer_name: str, rank: int | None = None) -> bool:
        """Does ``rank`` (default: this rank) hold ``layer_name``'s eigenbasis?

        The single placement predicate shared by the executor (who
        preconditions), the portable-checkpoint redistribute-on-load path
        (who hydrates second-order state), and
        :func:`repro.elastic.redistribution_plan` (its pure-metadata
        mirror).
        """
        r = self.rank if rank is None else rank
        if self._placement is not None:
            return self._placement.is_grad_worker(r, layer_name)
        if self.hp.strategy == LAYER_WISE:
            return self._layer_assignment[layer_name] == r
        return True  # COMM_OPT: every rank preconditions every layer

    # ------------------------------------------------------------------
    # graceful degradation (stale-eigenbasis fallback)
    # ------------------------------------------------------------------
    def _has_second_order(self, meta: FactorMeta) -> bool:
        """Does the layer carry last-known second-order state for ``meta``?"""
        layer = self._layer_by_name(meta.layer)
        if self.hp.use_eigen_decomp:
            prior = layer.eig_A if meta.kind == "A" else layer.eig_G
        else:
            prior = layer.inv_A if meta.kind == "A" else layer.inv_G
        return prior is not None

    def _note_factor_comm_failure(self, metas: Sequence[FactorMeta]) -> None:
        """A factor allreduce was lost past the retry budget.

        Ranks keep their *local* running averages for this refresh — the
        owned eigendecompositions still happen (from un-averaged factors)
        and their shares keep all replicas in lockstep, so no staleness
        accrues; the next successful exchange re-averages the histories.
        """
        del metas  # per-bucket granularity not needed: one counter per event
        self.n_factor_comm_failures += 1
        self.n_stale_fallbacks += 1

    def _note_eig_share_failure(self, metas: Sequence[FactorMeta]) -> None:
        """An eigenbasis share was lost past the retry budget.

        *No* rank installs this exchange (the owner included), keeping
        every replica preconditioning with the identical last-known
        eigenbasis.  Consecutive failures accrue per-factor staleness;
        past ``hp.max_eig_staleness`` — or if a factor has no prior state
        at all — the step hard-fails.
        """
        self.n_eig_share_failures += 1
        self.n_stale_fallbacks += 1
        for meta in metas:
            if not self._has_second_order(meta):
                raise StaleEigenbasisError(
                    f"eigenbasis share for {meta.key} failed and the layer has "
                    "no last-known second-order state to fall back to"
                )
            count = self.staleness.get(meta.key, 0) + 1
            self.staleness[meta.key] = count
            if count > self.hp.max_eig_staleness:
                raise StaleEigenbasisError(
                    f"{meta.key} eigenbasis is stale for {count} consecutive "
                    f"refreshes (> max_eig_staleness={self.hp.max_eig_staleness})"
                )

    def _clear_staleness(self, metas: Sequence[FactorMeta]) -> None:
        """A successful second-order exchange resets the counters."""
        for meta in metas:
            self.staleness.pop(meta.key, None)

    # ------------------------------------------------------------------
    # the Algorithm 1 step (generator)
    # ------------------------------------------------------------------
    def step_generator(self) -> Generator[Any, Any, None]:
        """One preconditioning step; yields comm requests, mutates grads.

        Preconditions: forward+backward already ran (hooks captured data on
        factor-update iterations) and gradients are already averaged across
        workers (Listing 1 calls ``optimizer.synchronize()`` first).

        The step is planned as a task graph (:mod:`repro.sched`) and run
        by one :class:`repro.sched.executor.GraphExecutor` for every
        strategy; ``scheduler="graph"`` pipelines the collectives,
        ``"sync"`` waits each one as soon as it is launched.
        """
        # imported here, not at module top: repro.sched.executor imports
        # repro.core submodules, whose package __init__ imports this module
        from repro.sched.executor import GraphExecutor

        update_factors = self.steps % self.fac_update_freq == 0
        # fixed kfac_update_freq schedule, or the drift trigger's verdict
        # (decided *before* this step's EMA fold-in, from post-allreduce
        # factor state — identical on every rank, hence lockstep plans)
        update_second_order = self._refresh_due(update_factors)

        if update_factors:
            # Algorithm 1 step 1: local factors, running averages
            for layer in self.layers:
                layer.update_factors(self.hp.factor_decay)
            self.n_factor_updates += 1

        plan = self.build_plan(update_factors, update_second_order)
        yield from GraphExecutor(self, plan).run()
        if update_second_order:
            self.n_second_order_updates += 1
            self._snapshot_basis_factors()
        self.steps += 1

    def _refresh_due(self, update_factors: bool) -> bool:
        """Should this step refresh the eigendecompositions?

        Without ``drift_tol`` this is the classic fixed schedule
        (``steps % kfac_update_freq == 0``, so step 0 always refreshes).
        With the drift trigger, refresh candidates are factor-update
        steps; the decision refreshes iff any basis is missing, any
        factor (or block) drifted past tolerance since it was last
        decomposed, or any basis has exhausted its ``max_eig_staleness``
        skip budget — the budget binds even when the drift metric says
        "fresh enough".  Skipped candidates accrue per-meta staleness.
        """
        trig = self._drift_trigger
        if trig is None:
            return self.steps % self.kfac_update_freq == 0
        if not update_factors:
            return False
        metas = self.comm_metas(self.blocks_active)
        max_drift = 0.0
        worst_staleness = 0
        has_basis = True
        for meta in metas:
            layer = self._layer_by_name(meta.layer)
            factor = layer.A if meta.kind == "A" else layer.G
            snap = self._basis_snapshot.get(meta.key)
            if factor is None or snap is None or not self._has_second_order(meta):
                has_basis = False
                break
            lo, hi = (meta.lo, meta.hi) if isinstance(meta, BlockMeta) else (0, meta.dim)
            max_drift = max(max_drift, trig.drift(factor[lo:hi, lo:hi], snap))
            worst_staleness = max(worst_staleness, self.staleness.get(meta.key, 0))
        refresh = trig.should_refresh(max_drift, worst_staleness, has_basis)
        if refresh:
            self.n_drift_refreshes += 1
        else:
            self.n_drift_skips += 1
            for meta in metas:
                self.staleness[meta.key] = self.staleness.get(meta.key, 0) + 1
        self.tracer.instant(
            f"refresh:{'go' if refresh else 'skip'}",
            "approx",
            self.rank,
            attrs={
                "step": self.steps,
                "max_drift": round(max_drift, 6),
                "worst_staleness": worst_staleness,
                "has_basis": has_basis,
            },
        )
        return refresh

    def _snapshot_basis_factors(self) -> None:
        """Record the factor state the just-refreshed bases decompose.

        Runs after the executor, so the snapshots hold post-allreduce
        values — identical on every rank, which keeps later drift
        decisions in lockstep.  Keys follow the *next* step's meta
        granularity (the warmup-to-blocked transition therefore reads as
        "no basis" and forces one refresh under the new keys).
        """
        if self._drift_trigger is None:
            return
        self._basis_snapshot.clear()
        for meta in self.comm_metas(self.blocks_active):
            layer = self._layer_by_name(meta.layer)
            factor = layer.A if meta.kind == "A" else layer.G
            if factor is None:  # pragma: no cover - refresh implies factors
                continue
            lo, hi = (meta.lo, meta.hi) if isinstance(meta, BlockMeta) else (0, meta.dim)
            self._basis_snapshot[meta.key] = np.array(factor[lo:hi, lo:hi], copy=True)

    def build_plan(
        self, update_factors: bool = True, update_second_order: bool = True
    ) -> Any:
        """The :class:`repro.sched.planner.StepPlan` for this step shape.

        Cached per ``(update_factors, update_second_order)`` pair — the
        graph, schedule and bucket partition depend only on static
        placement metadata.  ``scheduler="graph"`` plans pipelined
        launch/wait execution for the COMM_OPT and HYBRID strategies;
        ``"sync"`` plans every wait right after its launch.  With
        ``bucket_bytes=None`` the pipeline chunk size comes from the
        cost-model rates (:func:`repro.sched.planner.choose_bucket_bytes`).
        Factors must exist when a factor exchange is planned (the wire
        partition is derived from their dtypes).
        """
        from repro.sched.planner import build_step_plan

        blocked = self.blocks_active
        key = (bool(update_factors), bool(update_second_order), blocked)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        comm_metas = self.comm_metas(blocked)
        pipelined = (
            self.hp.scheduler == "graph"
            and self.world_size > 1
            and self.hp.strategy in (COMM_OPT, HYBRID)
            and update_factors
            and update_second_order
        )
        wire: list[int] | None = None
        if update_factors and self.world_size > 1:
            # per-unit wire bytes (block metas past warmup — only the block
            # triangles ship): triangular packing and compressed transport
            # shrink the payloads the partition actually sees
            codec = get_codec(self.hp.comm_dtype)
            wire = []
            for meta in comm_metas:
                layer = self._layer_by_name(meta.layer)
                factor = layer.A if meta.kind == "A" else layer.G
                assert factor is not None, "plan built before factor update"
                elems = tri_len(meta.dim) if self.hp.symmetric_comm else meta.dim**2
                itemsize = codec.itemsize if codec is not None else factor.dtype.itemsize
                wire.append(elems * itemsize)
        groups: tuple = ()
        bcast_entries: tuple = ()
        if self.hp.strategy == HYBRID:
            index = {m.key: i for i, m in enumerate(comm_metas)}
            group_metas = self._group_block_metas if blocked else self._group_metas
            groups = tuple(
                (grp, [index[m.key] for m in metas]) for grp, metas in group_metas
            )
            bcast_entries = tuple(
                (root, [l.name for l in layers_r])
                for root, layers_r, _ in self._bcast_plan
            )
        plan = build_step_plan(
            strategy=self.hp.strategy,
            world_size=self.world_size,
            factor_metas=comm_metas,
            layer_names=[l.name for l in self.layers],
            groups=groups,
            bcast_entries=bcast_entries,
            wire_nbytes_list=wire,
            bucket_bytes=self.hp.bucket_bytes,
            update_factors=update_factors,
            update_second_order=update_second_order,
            pipelined=pipelined,
            blocked=blocked,
        )
        self._plans[key] = plan
        return plan

    def _compress_factor_tensors(
        self, tensors: list[np.ndarray], metas: "Sequence[FactorMeta | BlockMeta] | None" = None
    ) -> list[np.ndarray]:
        """Quantize factor payloads for compressed transport, with EF.

        A no-op without ``comm_dtype``.  Residuals are keyed by comm unit
        (factor, or block past warmup) so what fp16/bf16 rounds away this
        exchange is re-injected into the next one; the yielded arrays are
        wire-precision fp32 values (the driver's codec round-trips them
        losslessly and charges wire bytes).
        """
        if self._comm_ef is None:
            return tensors
        if metas is None:
            metas = self._factor_metas
        return [self._comm_ef.apply(meta.key, t) for meta, t in zip(metas, tensors)]

    def _install_second_order_chunk(
        self,
        gathered: Sequence[np.ndarray],
        chunk_metas: "Sequence[FactorMeta | BlockMeta]",
    ) -> None:
        """Install one pipeline chunk's gathered second-order payloads."""
        for worker in range(self.world_size):
            metas = [m for m in chunk_metas if self._owner_of(m) == worker]
            shapes: list[tuple[int, ...]] = []
            for meta in metas:
                if self.hp.use_eigen_decomp:
                    shapes.extend([(meta.dim, meta.dim), (meta.dim,)])
                else:
                    shapes.append((meta.dim, meta.dim))
            arrays = unpack_arrays(gathered[worker], shapes)
            idx = 0
            step = 2 if self.hp.use_eigen_decomp else 1
            for meta in metas:
                self._install_factor_state(meta, arrays[idx : idx + step])
                idx += step

    def _install_factor_state(
        self, meta: "FactorMeta | BlockMeta", arrays: Sequence[np.ndarray]
    ) -> None:
        """Install one factor's (or factor block's) payload into its layer.

        Block payloads are *staged*: the layer assembles a
        :class:`repro.approx.blockeig.BlockFactorEig` only once every
        block of the factor has arrived, so a half-shipped refresh never
        preconditions.
        """
        layer = self._layer_by_name(meta.layer)
        if self.hp.use_eigen_decomp:
            eig = FactorEig(Q=arrays[0], lam=arrays[1])
            if isinstance(meta, BlockMeta):
                layer.install_block_eig(
                    meta.kind, meta.block, eig, self._block_bounds[meta.parent_key]
                )
            elif meta.kind == "A":
                layer.eig_A = eig
            else:
                layer.eig_G = eig
        else:
            if meta.kind == "A":
                layer.inv_A = arrays[0]
            else:
                layer.inv_G = arrays[0]

    def _build_group_metas(self) -> list[tuple[tuple[int, ...], list[FactorMeta]]]:
        """Factor metas bucketed by gradient-worker group (stable order)."""
        assert self._placement is not None
        grouped: dict[tuple[int, ...], list[FactorMeta]] = {}
        for meta in self._factor_metas:
            grouped.setdefault(self._placement.groups[meta.layer], []).append(meta)
        return list(grouped.items())

    def _build_broadcast_plan(self) -> list[tuple[int, list[KFACLayer], tuple[int, ...]]]:
        """Fuse per-layer grad broadcasts by (root, participant set).

        With contiguous groups every layer owned by root ``r`` shares the
        same non-member set, so the second stage is at most P broadcasts
        of fused per-root payloads — each spanning ``P - g + 1`` ranks.
        """
        assert self._placement is not None
        plan: dict[tuple[int, tuple[int, ...]], list[KFACLayer]] = {}
        for layer in self.layers:
            grp = self._placement.groups[layer.name]
            if len(grp) >= self.world_size:
                continue  # everyone is a grad worker: nothing to broadcast
            root = grp[0]
            participants = (root,) + tuple(
                r for r in range(self.world_size) if r not in grp
            )
            plan.setdefault((root, participants), []).append(layer)
        return [(root, layers, ranks) for (root, ranks), layers in plan.items()]

    def _layer_by_name(self, name: str) -> KFACLayer:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no K-FAC layer named {name!r}")

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def placement_metadata(self) -> dict:
        """The placement stamp written into every checkpoint.

        Records everything needed to (a) detect a mismatched naive resume
        and (b) re-plan shard ownership when a *portable* bundle (see
        :func:`repro.elastic.gather_state_dict`) is loaded into a
        different world size / ``grad_worker_frac``.
        """
        return {
            "strategy": self.hp.strategy,
            "grad_worker_frac": self.hp.grad_worker_frac,
            "world_size": self.world_size,
            "rank": self.rank,
            "assignment": self.hp.assignment,
            "use_eigen_decomp": self.hp.use_eigen_decomp,
            "symmetric_comm": self.hp.symmetric_comm,
            "comm_dtype": self.hp.comm_dtype,
            # informational (not a naive-resume match key): blocked bases
            # checkpoint as their dense block-diagonal assembly and any
            # diag_blocks run can resume them — the next refresh re-blocks
            "diag_blocks": self.hp.diag_blocks,
        }

    def state_dict(self) -> dict:
        """Serializable snapshot: counters, knobs, factors, second-order state.

        Mirrors the reference implementation's ``KFAC.state_dict`` so
        training can resume mid-run without re-warming the running
        averages.  The snapshot is stamped with :meth:`placement_metadata`
        and ``portable: False`` — it contains only *this rank's* owned
        second-order shards, so :meth:`load_state_dict` rejects it under a
        different world size / placement.  Use
        :func:`repro.elastic.gather_state_dict` for a rank-agnostic bundle
        that resumes anywhere.
        """
        layers: dict[str, dict[str, np.ndarray]] = {}
        for layer in self.layers:
            entry: dict[str, np.ndarray] = {}
            if layer.A is not None:
                entry["A"] = layer.A.copy()
                entry["G"] = layer.G.copy()  # type: ignore[union-attr]
            if layer.eig_A is not None and layer.eig_G is not None:
                entry["eig_A_Q"] = layer.eig_A.Q.copy()
                entry["eig_A_lam"] = layer.eig_A.lam.copy()
                entry["eig_G_Q"] = layer.eig_G.Q.copy()
                entry["eig_G_lam"] = layer.eig_G.lam.copy()
            if layer.inv_A is not None and layer.inv_G is not None:
                entry["inv_A"] = layer.inv_A.copy()
                entry["inv_G"] = layer.inv_G.copy()
            layers[layer.name] = entry
        return {
            "steps": self.steps,
            "lr": self.lr,
            "damping": self.damping,
            "fac_update_freq": self.fac_update_freq,
            "kfac_update_freq": self.kfac_update_freq,
            "layers": layers,
            "placement": self.placement_metadata(),
            "portable": False,
        }

    #: placement fields that must match for a non-portable resume
    _PLACEMENT_MATCH_KEYS = (
        "strategy",
        "grad_worker_frac",
        "world_size",
        "assignment",
        "use_eigen_decomp",
    )

    def load_state_dict(self, state: dict, strict: bool = True) -> None:
        """Restore a snapshot produced by :meth:`state_dict`.

        ``strict=True`` (default) raises ``KeyError`` if the checkpoint
        names a layer this model doesn't have **or** is missing a layer
        this model *does* have (a silent partial restore would train some
        layers from re-warmed factors without warning), and ``ValueError``
        if a non-portable snapshot was taken under a different placement
        (world size, strategy, ``grad_worker_frac``, assignment policy, or
        inverse method).  ``strict=False`` restores the intersection and
        skips the placement check.

        A *portable* bundle (``portable: True``, from
        :func:`repro.elastic.gather_state_dict`) carries every layer's
        complete second-order state; it is redistributed on load — running
        averages hydrate everywhere, eigenbases only where the *current*
        placement makes this rank a gradient worker — so it resumes under
        any world size / ``grad_worker_frac``.
        """
        portable = bool(state.get("portable", False))
        meta = state.get("placement")
        by_name = {layer.name: layer for layer in self.layers}
        unknown = sorted(set(state["layers"]) - set(by_name))
        missing = sorted(set(by_name) - set(state["layers"]))
        if strict and unknown:
            raise KeyError(f"checkpoint has unknown K-FAC layer {unknown[0]!r}")
        if strict and missing:
            raise KeyError(
                f"checkpoint is missing K-FAC layers {missing}; their factors "
                "would silently re-warm from scratch (pass strict=False to "
                "restore the intersection anyway)"
            )
        if strict and not portable and meta is not None:
            current = self.placement_metadata()
            mismatched = [
                key
                for key in self._PLACEMENT_MATCH_KEYS
                if meta.get(key) != current[key]
            ]
            if mismatched:
                detail = ", ".join(
                    f"{k}: checkpoint={meta.get(k)!r} != current={current[k]!r}"
                    for k in mismatched
                )
                raise ValueError(
                    "checkpoint placement does not match this preconditioner "
                    f"({detail}); per-rank snapshots only resume under the "
                    "identical placement — gather a portable bundle with "
                    "repro.elastic.gather_state_dict() to resume across world "
                    "sizes, or pass strict=False"
                )
        self.steps = int(state["steps"])
        self.lr = float(state["lr"])
        self.damping = float(state["damping"])
        self.fac_update_freq = int(state["fac_update_freq"])
        self.kfac_update_freq = int(state["kfac_update_freq"])
        for name, entry in state["layers"].items():
            if name not in by_name:
                continue  # tolerated under strict=False
            layer = by_name[name]
            if "A" in entry:
                layer.A = entry["A"].copy()
                layer.G = entry["G"].copy()
            # portable bundles are redistributed: second-order state
            # hydrates only where the *current* placement wants it
            if portable and not self.is_grad_worker(name):
                continue
            if "eig_A_Q" in entry:
                layer.eig_A = FactorEig(entry["eig_A_Q"].copy(), entry["eig_A_lam"].copy())
                layer.eig_G = FactorEig(entry["eig_G_Q"].copy(), entry["eig_G_lam"].copy())
            if "inv_A" in entry:
                layer.inv_A = entry["inv_A"].copy()
                layer.inv_G = entry["inv_G"].copy()

    # ------------------------------------------------------------------
    # convenience: run the step with no communication (world of one)
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Single-worker step (Listing 1's ``preconditioner.step()``).

        A world of one has nobody to talk to, so the step generator must
        finish without yielding a single comm request.
        """
        if self.world_size != 1:
            raise RuntimeError(
                "step() is the single-worker entry point; use a driver from "
                "repro.core.distributed for multi-worker execution"
            )
        for req in self.step_generator():
            raise RuntimeError(f"world of one yielded a comm request: {type(req).__name__}")
