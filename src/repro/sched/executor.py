"""Graph executor: run a :class:`repro.sched.planner.StepPlan` on a KFAC.

One executor replaces the three hand-written update pipelines the
preconditioner used to carry (synchronous, pipelined COMM_OPT, pipelined
HYBRID).  It walks the plan's schedule and turns each task into the
launch/wait step-generator protocol of :mod:`repro.core.comm_ops`.
Every collective is launched the same way (:meth:`GraphExecutor._collective`);
only where its wait goes differs:

- synchronous plans wait each launch at once with no overlap budget, in
  exactly the order the retired pipelines issued their blocking
  requests;
- pipelined plans defer each wait until a dependent task needs the data,
  crediting the *deterministic* simulated compute performed in between
  as overlap — so factor buckets, the eigenbasis shares (world
  allgather, or per-group allgathers under the gradient-worker-fraction
  placement) and the final gradient broadcasts all hide behind local
  eigendecomposition/preconditioning work.

Numerics never depend on the interleaving: the same reductions, the same
decompositions, the same packing — only the exposed-communication
accounting changes between ``scheduler="sync"`` and ``scheduler="graph"``.
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

import numpy as np

from repro.comm.engine import (
    estimate_precondition_seconds,
    estimate_second_order_seconds,
)
from repro.approx.blockeig import block_eigendecompose
from repro.comm.faults import CollectiveFailed
from repro.comm.fusion import tri_pack, tri_unpack
from repro.core.clipping import kl_clip_factor
from repro.core.comm_ops import (
    AllGatherLaunch,
    AllReduceLaunch,
    GroupAllGatherLaunch,
    GroupBroadcastLaunch,
    WaitRequest,
    pack_arrays,
    pack_symmetric,
    unpack_arrays,
)
from repro.core.inverse import eigendecompose, explicit_damped_inverse
from repro.obs.tracer import NULL_TRACER

__all__ = ["GraphExecutor"]


class GraphExecutor:
    """Execute one planned K-FAC update step over the comm protocol.

    ``kfac`` is the :class:`repro.core.preconditioner.KFAC` instance whose
    layers/assignment the plan was derived from; :meth:`run` is a
    generator speaking the same request protocol as
    ``KFAC.step_generator`` (drivers cannot tell the difference).

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.preconditioner import KFAC
    >>> from repro.nn import Linear, Sequential
    >>> from repro.nn.loss import CrossEntropyLoss
    >>> from repro.sched.executor import GraphExecutor
    >>> model = Sequential(Linear(4, 3))
    >>> kfac = KFAC(model, kfac_update_freq=1, damping=0.01)
    >>> loss_fn = CrossEntropyLoss()
    >>> x = np.random.default_rng(0).normal(size=(6, 4)).astype(np.float32)
    >>> _ = loss_fn(model(x), np.arange(6) % 3)
    >>> _ = model.backward(loss_fn.backward())
    >>> for layer in kfac.layers:
    ...     layer.update_factors(kfac.hp.factor_decay)
    >>> plan = kfac.build_plan(update_factors=True, update_second_order=True)
    >>> list(GraphExecutor(kfac, plan).run())   # world of one: no requests
    []
    >>> kfac.layers[0].eig_A is not None
    True
    """

    def __init__(self, kfac: Any, plan: Any) -> None:
        self.kfac = kfac
        self.plan = plan
        #: launched-but-unwaited collectives: tag -> result installer,
        #: in launch order (the order the epilogue drains them)
        self._pending: dict[str, Any] = {}
        self._task_tag: dict[str, str] = {}
        #: simulated compute seconds since the last wait (overlap budget)
        self._pending_compute = 0.0
        #: this rank's freshly decomposed second-order payloads, by factor key
        self._computed: dict[str, list[np.ndarray]] = {}
        self._pre: dict[str, np.ndarray] = {}
        self._raw: dict[str, np.ndarray] = {}
        self._wire: list[np.ndarray] | None = None
        self._transport_dtype: np.dtype | None = None
        #: blocked plans (diag_blocks past warmup) resolve meta indices
        #: against the preconditioner's block metas/assignment — every
        #: task below works on either granularity through these two views
        self._blocked: bool = bool(getattr(plan, "blocked", False))
        self._metas = kfac.comm_metas(self._blocked)
        self._assignment = kfac.comm_assignment(self._blocked)
        #: span recorder (repro.obs); inherited from the preconditioner
        self.tracer = getattr(kfac, "tracer", NULL_TRACER)

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def run(self) -> Generator[Any, Any, None]:
        """Yield comm requests for every task in schedule order."""
        plan = self.plan
        graph = plan.graph
        if any(t.kind == "FactorComm" for t in graph.tasks):
            self._prepare_wire()
        for name in plan.schedule:
            task = graph[name]
            yield from self._wait_deps(task)
            yield from self._dispatch(task)
        for tag in list(self._pending):
            yield from self._wait_tag(tag)
        self._finalize()

    def _wait_deps(self, task: Any) -> Generator[Any, Any, None]:
        """Settle any in-flight collective a dependency launched."""
        for dep in task.deps:
            tag = self._task_tag.get(dep)
            if tag is not None and tag in self._pending:
                yield from self._wait_tag(tag)

    def _wait_tag(self, tag: str) -> Generator[Any, Any, None]:
        budget = self._pending_compute
        result = yield WaitRequest(tag=tag, compute_seconds=budget)
        self._pending_compute = 0.0
        install = self._pending.pop(tag)
        install(result)
        if self.tracer.enabled:
            self.tracer.wait(
                self.kfac.rank,
                tag,
                attrs={
                    "compute_seconds": budget,
                    "failed": isinstance(result, CollectiveFailed),
                },
            )

    def _collective(
        self,
        task: Any,
        request: Any,
        install: Any,
        attrs: dict | None = None,
        blocking: bool = False,
    ) -> Generator[Any, Any, None]:
        """Launch one collective and install its result when it is waited.

        On a pipelined plan the wait is deferred until a dependent task
        needs the data (:meth:`_wait_deps`), so the compute done meanwhile
        is credited as overlap.  A synchronous plan — or ``blocking=True``
        — waits at once with ``compute_seconds=0.0``: the op is fully
        exposed, and the overlap budget accrued so far is left for the
        next deferred wait.  Only deferred ops are traced as launch/wait.
        """
        tag = request.tag
        if self.plan.pipelined and not blocking:
            if self.tracer.enabled:
                self.tracer.launch(self.kfac.rank, tag, attrs=attrs)
            yield request
            self._task_tag[task.name] = tag
            self._pending[tag] = install
        else:
            yield request
            install((yield WaitRequest(tag=tag, compute_seconds=0.0)))

    def _dispatch(self, task: Any) -> Generator[Any, Any, None]:
        kind = task.kind
        if kind == "FactorComm":
            yield from self._run_factor_comm(task)
        elif kind == "Eig":
            self._run_eig(task)
        elif kind == "EigShare":
            yield from self._run_eig_share(task)
        elif kind == "Precondition":
            self._run_precondition(task)
        elif kind == "GradShare":
            yield from self._run_grad_share(task)
        else:  # pragma: no cover - planner only emits known kinds
            raise TypeError(f"unknown task kind {kind!r}")

    # ------------------------------------------------------------------
    # FactorComm
    # ------------------------------------------------------------------
    def _prepare_wire(self) -> None:
        """Build the factor wire payloads (tri-packed, EF-compressed).

        Blocked plans ship only each meta's diagonal block — the
        off-block entries never travel (that is where the byte savings
        come from); the exact path packs whole factors as before.
        """
        kfac = self.kfac
        if self._blocked:
            tensors = []
            for meta in self._metas:
                layer = kfac._layer_by_name(meta.layer)
                factor = layer.A if meta.kind == "A" else layer.G
                assert factor is not None, "wire built before factor update"
                sub = np.ascontiguousarray(factor[meta.lo : meta.hi, meta.lo : meta.hi])
                tensors.append(tri_pack(sub) if kfac.hp.symmetric_comm else sub)
            tensors = kfac._compress_factor_tensors(tensors, self._metas)
        else:
            factors = [l.A for l in kfac.layers] + [l.G for l in kfac.layers]
            tensors = (
                pack_symmetric(factors) if kfac.hp.symmetric_comm else list(factors)
            )
            tensors = kfac._compress_factor_tensors(tensors)
        self._wire = tensors
        # same promotion rule as pack_arrays(dtype=None), pinned explicitly
        # because ranks owning nothing in a share chunk still contribute an
        # empty buffer of the matching dtype
        self._transport_dtype = np.result_type(*tensors)

    def _run_factor_comm(self, task: Any) -> Generator[Any, Any, None]:
        kfac = self.kfac
        b = task.payload["bucket"]
        idxs = tuple(self.plan.buckets[b])
        assert self._wire is not None
        tensors = [self._wire[i] for i in idxs]
        yield from self._collective(
            task,
            AllReduceLaunch(
                tensors=tensors,
                op="average",
                phase="factor_comm",
                tag=f"fac:{b}",
                comm_dtype=kfac.hp.comm_dtype,
            ),
            lambda reduced: self._install_factors(idxs, reduced),
            {
                "task": "FactorComm",
                "bucket": b,
                "bytes": float(sum(t.nbytes for t in tensors)),
            },
        )

    def _install_factors(self, idxs: Sequence[int], reduced: Sequence[np.ndarray]) -> None:
        kfac = self.kfac
        if isinstance(reduced, CollectiveFailed):
            # exchange lost past the retry budget: keep the local running
            # averages for this refresh (graceful degradation)
            kfac._note_factor_comm_failure([self._metas[i] for i in idxs])
            return
        for i, arr in zip(idxs, reduced):
            meta = self._metas[i]
            layer = kfac._layer_by_name(meta.layer)
            if self._blocked:
                # write the averaged block in place; off-block entries stay
                # local (they are never read once blocks are active)
                target = layer.A if meta.kind == "A" else layer.G
                db = meta.dim
                block = (
                    tri_unpack(arr, db)
                    if kfac.hp.symmetric_comm
                    else np.asarray(arr).reshape(db, db)
                )
                target[meta.lo : meta.hi, meta.lo : meta.hi] = block
            else:
                if kfac.hp.symmetric_comm:
                    arr = tri_unpack(arr, meta.dim)
                if meta.kind == "A":
                    layer.A = arr
                else:
                    layer.G = arr

    # ------------------------------------------------------------------
    # Eig
    # ------------------------------------------------------------------
    def _run_eig(self, task: Any) -> None:
        kfac = self.kfac
        eigen = kfac.hp.use_eigen_decomp
        if "meta" in task.payload:
            # per-factor (or per-block) decomposition on the owning rank
            # (COMM_OPT/HYBRID)
            meta = self._metas[task.payload["meta"]]
            if self._assignment[meta.key] != kfac.rank:
                return
            layer = kfac._layer_by_name(meta.layer)
            factor = layer.A if meta.kind == "A" else layer.G
            assert factor is not None, "second-order update before factor update"
            if self._blocked:
                factor = np.ascontiguousarray(
                    factor[meta.lo : meta.hi, meta.lo : meta.hi]
                )
            if eigen:
                eig = eigendecompose(factor)
                self._computed[meta.key] = [eig.Q, eig.lam]
            else:
                self._computed[meta.key] = [
                    explicit_damped_inverse(factor, kfac.damping)
                ]
            kfac.n_eigs_computed_locally += 1
            seconds = estimate_second_order_seconds([meta.dim], eigen)
            self._pending_compute += seconds
            if self.tracer.enabled:
                self.tracer.span(
                    f"Eig:{meta.key}",
                    "task",
                    kfac.rank,
                    seconds,
                    attrs={"layer": meta.layer, "dim": meta.dim},
                )
        else:
            # per-layer decomposition that stays local (LAYER_WISE owner)
            name = task.payload["layer"]
            if kfac._layer_assignment[name] != kfac.rank:
                return
            layer = kfac._layer_by_name(name)
            if eigen:
                if self._blocked:
                    layer.eig_A = block_eigendecompose(
                        layer.A, kfac._block_bounds[f"{name}/A"]
                    )
                    layer.eig_G = block_eigendecompose(
                        layer.G, kfac._block_bounds[f"{name}/G"]
                    )
                else:
                    layer.eig_A, layer.eig_G = layer.compute_eigen()
            else:
                layer.inv_A, layer.inv_G = layer.compute_inverses(kfac.damping)
            # local refresh succeeded: reset any drift-skip staleness the
            # layer's metas accrued (no share step will do it for us here)
            kfac._clear_staleness([m for m in self._metas if m.layer == name])
            kfac.n_eigs_computed_locally += 2
            if self.tracer.enabled:
                self.tracer.span(
                    f"Eig:{name}",
                    "task",
                    kfac.rank,
                    estimate_second_order_seconds(
                        [layer.a_dim, layer.g_dim], eigen
                    ),
                    attrs={"layer": name},
                )

    # ------------------------------------------------------------------
    # EigShare
    # ------------------------------------------------------------------
    def _run_eig_share(self, task: Any) -> Generator[Any, Any, None]:
        if "ranks" in task.payload:
            yield from self._run_group_share(task)
        else:
            yield from self._run_world_share(task)

    def _run_world_share(self, task: Any) -> Generator[Any, Any, None]:
        """COMM_OPT: allgather this chunk's decompositions world-wide."""
        kfac = self.kfac
        metas = [self._metas[i] for i in task.payload["metas"]]
        payload = [a for m in metas for a in self._computed.get(m.key, [])]
        dtype = self._transport_dtype if self.plan.pipelined else None
        flat = pack_arrays(payload, dtype=dtype)

        def install(gathered: Sequence[np.ndarray]) -> None:
            if isinstance(gathered, CollectiveFailed):
                # no rank installs a lost share (the owner included), so
                # every replica keeps the identical last-known eigenbasis
                kfac._note_eig_share_failure(metas)
                return
            kfac._install_second_order_chunk(gathered, metas)
            kfac._clear_staleness(metas)

        if kfac.world_size == 1:
            install([flat])
            return
        b = task.payload["bucket"]
        yield from self._collective(
            task,
            AllGatherLaunch(tensor=flat, phase="eig_comm", tag=f"eig:{b}"),
            install,
            {"task": "EigShare", "bucket": b, "bytes": float(flat.nbytes)},
        )

    def _run_group_share(self, task: Any) -> Generator[Any, Any, None]:
        """HYBRID: allgather decompositions inside one gradient-worker group.

        Singleton groups (the LAYER_WISE endpoint) install locally with no
        communication; ranks outside the group contribute/receive nothing
        — they will get only the final preconditioned gradient.
        """
        kfac = self.kfac
        ranks = tuple(task.payload["ranks"])
        grp_metas = [self._metas[i] for i in task.payload["metas"]]
        member_metas = {
            r: [m for m in grp_metas if self._assignment[m.key] == r]
            for r in ranks
        }
        in_group = kfac.rank in ranks
        if len(ranks) == 1:
            if in_group:
                for meta in member_metas[kfac.rank]:
                    kfac._install_factor_state(meta, self._computed[meta.key])
            return
        flat: np.ndarray | None = None
        if in_group:
            mine = [a for m in member_metas[kfac.rank] for a in self._computed[m.key]]
            flat = pack_arrays(mine)

        def install(gathered: Sequence[np.ndarray] | None) -> None:
            if isinstance(gathered, CollectiveFailed):
                # only members track the lost share: non-members never hold
                # second-order state (they receive preconditioned grads)
                if in_group:
                    kfac._note_eig_share_failure(grp_metas)
                return
            if gathered is None:  # non-members receive nothing
                return
            kfac._clear_staleness(grp_metas)
            step = 2 if kfac.hp.use_eigen_decomp else 1
            for r, buf in zip(ranks, gathered):
                shapes: list[tuple[int, ...]] = []
                for meta in member_metas[r]:
                    if kfac.hp.use_eigen_decomp:
                        shapes.extend([(meta.dim, meta.dim), (meta.dim,)])
                    else:
                        shapes.append((meta.dim, meta.dim))
                arrays = unpack_arrays(buf, shapes)
                for j, meta in enumerate(member_metas[r]):
                    kfac._install_factor_state(meta, arrays[j * step : (j + 1) * step])

        yield from self._collective(
            task,
            GroupAllGatherLaunch(
                tensor=flat, ranks=ranks, phase="eig_comm", tag=f"share:grp{ranks[0]}"
            ),
            install,
            {
                "task": "EigShare",
                "group": list(ranks),
                "member": in_group,
                "bytes": float(flat.nbytes) if flat is not None else 0.0,
            },
        )

    # ------------------------------------------------------------------
    # Precondition
    # ------------------------------------------------------------------
    def _run_precondition(self, task: Any) -> None:
        kfac = self.kfac
        name = task.payload["layer"]
        layer = kfac._layer_by_name(name)
        raw = layer.get_grad_matrix()
        self._raw[name] = raw  # every rank keeps raw grads for Eq. 18 clipping
        if not self._is_grad_worker(name):
            return
        self._pre[name] = layer.precondition(
            raw, kfac.damping, kfac.hp.use_eigen_decomp
        )
        seconds = estimate_precondition_seconds([(layer.g_dim, layer.a_dim)])
        self._pending_compute += seconds
        if self.tracer.enabled:
            self.tracer.span(
                f"Precondition:{name}",
                "task",
                kfac.rank,
                seconds,
                attrs={"layer": name},
            )

    def _is_grad_worker(self, layer_name: str) -> bool:
        return self.kfac.is_grad_worker(layer_name)

    # ------------------------------------------------------------------
    # GradShare
    # ------------------------------------------------------------------
    def _run_grad_share(self, task: Any) -> Generator[Any, Any, None]:
        if "entry" in task.payload:
            yield from self._run_grad_broadcast(task)
        else:
            yield from self._run_grad_allgather(task)

    def _run_grad_broadcast(self, task: Any) -> Generator[Any, Any, None]:
        """HYBRID: root ships fused preconditioned grads to non-members."""
        kfac = self.kfac
        root, layers_r, participants = kfac._bcast_plan[task.payload["entry"]]
        flat: np.ndarray | None = None
        if kfac.rank == root:
            flat = pack_arrays([self._pre[l.name] for l in layers_r])

        def install(got: np.ndarray | None) -> None:
            if got is None or kfac.rank == root:
                return
            shapes = [(l.g_dim, l.a_dim) for l in layers_r]
            for l, arr in zip(layers_r, unpack_arrays(got, shapes)):
                self._pre[l.name] = arr

        yield from self._collective(
            task,
            GroupBroadcastLaunch(
                tensor=flat,
                root=root,
                ranks=participants,
                phase="precond_comm",
                tag=f"grad:root{root}",
            ),
            install,
            {
                "task": "GradShare",
                "root": root,
                "bytes": float(flat.nbytes) if flat is not None else 0.0,
            },
        )

    def _run_grad_allgather(self, task: Any) -> Generator[Any, Any, None]:
        """LAYER_WISE: allgather every owner's preconditioned grads."""
        kfac = self.kfac
        mine = [
            self._pre[l.name]
            for l in kfac.layers
            if kfac._layer_assignment[l.name] == kfac.rank
        ]
        flat = pack_arrays(mine)

        def install(gathered: Sequence[np.ndarray]) -> None:
            for worker in range(kfac.world_size):
                owned = [
                    l for l in kfac.layers if kfac._layer_assignment[l.name] == worker
                ]
                shapes = [(l.g_dim, l.a_dim) for l in owned]
                arrays = unpack_arrays(gathered[worker], shapes)
                for l, arr in zip(owned, arrays):
                    self._pre[l.name] = arr

        # every layer's update waits on this exchange, so there is nothing
        # to overlap it with: it is blocking on pipelined plans too
        yield from self._collective(
            task,
            AllGatherLaunch(tensor=flat, phase="precond_comm", tag="grad:all"),
            install,
            blocking=True,
        )

    # ------------------------------------------------------------------
    # epilogue
    # ------------------------------------------------------------------
    def _finalize(self) -> None:
        """Eq. 18 clipping over the full layer set, then write the grads."""
        kfac = self.kfac
        pre = [self._pre[layer.name] for layer in kfac.layers]
        raw = [self._raw[layer.name] for layer in kfac.layers]
        nu = kl_clip_factor(pre, raw, kfac.lr, kfac.hp.kl_clip)
        ad = getattr(kfac, "_adaptive_damping", None)
        if ad is not None:
            # nu is computed from pre-averaged gradients, so every rank sees
            # the same value and the damping schedule stays in lockstep
            old = kfac.damping
            kfac.damping = ad.update(nu)
            if kfac.damping != old and self.tracer.enabled:
                self.tracer.instant(
                    "damping:adapt",
                    "approx",
                    kfac.rank,
                    attrs={"nu": float(nu), "damping": float(kfac.damping)},
                )
        for layer, p in zip(kfac.layers, pre):
            layer.set_grad_matrix(nu * p)
