"""The three benchmark workloads: inputs, model and trainer, all from a seed.

Every workload trains on P=4 simulated workers with 16 samples per worker
in fp32 through :class:`repro.parallel.trainer.DataParallelTrainer`.  The
seed drives the data, the initial weights and the shuffling; the program
receives only the generated arrays.

- ``cnn-sgd``: ResNet-20 (width 0.5) on 16x16x3 paired-class synthetic
  images, plain SGD.  The baseline the paper compares against; it runs
  nn/tensor/optim and gradient fusion and no K-FAC code at all.
- ``cnn-kfac``: the same model, data and seed with K-FAC (COMM_OPT,
  blocking ``sync`` scheduler, factors every step, eigenbases every 2).
- ``transformer-kfac``: ``TinyTransformer`` on a noisy token task under
  the pipelined ``graph`` scheduler, ``grad_worker_frac=0.5``, fp16
  factor transport and 4 diagonal blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.preconditioner import KFACHyperParams
from repro.data.synthetic import cifar10_like
from repro.nn.resnet import resnet20_cifar
from repro.nn.transformer import TinyTransformer
from repro.optim.lr_scheduler import ConstantSchedule
from repro.parallel.trainer import DataParallelTrainer, TrainerConfig

WORLD_SIZE = 4
BATCH_PER_WORKER = 16
#: iterations per K-FAC refresh cycle; one timing sample covers one cycle
CYCLE = 2

TOKEN_VOCAB = 1024
TOKEN_SEQ = 16
TOKEN_CLASSES = 8
#: chance that a token comes from its class's vocabulary band rather than
#: uniformly from the whole vocabulary; with every token in-band the task
#: is solved within a dozen steps and the loss stops moving
TOKEN_SIGNAL = 0.35


@dataclass(frozen=True)
class Workload:
    name: str
    #: builds ``(train_x, train_y)`` from the seed
    make_data: Callable[[int], tuple[np.ndarray, np.ndarray]]
    model_factory: Callable[[np.random.Generator], object]
    #: K-FAC hyper-parameters; None trains with SGD alone
    hyper: KFACHyperParams | None
    lr: float


def image_data(seed: int, n: int = 1024) -> tuple[np.ndarray, np.ndarray]:
    ds = cifar10_like(n_train=n, n_val=1, image_size=16, seed=seed, class_pairing=0.3)
    return ds.train_x, ds.train_y


def token_data(seed: int, n: int = 4096) -> tuple[np.ndarray, np.ndarray]:
    """Noisy token classification: a class favours its vocabulary band."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, TOKEN_CLASSES, n)
    band = TOKEN_VOCAB // TOKEN_CLASSES
    in_band = y[:, None] * band + rng.integers(0, band, (n, TOKEN_SEQ))
    uniform = rng.integers(0, TOKEN_VOCAB, (n, TOKEN_SEQ))
    x = np.where(rng.random((n, TOKEN_SEQ)) < TOKEN_SIGNAL, in_band, uniform)
    return x.astype(np.int64), y.astype(np.int64)


def _resnet(rng: np.random.Generator) -> object:
    return resnet20_cifar(rng, width_multiplier=0.5)


def _transformer(rng: np.random.Generator) -> object:
    return TinyTransformer(
        TOKEN_VOCAB, TOKEN_SEQ, dim=64, num_heads=4, depth=2,
        num_classes=TOKEN_CLASSES, rng=rng,
    )


WORKLOADS: dict[str, Workload] = {
    "cnn-sgd": Workload("cnn-sgd", image_data, _resnet, None, lr=0.1),
    "cnn-kfac": Workload(
        "cnn-kfac",
        image_data,
        _resnet,
        KFACHyperParams(
            damping=0.003, fac_update_freq=1, kfac_update_freq=CYCLE, scheduler="sync"
        ),
        lr=0.1,
    ),
    "transformer-kfac": Workload(
        "transformer-kfac",
        token_data,
        _transformer,
        KFACHyperParams(
            damping=0.003,
            fac_update_freq=1,
            kfac_update_freq=CYCLE,
            scheduler="graph",
            grad_worker_frac=0.5,
            comm_dtype="fp16",
            diag_blocks=4,
        ),
        lr=0.05,
    ),
}


def build_trainer(
    wl: Workload, train_x: np.ndarray, train_y: np.ndarray, seed: int
) -> DataParallelTrainer:
    config = TrainerConfig(
        world_size=WORLD_SIZE,
        batch_size=BATCH_PER_WORKER,
        epochs=1,
        seed=seed,
        kfac=wl.hyper,
        lr_schedule=ConstantSchedule(wl.lr),
        precision="fp32",
    )
    # the trainer's validation split is never used: the benchmark only
    # calls train_iteration
    return DataParallelTrainer(
        wl.model_factory, train_x, train_y, train_x[:1], train_y[:1], config
    )
