"""Optimization and the three learning regimes.

Supervised training minimizes binary cross-entropy with Adam under a
cosine-annealed learning rate, snapshots the best-validation model, and
stops after `patience` consecutive non-improving validation epochs.
Feature-incremental training chains supervised stages through
`transfer_weights`; self-supervised pretraining reconstructs rows from
half-corrupted inputs before a classification fine-tune.

Everything derives from one root seed per run: shuffling, corruption
masks, and fresh-head initialization, so identical configs reproduce
identical reports bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics, tensor as T
from .model import MambaTabModel, count_parameters, swap_head, transfer_weights
from .tabular import EncodedMatrix
from .tensor import NumericsError, Tensor

# spawn_key tags for the independent RNG streams derived from one seed;
# the cli derives each seed's split, init, training and plan seeds from 10-13
_STREAM_SHUFFLE = 0
_STREAM_MASK = 1
_STREAM_VAL_MASK = 2
_STREAM_HEAD = 3
_STREAM_STAGE = 4
STREAM_SPLIT = 10
STREAM_INIT = 11
STREAM_TRAIN = 12
STREAM_PLAN = 13

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def derive_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def child_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


@dataclass
class TrainConfig:
    max_epochs: int = 1000
    patience: int = 5
    lr: float = 1e-4
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")


@dataclass
class TrainReport:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_auroc: list[float | None] = field(default_factory=list)
    best_epoch: int = 0              # 1-based; 0 means no epoch ran
    epochs_run: int = 0
    early_stopped: bool = False
    monitor: str = "val_bce"
    test_auroc: float | None = None
    test_accuracy: float | None = None
    param_count: int = 0
    seed: int = 0


def bce_with_logits(logits: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy from raw logits, in overflow-safe form."""
    y = np.asarray(labels, dtype=np.float64).reshape(logits.shape)
    return (T.softplus(logits) - logits * Tensor(y)).mean()


def mse_loss(pred: Tensor, target) -> Tensor:
    diff = pred - Tensor(np.asarray(target, dtype=np.float64))
    return (diff * diff).mean()


def cosine_lr(epoch: int, max_epochs: int, lr0: float) -> float:
    """Anneal from lr0 at epoch 0 to zero at max_epochs."""
    if not 0 <= epoch <= max_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {max_epochs}]")
    return 0.5 * lr0 * (1.0 + math.cos(math.pi * epoch / max_epochs))


@dataclass
class AdamState:
    m: np.ndarray   # first and second moments of every parameter, concatenated
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: list[Tensor]) -> "AdamState":
        n = sum(p.size for p in params)
        return cls(m=np.zeros(n), v=np.zeros(n))


def adam_step(params: list[Tensor], state: AdamState, lr: float) -> None:
    """One bias-corrected update, in place. A missing grad counts as zero, so a
    parameter that never gets one keeps zero moments and stays put."""
    state.step += 1
    t = state.step
    g = np.concatenate([np.zeros(p.size) if p.grad is None else p.grad.ravel() for p in params])
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    update = lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    for p, end in zip(params, itertools.accumulate(p.size for p in params)):
        p.data[...] -= update[end - p.size:end].reshape(p.shape)


def _abort(cause: NumericsError, report: TrainReport, epoch: int, seed: int) -> NumericsError:
    """Wrap an op-level numerics failure with run context and the partial report."""
    err = NumericsError(f"training aborted at epoch {epoch} (seed {seed}): {cause}")
    err.report = report
    return err


class EarlyStopper:
    """Tracks the strict minimum of a validation metric.

    ``update`` returns True when the metric has failed to improve for
    `patience` consecutive epochs. Ties do not count as improvement, so
    the earliest minimum wins.
    """

    def __init__(self, patience: int):
        self.patience = patience
        self.best = math.inf
        self.best_epoch = 0
        self.stale = 0

    def update(self, value: float, epoch: int) -> bool:
        if value < self.best:
            self.best = value
            self.best_epoch = epoch
            self.stale = 0
            return False
        self.stale += 1
        return self.stale >= self.patience


def _batches(n_rows: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n_rows)
    for start in range(0, n_rows, batch_size):
        yield perm[start:start + batch_size]


def _validation_pass(model: MambaTabModel, values: np.ndarray, targets: np.ndarray,
                     loss_fn) -> tuple[float, list[np.ndarray]]:
    """One chunked forward over all rows: the row-weighted mean of the
    per-chunk losses, and each chunk's raw outputs."""
    total, outputs = 0.0, []
    for idx, out in model.forward_chunks(values):
        total += loss_fn(Tensor(out), targets[idx]).item() * len(out)
        outputs.append(out)
    return total / len(values), outputs


def _fit(model: MambaTabModel, n_rows: int, cfg: TrainConfig, report: TrainReport,
         batch_loss, validate) -> tuple[MambaTabModel, TrainReport]:
    """The epoch loop every regime shares.

    ``batch_loss(idx)`` builds the loss of the training rows ``idx``;
    ``validate()`` returns the epoch's validation loss and AUROC (or None).
    Adam follows a cosine schedule; the model is snapshotted at each new
    validation minimum, and the model is returned holding the best snapshot.
    """
    rng = derive_rng(cfg.seed, _STREAM_SHUFFLE)
    params = [p for _, p in model.named_parameters()]
    opt = AdamState.for_params(params)
    stopper = EarlyStopper(cfg.patience)
    best = model.flat.copy()
    for epoch in range(1, cfg.max_epochs + 1):
        lr = cosine_lr(epoch - 1, cfg.max_epochs, cfg.lr)
        losses = []
        try:
            for idx in _batches(n_rows, cfg.batch_size, rng):
                loss = batch_loss(idx)
                model.zero_grad()
                loss.backward()
                adam_step(params, opt, lr)
                losses.append(loss.item())
            report.train_loss.append(float(np.mean(losses)))
            vl, auc = validate()
        except NumericsError as e:
            raise _abort(e, report, epoch, cfg.seed) from e
        report.val_loss.append(vl)
        report.val_auroc.append(auc)
        report.epochs_run = epoch
        stop = stopper.update(vl, epoch)
        if stopper.best_epoch == epoch:
            best = model.flat.copy()
        if stop:
            report.early_stopped = True
            break
    report.best_epoch = stopper.best_epoch
    model.flat[:] = best
    return model, report


def train_supervised(model: MambaTabModel, train: EncodedMatrix, val: EncodedMatrix,
                     cfg: TrainConfig) -> tuple[MambaTabModel, TrainReport]:
    """Minibatch BCE training with best-validation snapshotting."""
    if model.config.head != "classification":
        raise ValueError("train_supervised needs a classification head")
    report = TrainReport(monitor="val_bce", seed=cfg.seed, param_count=count_parameters(model))

    def batch_loss(idx):
        return bce_with_logits(model.forward(train.values[idx]), train.labels[idx])

    def validate():
        vl, logits = _validation_pass(model, val.values, val.labels, bce_with_logits)
        try:
            return vl, metrics.auroc(np.concatenate([z[:, 0] for z in logits]), val.labels)
        except metrics.UndefinedMetricError:
            return vl, None

    return _fit(model, train.n_rows, cfg, report, batch_loss, validate)


def corruption_masks(rng: np.random.Generator, n_rows: int, n_features: int) -> np.ndarray:
    """Boolean [rows, features]: True marks a zeroed cell, exactly n//2 per row."""
    k = n_features // 2
    order = rng.random((n_rows, n_features)).argsort(axis=1)
    mask = np.zeros((n_rows, n_features), dtype=bool)
    np.put_along_axis(mask, order[:, :k], True, axis=1)
    return mask


def pretrain_ssl(model: MambaTabModel, train: EncodedMatrix, val: EncodedMatrix,
                 cfg: TrainConfig) -> tuple[MambaTabModel, TrainReport]:
    """Reconstruction pretraining: zero half the features, predict the clean row.

    Labels are never read. A fresh mask is drawn per row per iteration;
    validation uses one fixed mask so its loss is comparable across
    epochs. ``val_loss[0]`` in the report is the pre-training loss.
    """
    if model.config.head != "reconstruction":
        raise ValueError("pretrain_ssl needs a reconstruction head")
    mask_rng = derive_rng(cfg.seed, _STREAM_MASK)
    n = model.config.n_features
    val_mask = corruption_masks(derive_rng(cfg.seed, _STREAM_VAL_MASK), val.n_rows, n)
    val_corrupted = np.where(val_mask, 0.0, val.values)

    def batch_loss(idx):
        clean = train.values[idx]
        corrupted = np.where(corruption_masks(mask_rng, len(idx), n), 0.0, clean)
        return mse_loss(model.forward(corrupted), clean)

    def validate():
        return _validation_pass(model, val_corrupted, val.values, mse_loss)[0], None

    vl0, auc0 = validate()  # epoch 0, untrained
    report = TrainReport(val_loss=[vl0], val_auroc=[auc0], monitor="val_l2", seed=cfg.seed,
                         param_count=count_parameters(model))
    return _fit(model, train.n_rows, cfg, report, batch_loss, validate)


def finetune_after_ssl(pretrained: MambaTabModel, train: EncodedMatrix, val: EncodedMatrix,
                       cfg: TrainConfig) -> tuple[MambaTabModel, TrainReport]:
    """Swap to a fresh classification head and train everything."""
    head_rng = derive_rng(cfg.seed, _STREAM_HEAD)
    model = swap_head(pretrained, "classification", head_rng)
    return train_supervised(model, train, val, cfg)


@dataclass
class Stage:
    """One feature-incremental stage: its own rows, a cumulative column set."""

    train: EncodedMatrix
    val: EncodedMatrix
    columns: list[int]   # original-table column indices, sorted


def stage_seed(root_seed: int, stage_index: int) -> int:
    return child_seed(root_seed, _STREAM_STAGE, stage_index)


def train_incremental(stages: list[Stage], base_config, cfg: TrainConfig,
                      init_rng: np.random.Generator | int = 0):
    """Train through growing feature sets, transferring weights between stages.

    Stage 1 trains from scratch on its columns; later stages copy all
    non-embedding weights (and the retained embedding rows) from the
    previous best model, then continue training on their own rows.
    Returns the final best model and one report per stage.
    """
    for prev, cur in zip(stages, stages[1:]):
        if not set(prev.columns) <= set(cur.columns):
            raise ValueError("stage column sets must be nested")
        if cur.columns != sorted(cur.columns):
            raise ValueError("stage columns must be sorted")
    model = None
    reports = []
    for i, stage in enumerate(stages):
        config = replace(base_config, n_features=len(stage.columns))
        if model is None:
            model = MambaTabModel(config, rng=np.random.default_rng(init_rng))
        else:
            mapping = [stage.columns.index(c) for c in stages[i - 1].columns]
            model = transfer_weights(model, config, mapping)
        stage_cfg = replace(cfg, seed=stage_seed(cfg.seed, i))
        model, report = train_supervised(model, stage.train, stage.val, stage_cfg)
        reports.append(report)
    return model, reports
