"""State-space network for binary classification on tabular data.

The pipeline: ordinal-encode and min-max scale a CSV table, learn a
fixed-width embedding, normalize, and push each row through residual
gated selective-scan blocks to a logit. Ships three training regimes
(supervised, feature-incremental, self-supervised reconstruction) and a
CLI that reproduces desk-scale benchmark protocols.
"""

from .metrics import EvalResult, UndefinedMetricError, accuracy, aggregate, auroc, evaluate
from .model import (
    CheckpointError, MambaTabModel, ModelConfig, count_parameters, load,
    load_with_metadata, save, swap_head, transfer_weights,
)
from .ssm import (
    MambaBlockParams, block_param_count, discretize, generate_selective_coeffs,
    mamba_block_forward, selective_scan,
)
from .tabular import (
    EncodedMatrix, FeatureSubsetPlan, Preprocessor, SchemaConfig, SchemaError,
    Table, fit, infer_column_kinds, load_csv, make_incremental_plan, split, transform,
)
from .tensor import InputError, NumericsError, Tensor
from .training import (
    Stage, TrainConfig, TrainReport, adam_step, bce_with_logits, cosine_lr,
    finetune_after_ssl, pretrain_ssl, train_incremental, train_supervised,
)

__version__ = "0.1.0"

__all__ = [
    "CheckpointError", "EncodedMatrix", "EvalResult", "FeatureSubsetPlan",
    "MambaBlockParams", "MambaTabModel", "ModelConfig", "NumericsError",
    "Preprocessor", "SchemaConfig", "SchemaError", "Stage",
    "Table", "Tensor", "TrainConfig", "TrainReport", "UndefinedMetricError",
    "accuracy", "adam_step", "aggregate", "auroc", "bce_with_logits",
    "block_param_count", "cosine_lr", "count_parameters", "discretize",
    "evaluate", "finetune_after_ssl", "fit", "generate_selective_coeffs",
    "infer_column_kinds", "load", "load_csv", "load_with_metadata",
    "make_incremental_plan", "mamba_block_forward", "pretrain_ssl", "save",
    "selective_scan", "split", "swap_head", "train_incremental",
    "train_supervised", "transfer_weights", "transform",
]
