"""Translation-ensemble adapter for cross-lingual conditional generation.

A small attention module fuses a source sentence embedding with embeddings
of its translations into a single conditioning vector, trained jointly
with a toy conditional GAN under adversarial and contrastive losses. All
numerics are hand-derived numpy, with LAPACK for the eigendecompositions;
runs are deterministic given (dataset, configs, seed).
"""

from .adapter import (
    STRATEGIES,
    EnsAdConfig,
    attention_export_record,
    attention_scores,
    backward,
    forward,
    fuse_batch,
    init_params,
    param_count,
    tensor_specs,
)
from .data import (
    DataFormatError,
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_jsonl,
    save_jsonl,
)
from .evaluation import (
    EvalReport,
    FrechetStats,
    compare_strategies,
    evaluate,
    fit_gaussian,
    frechet_distance,
    save_report,
)
from .gan import (
    AdamState,
    Checkpoint,
    GanConfig,
    LossParts,
    TrainingDiverged,
    adam_step,
    disc_forward_batch,
    finetune_pipeline,
    generate_batch,
    load_checkpoint,
    loss_adv_disc,
    loss_adv_ensad,
    loss_contrastive,
    param_shapes,
    save_checkpoint,
    total_losses,
    train,
)
from .numkit import NotPsdError, SeededRng, TensorSpec, derive_seed, init_tensors

__version__ = "0.1.0"

__all__ = [
    "STRATEGIES",
    "AdamState",
    "Checkpoint",
    "DataFormatError",
    "Dataset",
    "EnsAdConfig",
    "EvalReport",
    "FrechetStats",
    "GanConfig",
    "LossParts",
    "NotPsdError",
    "SeededRng",
    "SyntheticSpec",
    "TensorSpec",
    "TrainingDiverged",
    "adam_step",
    "attention_export_record",
    "attention_scores",
    "backward",
    "compare_strategies",
    "derive_seed",
    "disc_forward_batch",
    "evaluate",
    "finetune_pipeline",
    "fit_gaussian",
    "forward",
    "frechet_distance",
    "fuse_batch",
    "generate_batch",
    "generate_synthetic",
    "init_params",
    "init_tensors",
    "load_checkpoint",
    "load_jsonl",
    "loss_adv_disc",
    "loss_adv_ensad",
    "loss_contrastive",
    "param_count",
    "param_shapes",
    "save_checkpoint",
    "save_jsonl",
    "save_report",
    "tensor_specs",
    "total_losses",
    "train",
]
