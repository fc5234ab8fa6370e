"""Elastic vision FFN: capacity-constrained two-expert routing on a micro-transformer.

The package provides a small 64-bit reverse-mode tensor core, the routing and
token-allocation machinery (Random / GBPR / Img-GBPR with optional reject
redistribution; one ``allocate`` call returns the final plan together with its
stability margin), the duplicate-and-freeze stage-3 layer surgery, a packed
multimodal micro-transformer with a synthetic key-permutation task, and an
experiment CLI (``evf``).
"""

from .errors import (
    ConfigError,
    ContractError,
    EvfError,
    FixtureError,
    NumericError,
    ShapeError,
    UnstableInstanceError,
)
from .seeds import RngKey
from .tensor import Parameter, Tensor, backward
from .router import LANGUAGE_FFN, VISION_FFN, RouterParams, route
from .allocator import (
    AllocationPlan,
    AllocationStats,
    CapacityConfig,
    ModalityTags,
    Strategy,
    allocate,
    allocation_stats,
    compute_capacity,
    priority_scores,
)
from .layer import (
    EvfLayerParams,
    FfnParams,
    ffn_forward,
    init_stage3_from_dense,
)
from .training import (
    AdamW,
    GradCheckReport,
    OptimizerConfig,
    aux_loss,
    combined_digest,
    grad_check,
    learning_rate_at,
    parameter_digests,
    tensor_digest,
)
from .model import (
    STAGE_GROUPS,
    MicroModel,
    ModelConfig,
    SyntheticTask,
    TokenBatch,
    TrainConfig,
    apply_stage,
    build_model,
    compute_loss,
    enter_stage3,
    forward,
    train,
)
from .checkpoint import load_model, save_model

__version__ = "0.1.0"
