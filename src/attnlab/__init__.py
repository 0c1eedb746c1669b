"""Switched spatial attention on a tiny numpy autodiff core.

The package factors attention weights into four switchable energy
terms (query-key content, query content with relative position, key
saliency, pure positional bias), expresses regular, deformable, and
dynamic convolution in the same aggregation form, meters every forward
pass in exact multiply-accumulate counts, and ships a toy-scale
ablation harness that exercises the structural claims end to end.
"""

from .attention import (
    AttentionConfig,
    AttentionParams,
    OffsetMap,
    attention_forward,
    attention_weights,
    causal_mask,
    local_mask,
    offset_map_1d,
    offset_map_2d,
)
from .conv import (
    ConvParams,
    deformable_conv,
    deformable_conv1d,
    deformable_conv2d,
    regular_conv,
    regular_conv1d,
    regular_conv2d,
)
from .dynconv import DynamicConvParams, dynamic_conv, dynamic_conv1d, dynamic_conv2d
from .errors import (
    ContractViolation,
    DegenerateRegion,
    NumericFault,
    ShapeMismatch,
)
from .flops import (
    count_attention,
    count_deformable,
    count_dynamic,
    count_mechanism,
    count_regular,
    emit_table,
)
from .harness import (
    ResultRecord,
    RunConfig,
    default_grid,
    emit_results,
    run_grid,
    train,
)
from .models import build_model, count_forward
from .relpos import encode_1d, encode_2d
from .tasks import (
    ToyTask,
    content_match_oracle,
    fixed_position_bound,
    make_permuted_copy_task,
    make_salient_detection_task,
    make_task,
    make_windowed_denoise_task,
    masked_average_oracle,
)
from .tensor import MacCounter, Rng, Tensor, counting, finite_diff_check
from .train import Momentum, evaluate, train_model

__version__ = "0.1.0"

__all__ = [
    "AttentionConfig", "AttentionParams", "OffsetMap", "attention_forward",
    "attention_weights", "causal_mask", "local_mask", "offset_map_1d",
    "offset_map_2d",
    "ConvParams", "deformable_conv", "deformable_conv1d", "deformable_conv2d",
    "regular_conv", "regular_conv1d", "regular_conv2d",
    "DynamicConvParams", "dynamic_conv", "dynamic_conv1d", "dynamic_conv2d",
    "ContractViolation", "DegenerateRegion", "NumericFault", "ShapeMismatch",
    "count_attention", "count_deformable", "count_dynamic", "count_mechanism",
    "count_regular", "emit_table",
    "ResultRecord", "RunConfig", "default_grid", "emit_results", "run_grid",
    "train",
    "build_model", "count_forward",
    "encode_1d", "encode_2d",
    "ToyTask", "content_match_oracle", "fixed_position_bound",
    "make_permuted_copy_task", "make_salient_detection_task", "make_task",
    "make_windowed_denoise_task", "masked_average_oracle",
    "MacCounter", "Rng", "Tensor", "counting", "finite_diff_check",
    "Momentum", "evaluate", "train_model",
]
