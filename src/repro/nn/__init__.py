"""Neural-network layers, optimizers, and loss modules over ``repro.tensor``.

Mirrors the slice of ``torch.nn`` the paper's models need: parameter/module
containers, Linear/Embedding/LayerNorm/Dropout, multi-head self-attention and
transformer encoder blocks, Adam-family optimizers with warmup schedules, and
the specialised losses used by KTeleBERT (margin ranking for the KE objective,
in-batch contrastive for `L_nc`, Kendall-Gal automatic loss weighting, and the
orthogonal regularizer from Eq. 8).
"""

from repro.nn.module import Module, ModuleList, Parameter
from repro.nn.layers import (
    GELU,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.transformer import TransformerEncoder, TransformerEncoderLayer
from repro.nn.optim import SGD, Adam, AdamW, LinearWarmupSchedule, clip_grad_norm
from repro.nn.summary import parameter_breakdown, summarize
from repro.nn.losses import (
    AutomaticWeightedLoss,
    info_nce,
    margin_ranking_loss,
    numeric_contrastive_loss,
    orthogonal_regularizer,
)

__all__ = [
    "Adam",
    "AdamW",
    "AutomaticWeightedLoss",
    "Dropout",
    "Embedding",
    "GELU",
    "LayerNorm",
    "Linear",
    "ReLU",
    "Tanh",
    "LinearWarmupSchedule",
    "Module",
    "ModuleList",
    "MultiHeadSelfAttention",
    "Parameter",
    "SGD",
    "Sequential",
    "TransformerEncoder",
    "TransformerEncoderLayer",
    "clip_grad_norm",
    "info_nce",
    "margin_ranking_loss",
    "numeric_contrastive_loss",
    "orthogonal_regularizer",
    "parameter_breakdown",
    "summarize",
]
