"""The serve-time encoder forward: ``[CLS]`` vectors in plain numpy.

:func:`cls_forward` is the only forward that produces service
embeddings (``KTeleBert.encode`` and ``TeleBertTrainer.encode_sentences``
both call it).  It computes what ``BertEncoder.cls_embeddings`` computes
in eval mode, with three differences that make it cheap and safe to
share between threads:

* it creates no :class:`~repro.tensor.Tensor` (no autograd tape) and has
  no dropout, so it needs no train/eval mode and no ``no_grad``;
* the last layer computes keys and values for every token but the query,
  attention output, residual, LayerNorm and FFN for the ``[CLS]`` row
  only, since no other row of the last layer reaches the result;
* earlier layers compute Q, K and V with one matmul over the
  concatenated weights, and LayerNorm and GELU work in place on buffers
  owned by the call.

Weights are read from the modules' ``Parameter.data`` on every call and
never copied: optimizers update ``data`` in place, ``grow_vocab`` and
``load_state_dict`` replace or overwrite it, and experiments encode after
training, so a cached copy would go stale.
"""

from __future__ import annotations

import math

import numpy as np

from repro.models.bert import BertEncoder
from repro.nn.layers import LayerNorm, Linear
from repro.nn.transformer import TransformerEncoderLayer

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def cls_forward(encoder: BertEncoder, ids: np.ndarray, mask: np.ndarray,
                overrides: tuple[np.ndarray, np.ndarray] | None = None
                ) -> np.ndarray:
    """``[CLS]`` output rows (B, D) of ``encoder`` for a padded id batch.

    ``mask`` is the (B, T) 0/1 validity mask.  ``overrides`` is
    ``(positions, vectors)``: an (M, 2) array of (row, column) slots and
    the (M, D) vectors that replace the token embedding there (position
    embeddings still apply), as in ``BertEncoder.embed``.
    """
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ValueError(f"ids must be (batch, seq), got shape {ids.shape}")
    token = encoder.token_embedding.weight.data
    position = encoder.position_embedding.weight.data
    seq = ids.shape[1]
    if seq > position.shape[0]:
        raise ValueError(
            f"sequence length {seq} exceeds max_len {position.shape[0]}")
    if ids.size and (ids.min() < 0 or ids.max() >= token.shape[0]):
        raise IndexError(f"embedding index out of range [0, {token.shape[0]})")
    x = token[ids]
    x += position[:seq]
    if overrides is not None and len(overrides[0]):
        positions, vectors = overrides
        x[positions[:, 0], positions[:, 1]] = (
            vectors + position[positions[:, 1]])
    _layer_norm(x, encoder.embedding_norm)
    layers = list(encoder.encoder.layers)
    if not layers:
        return x[:, 0].copy()
    mask_bias = np.where(np.asarray(mask) > 0, 0.0, -1e9)[:, None, None, :]
    for layer in layers[:-1]:
        x = _full_layer(layer, x, mask_bias)
    return _cls_layer(layers[-1], x, mask_bias)


def _full_layer(layer: TransformerEncoderLayer, x: np.ndarray,
                mask_bias: np.ndarray) -> np.ndarray:
    """One encoder block over every row: (B, T, D) -> (B, T, D)."""
    attention = layer.attention
    batch, seq, d_model = x.shape
    heads, head_dim = attention.num_heads, attention.head_dim
    projections = (attention.query, attention.key, attention.value)
    qkv = x @ np.concatenate([p.weight.data for p in projections], axis=1)
    qkv += np.concatenate([p.bias.data for p in projections])
    q, k, v = qkv.reshape(batch, seq, 3, heads, head_dim).transpose(
        2, 0, 3, 1, 4)
    context = _attend(q, k, v, mask_bias, head_dim)
    context = context.transpose(0, 2, 1, 3).reshape(batch, seq, d_model)
    return _residual_ffn(layer, x, context)


def _cls_layer(layer: TransformerEncoderLayer, x: np.ndarray,
               mask_bias: np.ndarray) -> np.ndarray:
    """The last encoder block, row 0 only: (B, T, D) -> (B, D)."""
    attention = layer.attention
    batch, seq, d_model = x.shape
    heads, head_dim = attention.num_heads, attention.head_dim
    projections = (attention.key, attention.value)
    kv = x @ np.concatenate([p.weight.data for p in projections], axis=1)
    kv += np.concatenate([p.bias.data for p in projections])
    k, v = kv.reshape(batch, seq, 2, heads, head_dim).transpose(2, 0, 3, 1, 4)
    cls = x[:, 0]
    q = _linear(attention.query, cls).reshape(batch, heads, 1, head_dim)
    context = _attend(q, k, v, mask_bias, head_dim).reshape(batch, d_model)
    return _residual_ffn(layer, cls, context)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray,
            mask_bias: np.ndarray, head_dim: int) -> np.ndarray:
    """Masked softmax attention (max-subtracted, like ``attention_weights``).

    The row sums are a matmul with a ones column: numpy's reductions
    along a short last axis cost more than the BLAS call.
    """
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= 1.0 / math.sqrt(head_dim)
    scores += mask_bias
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores @ np.ones((scores.shape[-1], 1))
    return scores @ v


def _residual_ffn(layer: TransformerEncoderLayer, x: np.ndarray,
                  context: np.ndarray) -> np.ndarray:
    """Attention output + residual + norm, then FFN + residual + norm."""
    hidden = _linear(layer.attention.output, context)
    hidden += x
    _layer_norm(hidden, layer.attention_norm)
    inner = _linear(layer.ffn_in, hidden)
    _gelu(inner)
    out = _linear(layer.ffn_out, inner)
    out += hidden
    _layer_norm(out, layer.ffn_norm)
    return out


def _linear(linear: Linear, x: np.ndarray) -> np.ndarray:
    out = x @ linear.weight.data
    if linear.bias is not None:
        out += linear.bias.data
    return out


def _layer_norm(x: np.ndarray, norm: LayerNorm) -> None:
    """In-place LayerNorm over the last axis.

    Mean and variance are matmuls with an averaging column: numpy's
    reductions along a short last axis cost more than the BLAS call.
    """
    average = np.full((x.shape[-1], 1), 1.0 / x.shape[-1])
    x -= x @ average
    variance = np.square(x) @ average
    variance += norm.eps
    np.sqrt(variance, out=variance)
    x /= variance
    x *= norm.weight.data
    x += norm.bias.data


def _gelu(x: np.ndarray) -> None:
    """In-place tanh-approximation GELU (the op order of ``F.gelu``)."""
    inner = np.square(x)
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= _SQRT_2_OVER_PI
    np.tanh(inner, out=inner)
    inner += 1.0
    x *= 0.5
    x *= inner
