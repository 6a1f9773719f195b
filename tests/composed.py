"""The row-independent stage composed from elementary autodiff nodes.

``model.spectral_stage`` runs this stage in closed form; the tests
hold its values and gradients against the composition here, built from the
operations of ``elementary.py``, whose every adjoint is checked against
finite differences in ``test_autodiff.py``.
"""

import numpy as np

import elementary as ops
from elementary import Tensor


def attention(x: Tensor, w_q: Tensor, w_k: Tensor, w_v: Tensor) -> Tensor:
    """Scaled dot-product self-attention for one head.

    Softmax rows over keys sum to one; the scale is the square root of the
    projection width.
    """
    q = x @ w_q
    k = x @ w_k
    v = x @ w_v
    scale = 1.0 / np.sqrt(w_k.data.shape[1])
    weights = ops.softmax_rows((q @ ops.transpose(k)) * scale)
    return weights @ v


def attention_weights(x: np.ndarray, w_q: np.ndarray, w_k: np.ndarray) -> np.ndarray:
    """Numpy view of the softmax attention matrix."""
    q = x @ w_q
    k = x @ w_k
    scores = q @ k.T / np.sqrt(w_k.shape[1])
    shifted = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def multi_head_attention(x: Tensor, params: dict[str, Tensor]) -> Tensor:
    heads = [
        attention(x, params[f"attn_q_{h}"], params[f"attn_k_{h}"], params[f"attn_v_{h}"])
        for h in range(sum(name.startswith("attn_q_") for name in params))
    ]
    out = heads[0]
    for h in heads[1:]:
        out = ops.concat_cols(out, h)
    return out


def _layer_norm(x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    return ops.layer_norm_rows(x) * scale + shift


def transformer_block(e_pe: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Pre-norm block: attention and FFN sublayers, each with a residual."""
    attended = multi_head_attention(
        _layer_norm(e_pe, params["ln_attn_scale"], params["ln_attn_shift"]), params)
    e_mha = attended + e_pe
    hidden = ops.gelu(_layer_norm(e_mha, params["ln_ffn_scale"], params["ln_ffn_shift"])
                      @ params["ffn_w1"] + params["ffn_b1"])
    return hidden @ params["ffn_w2"] + params["ffn_b2"] + e_mha


def spectral_filter(p_st: Tensor, gates: Tensor, coeffs: Tensor) -> Tensor:
    """P diag(g) C, with C = P^T H precomputed: one multiplier per eigen-direction.

    The stage folds this product into the fusion weight rather than building it.
    """
    return p_st @ (gates * coeffs)


def composed_layer_weights(data, params: dict[str, Tensor], config) -> list[Tensor]:
    """``model.layer_weights`` under spectral fusion, node by node: the transformer
    block, each layer's gates, and the fold (W_upper ; diag(g) C W_lower)."""
    e_gt = transformer_block(Tensor(data.tokens), params)
    coeffs = Tensor(data.coeffs)
    weights = []
    for layer in range(config.layers):
        fuse_w = params[f"fuse_w_{layer}"]
        gates = e_gt @ params[f"gate_w_{layer}"] + params[f"gate_b_{layer}"]
        width = fuse_w.data.shape[0] - data.width
        weights.append(ops.concat_rows(ops.slice_rows(fuse_w, 0, width),
                                       (gates * coeffs) @ ops.slice_rows(fuse_w, width)))
    return weights
