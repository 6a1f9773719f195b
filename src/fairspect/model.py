"""Node classifier: transformer over eigenvalue tokens fused with zero-padded
attributes through a learned spectral filter, trained with Adam.

Architecture, one forward pass:

    eigenvalues -> sinusoidal tokens -> pre-norm transformer block -> per-layer
    scalar gates -> H_train = P diag(g) P^T H_padded -> ReLU((H_prev || H_train) W)
    -> ... -> linear 2-class head.

An ablation mode (``spectral_fusion=False``) swaps the eigenbasis filter for a
plain k-hop adjacency propagation of the padded attributes, keeping the rest
of the network identical; it exists so the contribution of the truncation can
be measured end to end.

All tensors are float64 and every source of randomness is seeded, so a given
(config, data, seed) reproduces bit-identical parameters.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoding import eigenvalue_position_encoding, propagate_k_hop, zero_pad
from .graph import AttributeMatrix, Graph, SensitiveColumn, Split
from .spectral import SpectralTruncation, top_m_eigenpairs

CHECKPOINT_FORMAT_VERSION = 1
FFN_WIDTH_FACTOR = 4


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the offending epoch index."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch} (non-finite loss)")
        self.epoch = epoch

    def __reduce__(self):
        # pickle calls the class with ``args``, which hold the message, not the epoch
        return type(self), (self.epoch,)


@dataclass
class TrainConfig:
    m: int = 8
    k_hops: int = 2
    layers: int = 1
    hidden: int = 64
    heads: int = 1
    d_m: int = 16
    lr: float = 0.01
    weight_decay: float = 5e-4
    epochs: int = 300
    seed: int = 0
    missing_rate: float = 0.0
    sensitive_in_features: bool = True
    spectral_fusion: bool = True
    train_size: int | None = None

    def validate(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lr < 0:
            raise ValueError("learning rate must be nonnegative")
        if self.weight_decay < 0:
            raise ValueError("weight decay must be nonnegative")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.k_hops < 0:
            raise ValueError("k_hops must be >= 0")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.hidden < 1:
            raise ValueError("hidden width must be >= 1")
        if self.d_m < 2 or self.d_m % 2:
            raise ValueError("d_m must be an even integer >= 2")
        if self.heads < 1 or self.d_m % self.heads:
            raise ValueError("heads must divide d_m")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValueError("missing_rate must be in [0, 1)")

    def as_dict(self) -> dict:
        return asdict(self)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> Tensor:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def init_params(config: TrainConfig, feature_width: int,
                seed: int | None = None) -> dict[str, Tensor]:
    """Seeded parameter initialisation for the given feature width.

    The parameters are one name -> tensor map; the names are the checkpoint's
    (``attn_q_0``, ``gate_w_1``, ``cls_b``, ...). Per-head and per-layer
    tensors carry their index as a suffix.
    """
    config.validate()
    rng = np.random.default_rng(config.seed if seed is None else seed)
    p: dict[str, Tensor] = {}
    d_m = config.d_m
    if config.spectral_fusion:
        d_head = d_m // config.heads
        for h in range(config.heads):
            for name in ("attn_q", "attn_k", "attn_v"):
                p[f"{name}_{h}"] = _glorot(rng, d_m, d_head, (d_m, d_head))
        p["ln_attn_scale"] = Tensor(np.ones(d_m), requires_grad=True)
        p["ln_attn_shift"] = _zeros(d_m)
        p["ln_ffn_scale"] = Tensor(np.ones(d_m), requires_grad=True)
        p["ln_ffn_shift"] = _zeros(d_m)
        ffn_dim = FFN_WIDTH_FACTOR * d_m
        p["ffn_w1"] = _glorot(rng, d_m, ffn_dim, (d_m, ffn_dim))
        p["ffn_b1"] = _zeros(ffn_dim)
        p["ffn_w2"] = _glorot(rng, ffn_dim, d_m, (ffn_dim, d_m))
        p["ffn_b2"] = _zeros(d_m)
        for layer in range(config.layers):
            p[f"gate_w_{layer}"] = _glorot(rng, d_m, 1, (d_m, 1))
            p[f"gate_b_{layer}"] = _zeros(1)
    width = feature_width
    for layer in range(config.layers):
        in_width = (width if layer == 0 else config.hidden) + feature_width
        p[f"fuse_w_{layer}"] = _glorot(rng, in_width, config.hidden, (in_width, config.hidden))
    p["cls_w"] = _glorot(rng, config.hidden, 2, (config.hidden, 2))
    p["cls_b"] = _zeros(2)
    return p


def _assign(params: dict[str, Tensor], values: dict[str, np.ndarray]):
    """Overwrite every parameter with ``values``, which must match in names and shapes."""
    if set(values) != set(params):
        raise ValueError("parameter name sets do not match")
    for k, t in params.items():
        if values[k].shape != t.data.shape:
            raise ValueError(f"shape mismatch for {k}: {values[k].shape} vs {t.data.shape}")
        t.data = values[k].astype(np.float64)


def attention(x: Tensor, w_q: Tensor, w_k: Tensor, w_v: Tensor) -> Tensor:
    """Scaled dot-product self-attention for one head.

    Softmax rows over keys sum to one; the scale is the square root of the
    projection width.
    """
    q = x @ w_q
    k = x @ w_k
    v = x @ w_v
    scale = 1.0 / np.sqrt(w_k.data.shape[1])
    weights = ad.softmax_rows((q @ ad.transpose(k)) * scale)
    return weights @ v


def attention_weights(x: np.ndarray, w_q: np.ndarray, w_k: np.ndarray) -> np.ndarray:
    """Numpy view of the softmax attention matrix (diagnostics and tests)."""
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
        out = ad.concat_cols(out, h)
    return out


def _layer_norm(x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    return ad.layer_norm_rows(x) * scale + shift


def transformer_block(e_pe: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Pre-norm block: attention and FFN sublayers, each with a residual."""
    attended = multi_head_attention(
        _layer_norm(e_pe, params["ln_attn_scale"], params["ln_attn_shift"]), params)
    e_mha = attended + e_pe
    hidden = ad.gelu(_layer_norm(e_mha, params["ln_ffn_scale"], params["ln_ffn_shift"])
                     @ params["ffn_w1"] + params["ffn_b1"])
    return hidden @ params["ffn_w2"] + params["ffn_b2"] + e_mha


def spectral_filter(p_st: Tensor, gates: Tensor, h_padded: Tensor) -> Tensor:
    """P diag(g) P^T H: one scalar multiplier per retained eigen-direction."""
    return p_st @ (gates * (ad.transpose(p_st) @ h_padded))


def fuse_layer(
    p_st: Tensor,
    e_gt: Tensor,
    h_padded: Tensor,
    h_prev: Tensor,
    gate_w: Tensor,
    gate_b: Tensor,
    fuse_w: Tensor,
) -> Tensor:
    """One fusion step: spectral filter of the padded attributes, then mix.

    The transformed eigen-tokens collapse to one scalar gate per token via the
    trainable gate map; the previous representation and the filtered
    attributes are concatenated and pushed through ReLU(W).
    """
    gates = e_gt @ gate_w + gate_b
    filtered = spectral_filter(p_st, gates, h_padded)
    return ad.relu(ad.concat_cols(h_prev, filtered) @ fuse_w)


@dataclass
class PreparedData:
    """Everything ``forward``/``train`` need, computed once per run."""

    features: np.ndarray
    labels: np.ndarray
    split: Split
    trunc: SpectralTruncation | None
    khop: np.ndarray | None


def structural_truncation(graph: Graph, config: TrainConfig) -> SpectralTruncation | None:
    """The top-m eigenbasis a config trains on; None without spectral fusion.

    It depends on the graph, m and the fusion switch only, so runs that share
    those (the cells of a sweep) can share one truncation.
    """
    if not config.spectral_fusion:
        return None
    return top_m_eigenpairs(graph, min(config.m, graph.n))


def prepare_inputs(
    graph: Graph,
    attrs: AttributeMatrix,
    sensitive: SensitiveColumn,
    labels: np.ndarray,
    split: Split,
    config: TrainConfig,
    trunc: SpectralTruncation | None = None,
) -> PreparedData:
    """Zero-pad attributes and precompute the structural encoding.

    ``sensitive`` is expected to already carry whatever mask the run uses;
    ground-truth values stay available for evaluation.
    """
    config.validate()
    padded = zero_pad(attrs, sensitive).values
    if not config.sensitive_in_features:
        padded = np.delete(padded, attrs.sensitive_index, axis=1)
    if config.spectral_fusion:
        if trunc is None:
            trunc = structural_truncation(graph, config)
        khop = None
    else:
        trunc = None
        khop = propagate_k_hop(graph, padded, config.k_hops, normalize=False)
    return PreparedData(features=padded, labels=labels, split=split, trunc=trunc, khop=khop)


def forward(data: PreparedData, params: dict[str, Tensor], config: TrainConfig) -> Tensor:
    """Logits for every node, (n, 2)."""
    h_padded = Tensor(data.features)
    h = h_padded
    if config.spectral_fusion:
        e_pe = Tensor(eigenvalue_position_encoding(data.trunc.eigenvalues, config.d_m))
        e_gt = transformer_block(e_pe, params)
        p_st = Tensor(data.trunc.eigenvectors)
        for layer in range(config.layers):
            h = fuse_layer(p_st, e_gt, h_padded, h, params[f"gate_w_{layer}"],
                           params[f"gate_b_{layer}"], params[f"fuse_w_{layer}"])
    else:
        hop_encoded = Tensor(data.khop)
        for layer in range(config.layers):
            h = ad.relu(ad.concat_cols(h, hop_encoded) @ params[f"fuse_w_{layer}"])
    return h @ params["cls_w"] + params["cls_b"]


def loss_on(data: PreparedData, params: dict[str, Tensor], config: TrainConfig,
            indices: np.ndarray) -> Tensor:
    logits = forward(data, params, config)
    return ad.mean_cross_entropy(ad.take_rows(logits, indices), data.labels[indices])


def gradients(params: dict[str, Tensor], data: PreparedData, config: TrainConfig,
              indices: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Reverse-mode gradients of the mean train cross entropy, by tensor name."""
    if indices is None:
        indices = data.split.train
    ad.zero_grads(params.values())
    loss = loss_on(data, params, config, indices)
    loss.backward()
    return {
        name: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for name, t in params.items()
    }


class Adam:
    """Adam with L2-style weight decay folded into the gradient."""

    def __init__(self, tensors: dict[str, Tensor], lr: float, weight_decay: float = 0.0,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.tensors = tensors
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.first = {k: np.zeros_like(t.data) for k, t in tensors.items()}
        self.second = {k: np.zeros_like(t.data) for k, t in tensors.items()}

    def step(self):
        self.step_count += 1
        correction1 = 1.0 - self.beta1 ** self.step_count
        correction2 = 1.0 - self.beta2 ** self.step_count
        for name, tensor in self.tensors.items():
            grad = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
            if self.weight_decay:
                grad = grad + self.weight_decay * tensor.data
            m = self.first[name] = self.beta1 * self.first[name] + (1 - self.beta1) * grad
            v = self.second[name] = self.beta2 * self.second[name] + (1 - self.beta2) * grad * grad
            tensor.data = tensor.data - self.lr * (m / correction1) / (
                np.sqrt(v / correction2) + self.eps)


def argmax_predict(logits: np.ndarray) -> np.ndarray:
    """Class per row; exact ties resolve to class 0 (first maximum)."""
    return np.argmax(logits, axis=1).astype(np.int64)


def predict(params: dict[str, Tensor], data: PreparedData, config: TrainConfig) -> np.ndarray:
    return argmax_predict(forward(data, params, config).data)


def train(data: PreparedData, config: TrainConfig) -> tuple[dict[str, Tensor], dict]:
    """Full-graph Adam training with best-validation-accuracy model selection.

    History holds the per-epoch train loss and validation accuracy. The
    returned parameters are the snapshot from the first epoch achieving the
    best validation accuracy. Raises TrainingDivergedError on non-finite loss.

    Each step runs one forward: the logits after step e score step e on the
    validation nodes and give step e + 1 its loss.
    """
    config.validate()
    params = init_params(config, data.features.shape[1])
    optimizer = Adam(params, lr=config.lr, weight_decay=config.weight_decay)
    history = {"train_loss": [], "val_acc": []}
    train_idx, val_idx = data.split.train, data.split.val
    select = len(val_idx) > 0  # no validation signal -> keep final params
    best_acc = -1.0
    best_values = {k: t.data.copy() for k, t in params.items()}
    logits = forward(data, params, config)
    for epoch in range(config.epochs):
        loss = ad.mean_cross_entropy(ad.take_rows(logits, train_idx), data.labels[train_idx])
        loss_value = float(loss.data)
        if not np.isfinite(loss_value):
            raise TrainingDivergedError(epoch)
        ad.zero_grads(params.values())
        loss.backward()
        optimizer.step()
        logits = forward(data, params, config)
        if select:
            val_pred = argmax_predict(logits.data[val_idx])
            val_acc = float(np.mean(val_pred == data.labels[val_idx]))
        else:
            val_acc = float("nan")
        history["train_loss"].append(loss_value)
        history["val_acc"].append(val_acc)
        if select and val_acc > best_acc:
            best_acc = val_acc
            best_values = {k: t.data.copy() for k, t in params.items()}
    if select:
        _assign(params, best_values)
    return params, history


def save_checkpoint(path, params: dict[str, Tensor], config: TrainConfig):
    """Versioned binary container of all parameter tensors with shape headers."""
    arrays = {f"param__{k}": t.data for k, t in params.items()}
    np.savez(
        path,
        format_version=np.array(CHECKPOINT_FORMAT_VERSION),
        config_json=np.array(json.dumps(config.as_dict(), sort_keys=True)),
        **arrays,
    )


def load_checkpoint(path, config: TrainConfig, feature_width: int) -> dict[str, Tensor]:
    """Rebuild parameters from a checkpoint, validating config and shapes.

    The config the checkpoint was trained under must equal ``config`` field
    for field: parameter shapes do not depend on every field (m, for one), so
    shapes alone would let a mismatched config through.
    """
    with np.load(path, allow_pickle=False) as archive:
        version = int(archive["format_version"])
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version {version}")
        stored = json.loads(str(archive["config_json"]))
        given = json.loads(json.dumps(config.as_dict()))
        differing = sorted(k for k in stored.keys() | given.keys()
                           if stored.get(k) != given.get(k))
        if differing:
            raise ValueError("checkpoint was trained under another config: " + ", ".join(
                f"{k} (stored {stored.get(k)!r}, given {given.get(k)!r})" for k in differing))
        values = {
            key[len("param__"):]: archive[key]
            for key in archive.files if key.startswith("param__")
        }
    params = init_params(config, feature_width)
    _assign(params, values)
    return params
