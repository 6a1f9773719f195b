"""Node classifier: transformer over eigenvalue tokens fused with zero-padded
attributes through a learned spectral filter, trained with Adam.

``prepare_inputs`` builds the network's constant inputs once per run: the
table [H_padded | side] for every node, the sinusoidal tokens of the top-m
eigenvalues and C = P^T H_padded. The network then runs in two stages:

    row-independent, once per set of parameters (``layer_weights``):
        eigen-tokens -> pre-norm transformer block
        -> per-layer scalar gates g -> one weight per layer,
        W_folded = (W_upper ; diag(g) C W_lower)
    per row, shared by both encoders and streamed over row blocks:
        h = H_padded; for each layer, h = ReLU((h || side) W_layer)
        -> linear 2-class head.
    ``loss`` takes the mean cross entropy of those logits as one autodiff node
    (``autodiff.relu_layers_loss``) that differentiates each block as it goes,
    and ``forward`` returns the logits alone (``autodiff.relu_layers_logits``).

Here side is P (the top-m eigenvectors) and W_layer the folded weight. Since
(H_prev || P diag(g) C) W = (H_prev || P) W_folded, that is the spectral
filter H_train = P diag(g) P^T H_padded followed by ReLU((H_prev || H_train) W),
computed without building the (rows, d) filtered array; only the rounding of
the sums differs. No node enters the first stage, so ``train`` computes it
once per optimiser step and shares it between that step's validation and the
next step's loss.

An ablation mode (``spectral_fusion=False``) swaps the eigenbasis filter for a
plain k-hop adjacency propagation of the padded attributes: side is the k-hop
matrix and W_layer is ``fuse_w_<layer>`` itself, the rest of the network
identical; it exists so the contribution of the truncation can
be measured end to end.

All tensors are float64 and every source of randomness is seeded, so a given
(config, data, seed) reproduces bit-identical parameters.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

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


def spectral_filter(p_st: Tensor, gates: Tensor, coeffs: Tensor) -> Tensor:
    """P diag(g) C, with C = P^T H precomputed: one multiplier per eigen-direction.

    ``layer_weights`` folds this product into the fusion weight rather than
    building it; this unfolded form is the reference the tests compare against.
    """
    return p_st @ (gates * coeffs)


@dataclass(frozen=True)
class PreparedData:
    """What the network reads, built once per run by ``prepare_inputs``.

    ``inputs`` is [H | side] for every node: H the padded attributes (its first
    ``width`` columns) and side the per-node input every fusion layer appends
    to h, P or the k-hop matrix. ``tokens`` are the eigenvalues' sinusoidal
    encoding (m, d_m) and ``coeffs`` is P^T H (m, width); both are None
    without spectral fusion.
    """

    inputs: np.ndarray
    width: int
    labels: np.ndarray
    split: Split
    tokens: np.ndarray | None
    coeffs: np.ndarray | None

    def take(self, rows) -> PreparedData:
        """The inputs of the nodes ``rows``. Every row shares ``tokens`` and
        ``coeffs``, so ``forward(data.take(rows))`` is ``forward(data)`` on those
        rows. ``split`` still indexes the full graph."""
        return replace(self, inputs=self.inputs[rows], labels=self.labels[rows])


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
    padded = zero_pad(attrs, sensitive)
    if not config.sensitive_in_features:
        padded = np.delete(padded, attrs.sensitive_index, axis=1)
    if config.spectral_fusion:
        if trunc is None:
            trunc = structural_truncation(graph, config)
        side = trunc.eigenvectors
        tokens = eigenvalue_position_encoding(trunc.eigenvalues, config.d_m)
        coeffs = side.T @ padded
    else:
        side = propagate_k_hop(graph, padded, config.k_hops)
        tokens = coeffs = None
    return PreparedData(inputs=np.concatenate([padded, side], axis=1),
                        width=padded.shape[1], labels=labels, split=split,
                        tokens=tokens, coeffs=coeffs)


def layer_weights(data: PreparedData, params: dict[str, Tensor],
                  config: TrainConfig) -> list[Tensor]:
    """One weight per fusion layer over [h_prev | side]; no node enters it.

    Without spectral fusion that is ``fuse_w_<layer>`` itself. With it, the
    eigen-tokens go through the transformer block, each layer's gate map turns
    them into one gate per eigen-direction, and the filter is folded in:
    (h_prev || P diag(g) C) W = (h_prev || P) (W_upper ; diag(g) C W_lower),
    with W split at the width of h_prev.
    """
    fuse_ws = [params[f"fuse_w_{layer}"] for layer in range(config.layers)]
    if not config.spectral_fusion:
        return fuse_ws
    e_gt = transformer_block(Tensor(data.tokens), params)
    coeffs = Tensor(data.coeffs)
    weights = []
    for layer, fuse_w in enumerate(fuse_ws):
        gates = e_gt @ params[f"gate_w_{layer}"] + params[f"gate_b_{layer}"]
        width = fuse_w.data.shape[0] - data.width
        weights.append(ad.concat_rows(ad.slice_rows(fuse_w, 0, width),
                                      (gates * coeffs) @ ad.slice_rows(fuse_w, width)))
    return weights


def forward(data: PreparedData, params: dict[str, Tensor], config: TrainConfig,
            weights: list[Tensor] | None = None) -> np.ndarray:
    """Logits for every node of ``data``, (n, 2), as a plain array.

    ``weights`` are ``layer_weights(data, params, config)``, computed here when
    not given; any ``data`` of the same run gives the same weights.
    """
    if weights is None:
        weights = layer_weights(data, params, config)
    return ad.relu_layers_logits(data.inputs, data.inputs[:, data.width:],
                                 [w.data for w in weights], params["cls_w"].data,
                                 params["cls_b"].data)


def loss(data: PreparedData, params: dict[str, Tensor], config: TrainConfig,
         weights: list[Tensor] | None = None) -> Tensor:
    """Mean cross entropy over every node of ``data``, as one autodiff node.

    ``weights`` as in ``forward``; the logits are those ``forward`` returns.
    """
    if weights is None:
        weights = layer_weights(data, params, config)
    return ad.relu_layers_loss(data.inputs, data.inputs[:, data.width:], weights,
                               params["cls_w"], params["cls_b"], data.labels)


def loss_on(data: PreparedData, params: dict[str, Tensor], config: TrainConfig,
            indices: np.ndarray) -> Tensor:
    """Mean cross entropy over the nodes ``indices``, from those rows alone."""
    return loss(data.take(indices), params, config)


def gradients(params: dict[str, Tensor], data: PreparedData, config: TrainConfig,
              indices: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Reverse-mode gradients of the mean train cross entropy, by tensor name."""
    if indices is None:
        indices = data.split.train
    ad.zero_grads(params.values())
    loss_on(data, params, config, indices).backward()
    return {
        name: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for name, t in params.items()
    }


class Adam:
    """Adam with L2-style weight decay folded into the gradient.

    The values of all tensors live in one flat vector, and each tensor's
    ``data`` becomes a view into it, so a step is a few operations over that
    vector rather than a loop of them per tensor. A tensor whose ``data`` is
    later rebound to another array is no longer updated.
    """

    def __init__(self, tensors: dict[str, Tensor], lr: float, weight_decay: float = 0.0,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.tensors = tensors
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.values = np.concatenate([t.data.ravel() for t in tensors.values()])
        self.grad = np.empty_like(self.values)
        self._grad_views = []
        start = 0
        for tensor in tensors.values():
            stop = start + tensor.data.size
            tensor.data = self.values[start:stop].reshape(tensor.data.shape)
            self._grad_views.append(self.grad[start:stop].reshape(tensor.data.shape))
            start = stop
        self.first = np.zeros_like(self.values)
        self.second = np.zeros_like(self.values)

    def step(self):
        self.step_count += 1
        correction1 = 1.0 - self.beta1 ** self.step_count
        correction2 = 1.0 - self.beta2 ** self.step_count
        for tensor, view in zip(self.tensors.values(), self._grad_views):
            view[...] = 0.0 if tensor.grad is None else tensor.grad
        grad = self.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * self.values
        self.first = self.beta1 * self.first + (1 - self.beta1) * grad
        self.second = self.beta2 * self.second + (1 - self.beta2) * grad * grad
        self.values -= self.lr * (self.first / correction1) / (
            np.sqrt(self.second / correction2) + self.eps)


def argmax_predict(logits: np.ndarray) -> np.ndarray:
    """Class per row, ``np.argmax(logits, axis=1)``: exact ties resolve to the
    first maximum, and a NaN counts as the maximum.

    The classes are compared column by column; a reduction along the short
    class axis costs far more than one pass per column.
    """
    best = logits[:, 0]
    classes = np.zeros(len(logits), dtype=np.int64)
    for c in range(1, logits.shape[1]):
        column = logits[:, c]
        # a NaN column beats any number; nothing beats a NaN
        better = ~(column <= best) & (best == best)
        classes = np.where(better, c, classes)
        best = np.where(better, column, best)
    return classes


def predict(params: dict[str, Tensor], data: PreparedData, config: TrainConfig,
            weights: list[Tensor] | None = None) -> np.ndarray:
    return argmax_predict(forward(data, params, config, weights))


def train(data: PreparedData, config: TrainConfig) -> tuple[dict[str, Tensor], dict]:
    """Adam training with best-validation-accuracy model selection.

    Each step takes the loss on the train rows, steps, then scores the
    validation rows; no forward covers the rest of the graph. History holds
    the per-epoch train loss and validation accuracy. The returned parameters
    are the snapshot from the first epoch achieving the best validation
    accuracy. Raises TrainingDivergedError on non-finite loss.
    """
    config.validate()
    params = init_params(config, data.width)
    optimizer = Adam(params, lr=config.lr, weight_decay=config.weight_decay)
    history = {"train_loss": [], "val_acc": []}
    train_rows, val_rows = data.take(data.split.train), data.take(data.split.val)
    select = len(val_rows.labels) > 0  # no validation signal -> keep final params
    best_acc = -1.0
    best = optimizer.values.copy()
    weights = layer_weights(data, params, config)
    for epoch in range(config.epochs):
        step_loss = loss(train_rows, params, config, weights)
        loss_value = float(step_loss.data)
        if not np.isfinite(loss_value):
            raise TrainingDivergedError(epoch)
        ad.zero_grads(params.values())
        step_loss.backward()
        optimizer.step()
        # the parameters only change here: one weight computation serves this
        # step's validation and the next step's loss
        weights = layer_weights(data, params, config)
        if select:
            val_acc = float(np.mean(predict(params, val_rows, config, weights)
                                    == val_rows.labels))
        else:
            val_acc = float("nan")
        history["train_loss"].append(loss_value)
        history["val_acc"].append(val_acc)
        if select and val_acc > best_acc:
            best_acc = val_acc
            best = optimizer.values.copy()
    if select:
        optimizer.values[...] = best
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
    if set(values) != set(params):
        raise ValueError("parameter name sets do not match")
    for k, t in params.items():
        if values[k].shape != t.data.shape:
            raise ValueError(f"shape mismatch for {k}: {values[k].shape} vs {t.data.shape}")
        t.data = values[k].astype(np.float64)
    return params
