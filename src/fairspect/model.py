"""Node classifier: transformer over eigenvalue tokens fused with zero-padded
attributes through a learned spectral filter, trained with Adam.

``prepare_inputs`` builds the network's constant inputs once per run from
the eigenbasis it is given (``structural_truncation``): the table
[H_padded | side] for every node, the sinusoidal tokens of the top-m
eigenvalues and C = P^T H_padded. A ``TrainConfig`` checks its values when it
is made, so no function here checks them again. The network then runs in two
stages:

    row-independent, once per set of parameters (``layer_weights``):
        eigen-tokens -> pre-norm transformer block
        -> per-layer scalar gates g -> one weight per layer,
        W_folded = (W_upper ; diag(g) C W_lower)
    per row, shared by both encoders and streamed over row blocks:
        h = H_padded; for each layer, h = ReLU((h || side) W_layer)
        -> linear 2-class head.
    The first stage (``spectral_stage``) returns the weights and their
    pullback, both in closed form. ``loss`` is one autodiff node over the
    parameters: the mean cross entropy, differentiated block by block
    (``autodiff.relu_layers_loss``), with the layers' gradients taken through
    the pullback. ``forward`` returns the logits (``relu_layers_logits``).

Here side is P (the top-m eigenvectors) and W_layer the folded weight. Since
(H_prev || P diag(g) C) W = (H_prev || P) W_folded, that is the spectral
filter H_train = P diag(g) P^T H_padded followed by ReLU((H_prev || H_train) W),
computed without building the (rows, d) filtered array; only the rounding of
the sums differs. The first stage reads no row, so ``train`` computes it
once per optimiser step and shares it between that step's validation and the
next step's loss. A step's tape is the loss node alone.

Given a second CPU, ``train`` forks one helper process for the run
(``autodiff.LossHelper``). Of each loss's B row blocks the helper takes
0, 1, ... and this process B - 1, B - 2, ..., one at a time, until none is
left; each of this process's blocks is then added onto the helper's
gradient sums in block order. The sums are formed in the serial order, so
parameters, history and checkpoints are bit-identical to one CPU.
``forward``, ``predict``, ``gradients`` and ``loss_on`` always run serially.

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
from scipy.special import erf

from . import autodiff as ad
from .autodiff import Tensor
from .encoding import eigenvalue_position_encoding, propagate_k_hop, zero_pad
from .graph import AttributeMatrix, Graph, SensitiveColumn, Split
from .spectral import SpectralTruncation, top_m_eigenpairs

CHECKPOINT_FORMAT_VERSION = 1
FFN_WIDTH_FACTOR = 4
# the constants of the stage's exact GELU and its layer norms
INV_SQRT2 = 1.0 / np.sqrt(2.0)
INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
LAYER_NORM_EPS = 1e-5


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the offending epoch index."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch} (non-finite loss)")
        self.epoch = epoch

    def __reduce__(self):
        # pickle calls the class with ``args``, which hold the message, not the epoch
        return type(self), (self.epoch,)


@dataclass(frozen=True)
class TrainConfig:
    """One run's settings, checked when made; a made config cannot change."""

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

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        # a NaN fails every comparison, so each bound is stated as what passes
        if not 0 <= self.lr < float("inf"):
            raise ValueError("learning rate must be finite and nonnegative")
        if not 0 <= self.weight_decay < float("inf"):
            raise ValueError("weight decay must be finite and nonnegative")
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
        # the upper bound depends on n, so make_split checks it
        if self.train_size is not None and self.train_size < 1:
            raise ValueError("train_size must be >= 1")

    def as_dict(self) -> dict:
        return asdict(self)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> Tensor:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def init_params(config: TrainConfig, feature_width: int) -> dict[str, Tensor]:
    """Seeded parameter initialisation for the given feature width.

    The parameters are one name -> tensor map; the names are the checkpoint's
    (``attn_q_0``, ``gate_w_1``, ``cls_b``, ...). Per-head and per-layer
    tensors carry their index as a suffix.
    """
    rng = np.random.default_rng(config.seed)
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
    trunc: SpectralTruncation | None,
) -> PreparedData:
    """Zero-pad attributes and build the network's constant inputs.

    ``trunc`` is the eigenbasis the run trains on, as ``structural_truncation``
    returns it: None exactly when spectral fusion is off. ``sensitive`` is
    expected to already carry whatever mask the run uses; ground-truth values
    stay available for evaluation.
    """
    padded = zero_pad(attrs, sensitive)
    if not config.sensitive_in_features:
        padded = np.delete(padded, attrs.sensitive_index, axis=1)
    if config.spectral_fusion:
        side = trunc.eigenvectors
        tokens = eigenvalue_position_encoding(trunc.eigenvalues, config.d_m)
        coeffs = side.T @ padded
    else:
        side = propagate_k_hop(graph, padded, config.k_hops)
        tokens = coeffs = None
    return PreparedData(inputs=np.concatenate([padded, side], axis=1),
                        width=padded.shape[1], labels=labels, split=split,
                        tokens=tokens, coeffs=coeffs)


def _normalise_rows(x: np.ndarray):
    """Rows at zero mean and unit variance (population variance), and the
    inverse standard deviation per row."""
    centred = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centred ** 2).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    return centred * inv, inv


def spectral_stage(data: PreparedData, params: dict[str, Tensor], config: TrainConfig):
    """The fusion layers' weights under spectral fusion, and their pullback,
    both written out in closed form.

    The eigen-tokens go through a pre-norm transformer block: an attention
    sublayer (layer norm, every head, residual) and a GELU FFN sublayer (layer
    norm, two linear maps, residual). Each layer's gate map turns the result
    into one gate per eigen-direction, and the filter is folded into the
    fusion weight, (W_upper ; diag(g) C W_lower). Returns the weights, one
    array per layer, and ``pullback``, which maps one gradient per layer
    weight to the gradient of every parameter the stage reads, by name. The
    values are bit-identical to the same stage composed from elementary
    nodes; the gradients agree up to the order of their sums.
    """
    heads = range(config.heads)
    layers = range(config.layers)
    p = {name: t.data for name, t in params.items()}
    tokens, coeffs = data.tokens, data.coeffs
    d_head = config.d_m // config.heads
    scale = 1.0 / np.sqrt(d_head)

    y_attn, _ = _normalise_rows(tokens)
    x = y_attn * p["ln_attn_scale"] + p["ln_attn_shift"]
    attended = []
    for h in heads:
        q, k, v = (x @ p[f"attn_{kind}_{h}"] for kind in "qkv")
        scores = (q @ k.T) * scale
        exp = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = exp / exp.sum(axis=-1, keepdims=True)
        attended.append((q, k, v, attn, attn @ v))
    e_mha = np.concatenate([head[-1] for head in attended], axis=1) + tokens
    y_ffn, inv_ffn = _normalise_rows(e_mha)
    z = y_ffn * p["ln_ffn_scale"] + p["ln_ffn_shift"]
    u = z @ p["ffn_w1"] + p["ffn_b1"]
    cdf = 0.5 * (1.0 + erf(u * INV_SQRT2))
    f = u * cdf
    e_gt = f @ p["ffn_w2"] + p["ffn_b2"] + e_mha
    # per layer: the width of h_prev, and diag(g) C
    folds, weights = [], []
    for layer in layers:
        fuse_w = p[f"fuse_w_{layer}"]
        upper = fuse_w.shape[0] - data.width
        gc = (e_gt @ p[f"gate_w_{layer}"] + p[f"gate_b_{layer}"]) * coeffs
        folds.append((upper, gc))
        weights.append(np.concatenate([fuse_w[:upper], gc @ fuse_w[upper:]]))

    def pullback(layer_grads):
        grads = {}
        d_gt = np.zeros_like(e_gt)
        for layer, (upper, gc), grad in zip(layers, folds, layer_grads):
            fuse_w, gate_w = p[f"fuse_w_{layer}"], p[f"gate_w_{layer}"]
            d_lower = grad[upper:]
            grads[f"fuse_w_{layer}"] = np.concatenate([grad[:upper], gc.T @ d_lower])
            d_gates = ((d_lower @ fuse_w[upper:].T) * coeffs).sum(axis=1, keepdims=True)
            grads[f"gate_w_{layer}"] = e_gt.T @ d_gates
            grads[f"gate_b_{layer}"] = d_gates.sum(axis=0)
            d_gt += d_gates @ gate_w.T
        grads["ffn_b2"] = d_gt.sum(axis=0)
        grads["ffn_w2"] = f.T @ d_gt
        pdf = np.exp(-0.5 * u * u) * INV_SQRT_2PI
        d_u = (d_gt @ p["ffn_w2"].T) * (cdf + u * pdf)
        grads["ffn_b1"] = d_u.sum(axis=0)
        grads["ffn_w1"] = z.T @ d_u
        d_z = d_u @ p["ffn_w1"].T
        grads["ln_ffn_scale"] = (d_z * y_ffn).sum(axis=0)
        grads["ln_ffn_shift"] = d_z.sum(axis=0)
        d_y = d_z * p["ln_ffn_scale"]
        d_mha = d_gt + inv_ffn * (d_y - d_y.mean(axis=-1, keepdims=True)
                                  - y_ffn * (d_y * y_ffn).mean(axis=-1, keepdims=True))
        d_x = np.zeros_like(x)
        for h, (q, k, v, attn, _) in zip(heads, attended):
            d_out = d_mha[:, h * d_head:(h + 1) * d_head]
            d_attn = d_out @ v.T
            d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True)) * scale
            for kind, d in (("q", d_scores @ k), ("k", d_scores.T @ q), ("v", attn.T @ d_out)):
                grads[f"attn_{kind}_{h}"] = x.T @ d
                d_x += d @ p[f"attn_{kind}_{h}"].T
        grads["ln_attn_scale"] = (d_x * y_attn).sum(axis=0)
        grads["ln_attn_shift"] = d_x.sum(axis=0)
        return grads

    return weights, pullback


def layer_weights(data: PreparedData, params: dict[str, Tensor], config: TrainConfig):
    """One weight per fusion layer over [h_prev | side], as arrays, and their
    pullback: a gradient per weight in, each parameter's gradient by name out.

    Without spectral fusion the weights are ``fuse_w_<layer>`` themselves.
    With it, they come from ``spectral_stage``:
    (h_prev || P diag(g) C) W = (h_prev || P) (W_upper ; diag(g) C W_lower),
    with W split at the width of h_prev.
    """
    if config.spectral_fusion:
        return spectral_stage(data, params, config)
    names = [f"fuse_w_{layer}" for layer in range(config.layers)]
    return [params[name].data for name in names], lambda grads: dict(zip(names, grads))


def forward(data: PreparedData, params: dict[str, Tensor], config: TrainConfig,
            stage=None) -> np.ndarray:
    """Logits for every node of ``data``, (n, 2), as a plain array.

    ``stage`` is ``layer_weights(data, params, config)``, computed here when
    not given; any ``data`` of the same run gives the same stage.
    """
    weights, _ = layer_weights(data, params, config) if stage is None else stage
    return ad.relu_layers_logits(data.inputs, data.inputs[:, data.width:], weights,
                                 params["cls_w"].data, params["cls_b"].data)


def loss(data: PreparedData, params: dict[str, Tensor], config: TrainConfig,
         stage=None, helper: ad.LossHelper | None = None) -> Tensor:
    """Mean cross entropy over every node of ``data``, as one autodiff node
    over the parameters; its adjoint takes the layers' gradients through the
    stage's pullback.

    ``stage`` as in ``forward``; the logits are those ``forward`` returns.
    ``helper``, started for ``data``'s rows, runs about half of the row blocks.
    """
    weights, pullback = layer_weights(data, params, config) if stage is None else stage
    value, sums = ad.relu_layers_loss(data.inputs, data.inputs[:, data.width:], weights,
                                      params["cls_w"].data, params["cls_b"].data,
                                      data.labels, helper)

    def adjoint(g):
        *layer_grads, d_head_w, d_head_b = [float(g) * t for t in sums]
        grads = {**pullback(layer_grads), "cls_w": d_head_w, "cls_b": d_head_b}
        return [grads[name] for name in params]

    return ad.fused(value, tuple(params.values()), adjoint)


def loss_on(data: PreparedData, params: dict[str, Tensor], config: TrainConfig,
            indices: np.ndarray) -> Tensor:
    """Mean cross entropy over the nodes ``indices``, from those rows alone."""
    return loss(data.take(indices), params, config)


def gradients(params: dict[str, Tensor], data: PreparedData,
              config: TrainConfig) -> dict[str, np.ndarray]:
    """Reverse-mode gradients of the mean train cross entropy, by tensor name."""
    ad.zero_grads(params.values())
    loss_on(data, params, config, data.split.train).backward()
    return {name: t.grad for name, t in params.items()}


class Adam:
    """Adam with L2-style weight decay folded into the gradient.

    The values of all tensors live in one flat vector, and each tensor's
    ``data`` becomes a view into it, so a step is a few operations over that
    vector rather than a loop of them per tensor. A tensor whose ``data`` is
    later rebound to another array is no longer updated.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, tensors: dict[str, Tensor], lr: float, weight_decay: float = 0.0):
        self.tensors = tensors
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.values = np.concatenate([t.data.ravel() for t in tensors.values()])
        bounds = np.cumsum([t.data.size for t in tensors.values()])[:-1]
        for tensor, view in zip(tensors.values(), np.split(self.values, bounds)):
            tensor.data = view.reshape(tensor.data.shape)
        self.first = np.zeros_like(self.values)
        self.second = np.zeros_like(self.values)

    def step(self):
        """One update; grad is every tensor's ``grad`` (zeros for None), flattened like values:

            grad = grad + weight_decay * values
            first = beta1 * first + (1 - beta1) * grad
            second = beta2 * second + (1 - beta2) * grad * grad
            values -= lr * (first / correction1) / (sqrt(second / correction2) + eps)
        """
        self.step_count += 1
        correction1 = 1.0 - self.beta1 ** self.step_count
        correction2 = 1.0 - self.beta2 ** self.step_count
        grad = np.concatenate([np.zeros(t.data.size) if t.grad is None else t.grad.ravel()
                               for t in self.tensors.values()])
        if self.weight_decay:
            grad += self.weight_decay * self.values
        self.first = self.beta1 * self.first + (1 - self.beta1) * grad
        self.second = self.beta2 * self.second + (1 - self.beta2) * grad * grad
        self.values -= self.lr * (self.first / correction1) / (
            np.sqrt(self.second / correction2) + self.eps)


def predict(params: dict[str, Tensor], data: PreparedData, config: TrainConfig,
            stage=None) -> np.ndarray:
    return np.argmax(forward(data, params, config, stage), axis=1)


def train(data: PreparedData, config: TrainConfig,
          cpus: int = 1) -> tuple[dict[str, Tensor], dict]:
    """Adam training with best-validation-accuracy model selection.

    Each step takes the loss on the train rows, steps, then scores the
    validation rows; no forward covers the rest of the graph. History holds
    the per-epoch train loss and validation accuracy. The returned parameters
    are the snapshot from the first epoch achieving the best validation
    accuracy. Raises TrainingDivergedError on non-finite loss.

    With ``cpus`` of 2 or more and train rows spanning at least two row
    blocks, a forked ``autodiff.LossHelper`` runs about half of every loss's
    row blocks for the whole run, and is closed when training ends or
    raises. The results are bit-identical to one CPU.
    """
    params = init_params(config, data.width)
    optimizer = Adam(params, lr=config.lr, weight_decay=config.weight_decay)
    history = {"train_loss": [], "val_acc": []}
    train_rows, val_rows = data.take(data.split.train), data.take(data.split.val)
    select = len(val_rows.labels) > 0  # no validation signal -> keep final params
    best_acc = -1.0
    best = optimizer.values.copy()
    stage = layer_weights(data, params, config)
    shapes = [w.shape for w in stage[0]] + [params[n].data.shape for n in ("cls_w", "cls_b")]
    with ad.loss_helper(train_rows.inputs, train_rows.inputs[:, data.width:],
                        train_rows.labels, shapes, cpus) as helper:
        for epoch in range(config.epochs):
            step_loss = loss(train_rows, params, config, stage, helper)
            loss_value = float(step_loss.data)
            if not np.isfinite(loss_value):
                raise TrainingDivergedError(epoch)
            ad.zero_grads(params.values())
            step_loss.backward()
            optimizer.step()
            # the parameters only change here: one weight computation serves
            # this step's validation and the next step's loss
            stage = layer_weights(data, params, config)
            if select:
                val_acc = float(np.mean(predict(params, val_rows, config, stage)
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
