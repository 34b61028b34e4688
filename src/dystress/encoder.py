"""A small trainable MLP encoder with manual reverse-mode gradients.

Affine layers with an elementwise nonlinearity between them (none after the
last affine layer) and a final row-wise L2 normalization. The normalization
Jacobian (I - zz^T)/|y| is applied here, so the loss module can treat
embeddings as free points. SGD with momentum and weight decay is the only
optimizer; defaults follow the usual contrastive pre-training recipe
(momentum 0.9, weight decay 5e-4).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import NumericError, ValidationError, check_float, check_int
from .geometry import unit_rows
from .numeric import Rng, row_sums

CHECKPOINT_MAGIC = "DYSTRESS-CKPT-1"
NONLINEARITIES = ("tanh", "relu")


@dataclass(frozen=True)
class EncoderSpec:
    """Layer widths (input, hidden..., output), nonlinearity, and init scale."""

    layer_widths: tuple[int, ...] = (32, 64, 16)
    nonlinearity: str = "tanh"
    init_scale: float = 1.0

    def __post_init__(self):
        widths = tuple(check_int("layer width", w, 1) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2:
            raise ValidationError("need at least one affine layer (two widths)")
        check_int("output dimension", widths[-1], 2)
        if self.nonlinearity not in NONLINEARITIES:
            raise ValidationError(f"nonlinearity must be one of {NONLINEARITIES}")
        check_float("init_scale", self.init_scale, 0.0, open_low=True)

    @property
    def num_layers(self) -> int:
        return len(self.layer_widths) - 1


@dataclass
class EncoderParams:
    """Per-layer weight matrices (out x in) and bias vectors, checked when built.

    A non-finite value written in place later, as `sgd_step` writes, makes
    `encode` raise NumericError for its layer.
    """

    spec: EncoderSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        widths = self.spec.layer_widths
        if len(self.weights) != self.spec.num_layers or len(self.biases) != self.spec.num_layers:
            raise ValidationError("parameter count does not match the spec")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (widths[l + 1], widths[l]) or b.shape != (widths[l + 1],):
                raise ValidationError(f"layer {l} parameter shapes do not match the spec")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise NumericError(f"layer {l} parameters contain non-finite values")


def init_params(spec: EncoderSpec, rng: Rng) -> EncoderParams:
    """Weights ~ Normal(0, init_scale / sqrt(fan_in)), biases zero."""
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.layer_widths[:-1], spec.layer_widths[1:]):
        std = spec.init_scale / np.sqrt(fan_in)
        weights.append(std * rng.normal((fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return EncoderParams(spec=spec, weights=weights, biases=biases)


@dataclass
class ForwardCache:
    """Activations remembered by encode() for the matching backward()."""

    inputs: list[np.ndarray] = field(default_factory=list)  # input to each affine layer
    pre_activations: list[np.ndarray] = field(default_factory=list)
    norms: np.ndarray | None = None
    unit_output: np.ndarray | None = None


def _activate(spec: EncoderSpec, a: np.ndarray) -> np.ndarray:
    return np.tanh(a) if spec.nonlinearity == "tanh" else np.maximum(a, 0.0)


def _activation_grad(spec: EncoderSpec, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    if spec.nonlinearity == "tanh":
        return 1.0 - post**2
    return (pre > 0).astype(np.float64)  # subgradient at 0 is 0


def encode(params: EncoderParams, inputs: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass ending in row-wise L2 normalization.

    Returns the unit-norm embeddings and the cache needed by backward().
    Parameters are checked when built; raises NumericError naming the layer
    if activations go non-finite, as a non-finite weight or bias makes them.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.spec.layer_widths[0]:
        raise ValidationError(
            f"inputs must be B x {params.spec.layer_widths[0]}, got {x.shape}"
        )
    cache = ForwardCache()
    h = x
    last = params.spec.num_layers - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        cache.inputs.append(h)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
            pre = h @ w.T + b
        if not np.all(np.isfinite(pre)):
            raise NumericError(f"non-finite activations in layer {l}")
        cache.pre_activations.append(pre)
        h = pre if l == last else _activate(params.spec, pre)
    cache.norms = np.linalg.norm(h, axis=1)
    z = unit_rows(h, cache.norms)
    cache.unit_output = z
    return z, cache


def backward(
    params: EncoderParams, cache: ForwardCache, dL_dz: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Parameter gradients [(dW, db) per layer] for gradients at the unit outputs.

    Starts with the normalization Jacobian (I - zz^T)/|y| at the output
    layer, then standard backprop through the affine/nonlinear stack.
    Parameters are not checked again: `EncoderParams` did when they were built.
    """
    if cache.unit_output is None or len(cache.inputs) != params.spec.num_layers:
        raise ValidationError("cache does not match this parameter set")
    g_z = np.asarray(dL_dz, dtype=np.float64)
    z = cache.unit_output
    if g_z.shape != z.shape:
        raise ValidationError(f"dL_dz shape {g_z.shape} does not match outputs {z.shape}")
    radial = row_sums(z * g_z)[:, None]
    g = (g_z - radial * z) / cache.norms[:, None]
    grads: list[tuple[np.ndarray, np.ndarray]] = [(None, None)] * params.spec.num_layers
    last = params.spec.num_layers - 1
    for l in range(last, -1, -1):
        if l != last:
            post = cache.inputs[l + 1]  # input of layer l+1 is layer l's activation
            g = g * _activation_grad(params.spec, cache.pre_activations[l], post)
        grads[l] = (g.T @ cache.inputs[l], g.sum(axis=0))
        if l > 0:
            g = g @ params.weights[l]
    return grads


@dataclass(frozen=True)
class OptimizerSettings:
    """Learning rate, momentum and weight decay of SGD."""

    lr: float = 0.06
    momentum: float = 0.9
    weight_decay: float = 5e-4

    def __post_init__(self):
        check_float("lr", self.lr, 0.0, open_low=True)
        check_float("momentum", self.momentum, 0.0, 1.0, open_high=True)
        check_float("weight_decay", self.weight_decay, 0.0)


@dataclass
class OptimizerState:
    """SGD with momentum: its settings and velocity buffers shaped like the parameters."""

    settings: OptimizerSettings
    velocities: list[tuple[np.ndarray, np.ndarray]]


def init_optimizer(params: EncoderParams, settings: OptimizerSettings) -> OptimizerState:
    velocities = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(params.weights, params.biases)]
    return OptimizerState(settings, velocities)


def sgd_step(
    params: EncoderParams,
    grads: Sequence[tuple[np.ndarray, np.ndarray]],
    state: OptimizerState,
) -> None:
    """v <- momentum*v + g + weight_decay*w;  w <- w - lr*v. In place."""
    if len(grads) != len(state.velocities):
        raise ValidationError("gradient count does not match optimizer state")
    settings = state.settings
    for l, (gw, gb) in enumerate(grads):
        vw, vb = state.velocities[l]
        w, b = params.weights[l], params.biases[l]
        if gw.shape != w.shape or gb.shape != b.shape:
            raise ValidationError(f"layer {l} gradient shapes do not match parameters")
        vw *= settings.momentum
        vw += gw + settings.weight_decay * w
        vb *= settings.momentum
        vb += gb + settings.weight_decay * b
        w -= settings.lr * vw
        b -= settings.lr * vb


# -- parameter vector helpers (used by gradient checks) ----------------------


def params_to_vector(params: EncoderParams) -> np.ndarray:
    chunks = []
    for w, b in zip(params.weights, params.biases):
        chunks.append(w.ravel())
        chunks.append(b.ravel())
    return np.concatenate(chunks)


def vector_to_params(spec: EncoderSpec, vec: np.ndarray) -> EncoderParams:
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in zip(spec.layer_widths[:-1], spec.layer_widths[1:]):
        weights.append(vec[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in).copy())
        pos += fan_out * fan_in
        biases.append(vec[pos : pos + fan_out].copy())
        pos += fan_out
    if pos != vec.size:
        raise ValidationError("vector length does not match the spec")
    return EncoderParams(spec=spec, weights=weights, biases=biases)


def grads_to_vector(grads: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    chunks = []
    for gw, gb in grads:
        chunks.append(gw.ravel())
        chunks.append(gb.ravel())
    return np.concatenate(chunks)


# -- checkpointing ------------------------------------------------------------


def save_checkpoint(path: str | Path, params: EncoderParams) -> None:
    """Versioned JSON checkpoint: layer shapes plus row-major values."""
    payload = {
        "magic": CHECKPOINT_MAGIC,
        "spec": asdict(params.spec),
        "weights": [w.ravel().tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_checkpoint(path: str | Path) -> EncoderParams:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("magic") != CHECKPOINT_MAGIC:
        raise ValidationError(f"not a {CHECKPOINT_MAGIC} checkpoint: {path}")
    spec = EncoderSpec(**payload["spec"])
    shapes = list(zip(spec.layer_widths[1:], spec.layer_widths[:-1]))
    flat = [np.array(w, dtype=np.float64) for w in payload["weights"]]
    if len(flat) != len(shapes) or any(w.size != rows * cols for w, (rows, cols) in zip(flat, shapes)):
        raise ValidationError(f"checkpoint weights do not match layer widths {spec.layer_widths}")
    weights = [w.reshape(shape) for w, shape in zip(flat, shapes)]
    biases = [np.array(b, dtype=np.float64) for b in payload["biases"]]
    return EncoderParams(spec=spec, weights=weights, biases=biases)
