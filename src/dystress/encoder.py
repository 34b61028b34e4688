"""A small trainable MLP encoder with manual reverse-mode gradients.

Affine layers with an elementwise nonlinearity between them (none after the
last affine layer) and a final row-wise L2 normalization. The normalization
Jacobian (I - zz^T)/|y| is applied here, so the loss module can treat
embeddings as free points. Parameters, their gradient and the SGD velocity
share one flat layout: for each layer its weights (out x in, row-major),
then its biases. SGD with momentum and weight decay is the only optimizer;
defaults follow the usual contrastive pre-training recipe (momentum 0.9,
weight decay 5e-4).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import NumericError, ValidationError, check_float, check_int, from_section, read_json
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

    @property
    def num_params(self) -> int:
        return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(self.layer_widths, self.layer_widths[1:]))


def _layer_views(spec: EncoderSpec, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight matrices (out x in) and bias vectors as views into `flat`."""
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(spec.layer_widths, spec.layer_widths[1:]):
        weights.append(flat[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in))
        biases.append(flat[pos + fan_out * fan_in : pos + fan_out * (fan_in + 1)])
        pos += fan_out * (fan_in + 1)
    return weights, biases


@dataclass
class EncoderParams:
    """All parameters in one vector `flat`, layer by layer: weights (out x in,
    row-major), then biases. `weights` and `biases` are per-layer views into it.

    Checked when built. A non-finite value written in place later, as
    `sgd_step` writes, makes `encode` raise NumericError for its layer.
    """

    spec: EncoderSpec
    flat: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.flat = np.ascontiguousarray(self.flat, dtype=np.float64)  # views need one block
        if self.flat.shape != (self.spec.num_params,):
            raise ValidationError(f"parameter vector has shape {self.flat.shape}, not ({self.spec.num_params},)")
        self.weights, self.biases = _layer_views(self.spec, self.flat)
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise NumericError(f"layer {l} parameters contain non-finite values")

    @classmethod
    def from_layers(cls, spec: EncoderSpec, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        """Parameters copied from per-layer weight matrices (out x in) and bias vectors."""
        widths = spec.layer_widths
        if len(weights) != spec.num_layers or len(biases) != spec.num_layers:
            raise ValidationError("parameter count does not match the spec")
        for l, (w, b) in enumerate(zip(weights, biases)):
            if np.shape(w) != (widths[l + 1], widths[l]) or np.shape(b) != (widths[l + 1],):
                raise ValidationError(f"layer {l} parameter shapes do not match the spec")
        return cls(spec, np.concatenate([np.concatenate([np.ravel(w), b]) for w, b in zip(weights, biases)]))


def init_params(spec: EncoderSpec, rng: Rng) -> EncoderParams:
    """Weights ~ Normal(0, init_scale / sqrt(fan_in)), drawn layer by layer; biases zero."""
    params = EncoderParams(spec, np.zeros(spec.num_params))
    for w in params.weights:
        w[...] = spec.init_scale / np.sqrt(w.shape[1]) * rng.normal(w.shape)
    return params


@dataclass(frozen=True)
class ForwardCache:
    """What backward() reads of an encode() pass."""

    inputs: list[np.ndarray]  # input to each affine layer
    norms: np.ndarray  # row norms before the final normalization
    unit_output: np.ndarray


def _activate(spec: EncoderSpec, a: np.ndarray) -> np.ndarray:
    return np.tanh(a) if spec.nonlinearity == "tanh" else np.maximum(a, 0.0)


def _activation_grad(spec: EncoderSpec, post: np.ndarray) -> np.ndarray:
    """Slope from the activation's output: relu's post > 0 is pre > 0 for finite pre."""
    if spec.nonlinearity == "tanh":
        return 1.0 - post**2
    return (post > 0).astype(np.float64)  # subgradient at 0 is 0


def encode(params: EncoderParams, inputs: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass ending in row-wise L2 normalization.

    Returns the unit-norm embeddings and the cache needed by backward().
    Parameters are checked when built; raises NumericError naming the layer
    if activations go non-finite, as a non-finite weight or bias makes them.
    """
    h = np.asarray(inputs, dtype=np.float64)  # the input to each layer in turn
    if h.ndim != 2 or h.shape[1] != params.spec.layer_widths[0]:
        raise ValidationError(f"inputs must be B x {params.spec.layer_widths[0]}, got {h.shape}")
    layer_inputs = []
    last = params.spec.num_layers - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        layer_inputs.append(h)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
            pre = h @ w.T + b
        if not np.all(np.isfinite(pre)):
            raise NumericError(f"non-finite activations in layer {l}")
        h = pre if l == last else _activate(params.spec, pre)
    norms = np.linalg.norm(h, axis=1)
    z = unit_rows(h, norms)
    return z, ForwardCache(layer_inputs, norms, z)


def backward(params: EncoderParams, cache: ForwardCache, dL_dz: np.ndarray) -> np.ndarray:
    """Parameter gradient, laid out like `params.flat`, for gradients at the unit outputs.

    Starts with the normalization Jacobian (I - zz^T)/|y| at the output
    layer, then standard backprop through the affine/nonlinear stack.
    Parameters are not checked again: `EncoderParams` did when they were built.
    """
    if len(cache.inputs) != params.spec.num_layers:
        raise ValidationError("cache does not match this parameter set")
    g_z = np.asarray(dL_dz, dtype=np.float64)
    z = cache.unit_output
    if g_z.shape != z.shape:
        raise ValidationError(f"dL_dz shape {g_z.shape} does not match outputs {z.shape}")
    radial = row_sums(z * g_z)[:, None]
    g = (g_z - radial * z) / cache.norms[:, None]
    grad = np.empty(params.spec.num_params)
    grad_w, grad_b = _layer_views(params.spec, grad)
    last = params.spec.num_layers - 1
    for l in range(last, -1, -1):
        if l != last:
            g = g * _activation_grad(params.spec, cache.inputs[l + 1])  # layer l's activation
        np.matmul(g.T, cache.inputs[l], out=grad_w[l])
        np.sum(g, axis=0, out=grad_b[l])
        if l > 0:
            g = g @ params.weights[l]
    return grad


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
    """SGD with momentum: its settings and velocity, laid out like `EncoderParams.flat`."""

    settings: OptimizerSettings
    velocity: np.ndarray


def init_optimizer(params: EncoderParams, settings: OptimizerSettings) -> OptimizerState:
    return OptimizerState(settings, np.zeros_like(params.flat))


def sgd_step(params: EncoderParams, grad: np.ndarray, state: OptimizerState) -> None:
    """v <- momentum*v + g + weight_decay*w;  w <- w - lr*v. In place, on the flat layout."""
    if grad.shape != params.flat.shape:
        raise ValidationError(f"gradient shape {grad.shape} does not match parameters {params.flat.shape}")
    settings, w, v = state.settings, params.flat, state.velocity
    v *= settings.momentum
    v += grad + settings.weight_decay * w
    w -= settings.lr * v


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
    """The parameters `save_checkpoint` wrote to `path`; ValidationError when the file is malformed."""
    payload = read_json(path)
    if not isinstance(payload, dict) or payload.get("magic") != CHECKPOINT_MAGIC:
        raise ValidationError(f"not a {CHECKPOINT_MAGIC} checkpoint: {path}")
    spec = from_section(EncoderSpec, payload.get("spec"), "checkpoint spec")
    shapes = list(zip(spec.layer_widths[1:], spec.layer_widths[:-1]))
    try:  # a missing field, or values that are not lists of numbers
        flat = [np.array(w, dtype=np.float64) for w in payload["weights"]]
        biases = [np.array(b, dtype=np.float64) for b in payload["biases"]]
    except (KeyError, TypeError, ValueError) as err:
        raise ValidationError(f"bad checkpoint {path}: {err!r}") from err
    if len(flat) != len(shapes) or any(w.size != rows * cols for w, (rows, cols) in zip(flat, shapes)):
        raise ValidationError(f"checkpoint weights do not match layer widths {spec.layer_widths}")
    return EncoderParams.from_layers(spec, [w.reshape(shape) for w, shape in zip(flat, shapes)], biases)
