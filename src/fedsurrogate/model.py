"""A small multilayer perceptron over flat parameter vectors: named
layers "fc1", "fc2", ..., ReLU hidden activations, softmax cross-entropy
head, and seeded local mini-batch SGD.

Layer "fck" holds the weight matrix (dims[k-1] x dims[k], row-major)
followed by its bias. Everything is float64 and deterministic per seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import Dataset
from .params import LayerSchema, ParameterVector


@dataclass(frozen=True)
class MlpArchitecture:
    layer_dims: tuple[int, ...]  # input, hidden..., output

    def __post_init__(self):
        if len(self.layer_dims) < 3:
            raise ValueError("need at least two weight layers (>= 3 dims)")
        if any(d < 1 for d in self.layer_dims):
            raise ValueError("layer dims must be positive")

    @property
    def num_layers(self) -> int:
        return len(self.layer_dims) - 1

    @property
    def num_classes(self) -> int:
        return self.layer_dims[-1]

    def schema(self) -> LayerSchema:
        lengths = [
            (f"fc{k + 1}", self.layer_dims[k] * self.layer_dims[k + 1] + self.layer_dims[k + 1])
            for k in range(self.num_layers)
        ]
        return LayerSchema.from_lengths(lengths)

    def views(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weight, bias) views per layer over a flat parameter array;
        weight shape (fan_in, fan_out)."""
        out, lo = [], 0
        for fan_in, fan_out in zip(self.layer_dims, self.layer_dims[1:]):
            mid = lo + fan_in * fan_out
            out.append((flat[lo:mid].reshape(fan_in, fan_out), flat[mid: mid + fan_out]))
            lo = mid + fan_out
        return out


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float
    batch_size: int
    seed: int

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.learning_rate < 0:
            raise ValueError("train config fields must be positive")


def init_model(arch: MlpArchitecture, seed: int) -> ParameterVector:
    """Kaiming-uniform weights, zero biases."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), 0x1271]))
    schema = arch.schema()
    values = np.zeros(schema.total_length, dtype=np.float64)
    for k in range(arch.num_layers):
        fan_in, fan_out = arch.layer_dims[k], arch.layer_dims[k + 1]
        bound = np.sqrt(6.0 / fan_in)
        lo, _ = schema.bounds(f"fc{k + 1}")
        values[lo: lo + fan_in * fan_out] = rng.uniform(-bound, bound, fan_in * fan_out)
    return ParameterVector(values, schema)


def _forward(
    layers: Sequence[tuple[np.ndarray, np.ndarray]], x: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Logits of the float64 batch ``x`` under the (W, b) ``layers``,
    plus the input and each hidden post-activation."""
    cache = [x]
    for W, b in layers[:-1]:
        x = np.maximum(x @ W + b, 0.0)
        cache.append(x)
    W, b = layers[-1]
    return x @ W + b, cache


def forward(
    arch: MlpArchitecture, params: ParameterVector, features: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Logits of shape (batch, classes) plus cached activations: the
    input and each hidden post-activation, as backpropagation needs."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.shape[1] != arch.layer_dims[0]:
        raise ValueError(f"feature dim {x.shape[1]} != input dim {arch.layer_dims[0]}")
    return _forward(arch.views(params.values), x)


def local_train(
    arch: MlpArchitecture,
    start: ParameterVector,
    data: Dataset,
    cfg: TrainConfig,
    extra_grad: Callable[[np.ndarray], np.ndarray] | None = None,
    post_step: Callable[[np.ndarray], np.ndarray] | None = None,
) -> ParameterVector:
    """Plain SGD on mean softmax cross-entropy: ``epochs`` passes of
    seeded-shuffled mini-batches.

    ``extra_grad`` maps the current flat parameter array to an additional
    gradient added at every step (used by regularised attacks);
    ``post_step`` maps the parameters after each step to a projected
    version (used by masked attacks). Neither may keep or modify the
    array it is given.

    The layer views over one working parameter buffer and one gradient
    buffer are built once per call, so a step is numpy work only. The
    result is checked once: an entry that turns non-finite at any step
    stays non-finite under every later step, so the returned vector's
    check raises whenever a per-step check would have.
    """
    if not len(data):
        raise ValueError("empty training data")
    features = np.asarray(data.features, dtype=np.float64)
    if features.shape[1] != arch.layer_dims[0]:
        raise ValueError(f"feature dim {features.shape[1]} != input dim {arch.layer_dims[0]}")
    labels = np.asarray(data.labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= arch.num_classes:
        raise ValueError("label out of range")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[int(cfg.seed), 0x7A]))
    values = start.values.copy()
    grad = np.empty_like(values)
    layers, grads = arch.views(values), arch.views(grad)
    n, lr = len(labels), cfg.learning_rate
    rows = np.arange(min(cfg.batch_size, n))
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo: lo + cfg.batch_size]
            m = len(idx)
            delta, cache = _forward(layers, features[idx])
            # d(loss)/d(logits) = (softmax - one_hot) / m, in place
            delta -= delta.max(axis=1, keepdims=True)
            np.exp(delta, out=delta)
            delta /= delta.sum(axis=1, keepdims=True)
            delta[rows[:m], labels[idx]] -= 1.0
            delta /= m
            for k in range(len(layers) - 1, -1, -1):
                np.matmul(cache[k].T, delta, out=grads[k][0])
                delta.sum(axis=0, out=grads[k][1])
                if k:
                    delta = (delta @ layers[k][0].T) * (cache[k] > 0.0)
            if extra_grad is None:
                values -= lr * grad
            else:
                values -= lr * (grad + extra_grad(values))
            if post_step is not None:
                values[:] = post_step(values)
    return ParameterVector(values, start.schema)


def predict(arch: MlpArchitecture, params: ParameterVector, features: np.ndarray) -> np.ndarray:
    logits, _ = forward(arch, params, features)
    return logits.argmax(axis=1)  # argmax tie-break: lowest class index


def evaluate(arch: MlpArchitecture, params: ParameterVector, test: Dataset) -> float:
    """Top-1 accuracy on the given set."""
    if not len(test):
        raise ValueError("empty test set")
    return float(np.mean(predict(arch, params, test.features) == test.labels))
