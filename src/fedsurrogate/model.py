"""A small multilayer perceptron over flat parameter vectors: named
layers "fc1", "fc2", ..., ReLU hidden activations, softmax cross-entropy
head, and seeded local mini-batch SGD.

Layer "fck" holds the weight matrix (dims[k-1] x dims[k], row-major)
followed by its bias. Everything is float64 and deterministic per seed.
``local_train_stack`` is the one SGD loop: it trains a stack of clients
from one start in lockstep, and ``local_train`` is its one-client call.
"""
from __future__ import annotations

import itertools
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
        """(weight, bias) views per layer over the last axis of a (..., P)
        parameter array; weight shape (..., fan_in, fan_out)."""
        out, lo, lead = [], 0, flat.shape[:-1]
        for fan_in, fan_out in zip(self.layer_dims, self.layer_dims[1:]):
            mid = lo + fan_in * fan_out
            out.append((flat[..., lo:mid].reshape(*lead, fan_in, fan_out),
                        flat[..., mid: mid + fan_out]))
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
    for W, _ in arch.views(values):
        bound = np.sqrt(6.0 / W.shape[0])
        W[:] = rng.uniform(-bound, bound, W.shape)
    return ParameterVector(values, schema)


def forward(arch: MlpArchitecture, params: ParameterVector, features: np.ndarray) -> np.ndarray:
    """Logits of shape (batch, classes)."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.shape[1] != arch.layer_dims[0]:
        raise ValueError(f"feature dim {x.shape[1]} != input dim {arch.layer_dims[0]}")
    layers = arch.views(params.values)
    for W, b in layers[:-1]:
        x = np.maximum(x @ W + b, 0.0)
    W, b = layers[-1]
    return x @ W + b


def _checked(arch: MlpArchitecture, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """A shard's float64 features and int64 labels, checked against
    ``arch``."""
    if not len(data):
        raise ValueError("empty training data")
    features = np.asarray(data.features, dtype=np.float64)
    if features.shape[1] != arch.layer_dims[0]:
        raise ValueError(f"feature dim {features.shape[1]} != input dim {arch.layer_dims[0]}")
    labels = np.asarray(data.labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= arch.num_classes:
        raise ValueError("label out of range")
    return features, labels


def _runs(batch_sizes: list[int]) -> list[tuple[int, int, int]]:
    """(a, b, m) for each maximal run of stack rows [a, b) whose batch
    size is the same m > 0."""
    runs, a = [], 0
    for m, group in itertools.groupby(batch_sizes):
        b = a + sum(1 for _ in group)
        if m:
            runs.append((a, b, m))
        a = b
    return runs


def local_train_stack(
    arch: MlpArchitecture,
    start: ParameterVector,
    shards: Sequence[Dataset],
    cfgs: Sequence[TrainConfig],
    out: np.ndarray,
    extra_grad: Callable[[np.ndarray], np.ndarray] | None = None,
    post_step: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[int]:
    """Plain SGD on mean softmax cross-entropy for a stack of clients that
    all start from ``start`` and share one epoch count, learning rate and
    batch size: client c runs that many passes of mini-batches of
    ``shards[c]``, shuffled by the generator of its own ``cfgs[c].seed``.
    Row i of the C-contiguous (clients, P) float64 ``out`` receives the
    model of client ``order[i]``, and ``order`` is returned. Each row has
    the bits the client gets trained alone.

    The stack is ordered by shard size, largest first, so at each batch
    index the clients that still have a batch form a prefix in which
    equal batch sizes are contiguous runs, the same in every epoch. A run
    of g clients with batch size m takes one step together: its (W, b)
    are views of its rows of ``out``, its batches are gathered into
    contiguous (g, m, features) buffers, and every matmul, sum and max
    runs over the stacked axis, which gives each client the bits of its
    own 2-D call; the softmax's exp, like a lone client's, runs over a
    contiguous buffer. The buffers are sized by the largest run and
    allocated once per call, and each run's views of them once per call.

    ``extra_grad`` maps the current flat parameter array to an additional
    gradient added at every step (used by regularised attacks);
    ``post_step`` maps the parameters after each step to a projected
    version (used by masked attacks). Neither may keep or modify the
    array it is given, and both need a stack of one.

    Nothing here checks the result: an entry that turns non-finite at
    any step stays non-finite under every later step, so wrapping a row
    in a ``ParameterVector`` raises whenever a per-step check would have.
    """
    if len(shards) != 1 and (extra_grad is not None or post_step is not None):
        raise ValueError("extra_grad and post_step need a stack of one client")
    if len(cfgs) != len(shards):
        raise ValueError(f"{len(cfgs)} train configs for {len(shards)} shards")
    if out.shape != (len(shards), start.values.size) or not out.flags.c_contiguous:
        # a run's (W, b) must be views of its rows, not copies
        raise ValueError(f"out must be a C-contiguous ({len(shards)}, {start.values.size}) array")
    if not shards:
        return []
    epochs, lr, bs = cfgs[0].epochs, cfgs[0].learning_rate, cfgs[0].batch_size
    if any((c.epochs, c.learning_rate, c.batch_size) != (epochs, lr, bs) for c in cfgs):
        raise ValueError("the clients of a stack must share epochs, learning rate and batch size")
    checked = [_checked(arch, d) for d in shards]
    order = sorted(range(len(shards)), key=lambda c: -len(checked[c][1]))
    data = [checked[c] for c in order]
    sizes = [len(y) for _, y in data]
    # each batch index's runs, the same in every epoch
    steps = [_runs([min(max(n - t * bs, 0), bs) for n in sizes])
             for t in range(-(-sizes[0] // bs))]
    runs = {run for step in steps for run in step}

    dims = arch.layer_dims
    capacity = max((b - a) * m for a, b, m in runs)   # the most rows a step takes
    out[:] = start.values
    grad = np.empty((max(b - a for a, b, _ in runs), out.shape[1]))
    acts = [np.empty(capacity * d) for d in dims]         # the input, hidden outputs, logits
    backs = [np.empty(capacity * d) for d in dims[1:-1]]  # d(loss)/d(hidden output)
    live = np.empty(capacity * max(dims[1:-1]), dtype=bool)
    labels = np.empty(capacity, dtype=np.int64)

    def plan(a: int, b: int, m: int):
        """The views a step of run (a, b, m) works in."""
        g, rows = b - a, (b - a) * m
        x, *outputs = [buf[: rows * d].reshape(g, m, d) for buf, d in zip(acts, dims)]
        inputs = [x, *outputs[:-1]]
        layers = []
        for k, ((W, bias), (gW, gb), fan_in) in enumerate(
                zip(arch.views(out[a:b]), arch.views(grad[:g]), dims)):
            layers.append((
                W, bias[:, None, :], outputs[k],
                inputs[k], inputs[k].transpose(0, 2, 1), W.transpose(0, 2, 1), gW, gb,
                # d(loss)/d(input) and where the input's ReLU was live
                (backs[k - 1][: rows * fan_in].reshape(g, m, fan_in),
                 live[: rows * fan_in].reshape(g, m, fan_in)) if k else None,
            ))
        y = labels[:rows]
        return (list(zip(range(a, b), x, y.reshape(g, m))), x, layers, outputs[-1],
                (outputs[-1].reshape(rows, dims[-1]), np.arange(rows), y),
                (grad[:g], out[a:b]))

    plans = {run: plan(*run) for run in runs}
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=[int(cfgs[c].seed), 0x7A]))
            for c in order]
    first_row = out[0]
    for _ in range(epochs):
        perms = [rng.permutation(n) for rng, n in zip(rngs, sizes)]
        for t, step in enumerate(steps):
            for run in step:
                batches, x, layers, delta, (flat, at, y), (update, params) = plans[run]
                m = run[2]
                for i, xi, yi in batches:
                    idx = perms[i][t * bs: t * bs + m]
                    data[i][0].take(idx, axis=0, out=xi, mode="clip")
                    data[i][1].take(idx, out=yi, mode="clip")
                for W, bias, h, *_ in layers:
                    np.matmul(x, W, out=h)
                    h += bias
                    if h is not delta:
                        np.maximum(h, 0.0, out=h)
                    x = h
                # d(loss)/d(logits) = (softmax - one_hot) / m, in place
                delta -= delta.max(axis=2, keepdims=True)
                np.exp(delta, out=delta)
                delta /= delta.sum(axis=2, keepdims=True)
                flat[at, y] -= 1.0
                delta /= m
                for *_, inp, inp_t, W_t, gW, gb, back in reversed(layers):
                    np.matmul(inp_t, delta, out=gW)
                    delta.sum(axis=1, out=gb)
                    if back is not None:
                        prev, mask = back
                        np.matmul(delta, W_t, out=prev)
                        np.greater(inp, 0.0, out=mask)
                        prev *= mask
                        delta = prev
                if extra_grad is not None:
                    update += extra_grad(first_row)
                update *= lr
                params -= update
                if post_step is not None:
                    first_row[:] = post_step(first_row)
    return order


def local_train(
    arch: MlpArchitecture,
    start: ParameterVector,
    data: Dataset,
    cfg: TrainConfig,
    extra_grad: Callable[[np.ndarray], np.ndarray] | None = None,
    post_step: Callable[[np.ndarray], np.ndarray] | None = None,
) -> ParameterVector:
    """``local_train_stack`` for one client: its trained model, checked
    finite."""
    out = np.empty((1, start.values.size))
    local_train_stack(arch, start, [data], [cfg], out, extra_grad, post_step)
    out.flags.writeable = False
    return ParameterVector(out[0], start.schema)


def predict(arch: MlpArchitecture, params: ParameterVector, features: np.ndarray) -> np.ndarray:
    return forward(arch, params, features).argmax(axis=1)  # argmax tie-break: lowest class index


def evaluate(arch: MlpArchitecture, params: ParameterVector, test: Dataset) -> float:
    """Top-1 accuracy on the given set."""
    if not len(test):
        raise ValueError("empty test set")
    return float(np.mean(predict(arch, params, test.features) == test.labels))
