"""The loss, gradient and training loop that ``model.local_train``
replaced, kept as test oracles.

``local_train_reference`` is the per-step loop: a fresh frozen
``ParameterVector`` per step, ``forward_cache`` then ``backward`` (which
recomputes the logits), and a new parameter array per update.
``local_train`` must reproduce its result bit for bit. The oracle runs
its own forward pass, so it shares no step of the arithmetic with
``model``.
"""
import numpy as np

from fedsurrogate.params import ParameterVector


def forward_cache(arch, params, features):
    """Logits plus cached activations: the input and each hidden
    post-activation, as ``backward`` needs."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    weights = arch.views(params.values)
    cache = [x]
    for W, b in weights[:-1]:
        x = np.maximum(x @ W + b, 0.0)
        cache.append(x)
    W, b = weights[-1]
    return x @ W + b, cache


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits, labels):
    """Mean cross-entropy of softmax(logits) against integer labels."""
    probs = _softmax(logits)
    n = len(labels)
    return float(-np.mean(np.log(np.maximum(probs[np.arange(n), labels], 1e-300))))


def backward(arch, params, cache, labels):
    """Gradient of mean softmax cross-entropy over the batch."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= arch.num_classes:
        raise ValueError("label out of range")
    weights = arch.views(params.values)
    # recompute logits from the last hidden activation
    logits = cache[-1] @ weights[-1][0] + weights[-1][1]
    n = len(labels)
    probs = _softmax(logits)
    probs[np.arange(n), labels] -= 1.0
    delta = probs / n  # dL/dlogits

    schema = params.schema
    grad = np.zeros(schema.total_length, dtype=np.float64)
    for k in range(arch.num_layers - 1, -1, -1):
        W, _ = weights[k]
        a_prev = cache[k]
        lo, _hi = schema.bounds(f"fc{k + 1}")
        nw = W.size
        grad[lo: lo + nw] = (a_prev.T @ delta).ravel()
        grad[lo + nw: lo + nw + W.shape[1]] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ W.T) * (a_prev > 0.0)
    return ParameterVector(grad, schema)


def local_train_reference(arch, start, data, cfg, extra_grad=None, post_step=None):
    """Plain SGD, one ParameterVector per step."""
    if not len(data):
        raise ValueError("empty training data")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[int(cfg.seed), 0x7A]))
    values = start.values.copy()
    n = len(data)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo: lo + cfg.batch_size]
            current = ParameterVector(values, start.schema)
            _, cache = forward_cache(arch, current, data.features[idx])
            grad = backward(arch, current, cache, data.labels[idx]).values
            if extra_grad is not None:
                grad = grad + extra_grad(values)
            values = values - cfg.learning_rate * grad
            if post_step is not None:
                values = post_step(values)
    return ParameterVector(values, start.schema)
