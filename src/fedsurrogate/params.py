"""Flat parameter vectors with a named-layer schema, and the cosine
geometry used by every stage of the pipeline.

All arithmetic is float64; vectors are frozen after construction so they
can be shared across threads without copies.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

EPS_ZERO = 1e-12          # norms below this count as degenerate
ZERO_NORM_DISTANCE = 1.0  # cosine-distance fallback for degenerate pairs


class SchemaError(ValueError):
    """Layer-schema violation: unknown name, bad offsets, length mismatch."""


class Role(str, Enum):
    BENIGN = "benign"
    MALICIOUS = "malicious"


@dataclass(frozen=True)
class LayerSchema:
    """Ordered, contiguous named slices over a flat parameter array."""

    layers: tuple[tuple[str, int, int], ...]  # (name, offset, length)

    def __post_init__(self):
        if not self.layers:
            raise SchemaError("schema needs at least one layer")
        names = [n for n, _, _ in self.layers]
        if len(set(names)) != len(names):
            raise SchemaError("layer names must be unique")
        expected = 0
        for name, offset, length in self.layers:
            if length <= 0:
                raise SchemaError(f"layer {name!r} has non-positive length")
            if offset != expected:
                raise SchemaError(f"layer {name!r} is not contiguous")
            expected = offset + length

    @classmethod
    def from_lengths(cls, lengths: Sequence[tuple[str, int]]) -> "LayerSchema":
        layers, offset = [], 0
        for name, length in lengths:
            layers.append((name, offset, length))
            offset += length
        return cls(tuple(layers))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _, _ in self.layers)

    @property
    def total_length(self) -> int:
        _, offset, length = self.layers[-1]
        return offset + length

    def bounds(self, name: str) -> tuple[int, int]:
        for n, offset, length in self.layers:
            if n == name:
                return offset, offset + length
        raise SchemaError(f"unknown layer {name!r}")

    def mask(self, names: Sequence[str]) -> np.ndarray:
        """Boolean mask selecting the union of the given layers."""
        out = np.zeros(self.total_length, dtype=bool)
        for name in names:
            lo, hi = self.bounds(name)
            out[lo:hi] = True
        return out


def _freeze(values: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr is values and arr.flags.writeable:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ParameterVector:
    """Flat float64 parameter array tied to a LayerSchema."""

    values: np.ndarray
    schema: LayerSchema

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.ndim != 1 or len(self.values) != self.schema.total_length:
            raise SchemaError(
                f"vector length {self.values.size} != schema length "
                f"{self.schema.total_length}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("parameter vector contains non-finite entries")

    def layer(self, name: str) -> np.ndarray:
        lo, hi = self.schema.bounds(name)
        return self.values[lo:hi]

    def restricted(self, names: Sequence[str]) -> np.ndarray:
        """Concatenation of the given layers, in the order given."""
        return np.concatenate([self.layer(n) for n in names])


@dataclass(frozen=True)
class ClientUpdate:
    """A client's round delta plus the metadata the harness tracks.

    ``true_role`` is ground truth for metrics only; the defense never
    reads it.
    """

    client_id: int
    delta: ParameterVector
    model: ParameterVector
    sample_count: int
    true_role: Role = Role.BENIGN

    def __post_init__(self):
        if self.delta.schema is not self.model.schema and self.delta.schema != self.model.schema:
            raise SchemaError("delta and model schemas differ")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cos(a, b), in [0, 2]. Degenerate norms fall back to 1.0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("cosine_distance needs equal-length arrays")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < EPS_ZERO or nb < EPS_ZERO:
        return ZERO_NORM_DISTANCE
    cos = float(np.dot(a, b)) / (na * nb)
    return 1.0 - max(-1.0, min(1.0, cos))


def _cosine_from_gram(G: np.ndarray, sq_norms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Cosine distances from the rows ``rows`` of a Gram matrix, ``G``
    of shape (len(rows), n), given every row's squared norm: see
    ``gram_cosine_distances``."""
    norms = np.sqrt(sq_norms)
    ok = norms >= EPS_ZERO
    scale = np.where(ok, norms, 1.0)
    D = 1.0 - np.clip(G / np.outer(scale[rows], scale), -1.0, 1.0)
    D[~ok[rows], :] = ZERO_NORM_DISTANCE
    D[:, ~ok] = ZERO_NORM_DISTANCE
    D[np.arange(len(rows)), rows] = 0.0
    return D


def gram_cosine_distances(G: np.ndarray) -> np.ndarray:
    """Pairwise ``cosine_distance`` from a Gram matrix ``G = X @ X.T``:
    1 - G_ij / (|x_i| |x_j|) with |x_i| = sqrt(G_ii), clipped to [0, 2].
    Pairs with a degenerate norm get ZERO_NORM_DISTANCE; the diagonal
    is 0.

    A BLAS product ``X @ X.T`` may round the entries of identical rows
    of X differently, so it suits sums of distances; where ties between
    identical rows must stay exact, form G entry by entry, as
    ``pairwise_distance_matrix`` does."""
    return _cosine_from_gram(G, np.diag(G), np.arange(len(G)))


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A[k] . B[k] for every row k (B may be one row, shared). Each is a
    BLAS dot of its own, the sum ``np.dot`` and ``np.linalg.norm`` form
    for one pair, so equal inputs give equal bits wherever they sit."""
    return np.matmul(A[:, None, :], B[..., None])[:, 0, 0]


def _pairwise_gram(X: np.ndarray) -> np.ndarray:
    """X @ X.T with each entry a dot of its own, one row at a time."""
    n = len(X)
    G = np.zeros((n, n))
    for i in range(n):
        G[i, i:] = _row_dots(X[i:], X[i])
    return G + np.triu(G, 1).T


# Rows of X[j] - X[i] held at once by the euclidean difference buffer.
EUCLIDEAN_BLOCK_ROWS = 32


def _euclidean_distances(X: np.ndarray) -> np.ndarray:
    """|x_i - x_j| from explicit differences, at most
    EUCLIDEAN_BLOCK_ROWS rows at a time. The expansion
    |a|^2 + |b|^2 - 2 a.b would cancel for close pairs, which are the
    ones the clustering's selection radius compares."""
    n, width = X.shape
    D = np.zeros((n, n))
    buf = np.empty((min(EUCLIDEAN_BLOCK_ROWS, n - 1), width))
    for i in range(n - 1):
        for lo in range(i + 1, n, EUCLIDEAN_BLOCK_ROWS):
            hi = min(lo + EUCLIDEAN_BLOCK_ROWS, n)
            diff = np.subtract(X[lo:hi], X[i], out=buf[: hi - lo])
            D[i, lo:hi] = np.sqrt(_row_dots(diff, diff))
    return D + D.T


def cosine_distance_rows(X: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """The rows ``rows`` of ``pairwise_distance_matrix(X, "cosine")``,
    bit for bit, from len(rows) rows of dots instead of n / 2: each
    entry is the same BLAS dot, its operands in the same order."""
    X = np.asarray(X, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.intp)
    G = np.empty((len(rows), len(X)))
    for g, i in zip(G, rows):
        # _pairwise_gram forms G[i, j] as X[j] . X[i] for j >= i and as
        # X[i] . X[j] below the diagonal
        g[i:] = _row_dots(X[i:], X[i])
        g[:i] = _row_dots(np.broadcast_to(X[i], (i, X.shape[1])), X[:i])
    return _cosine_from_gram(G, _row_dots(X, X), rows)


def pairwise_distance_matrix(
    vectors: Sequence[np.ndarray] | np.ndarray, metric: str = "cosine"
) -> np.ndarray:
    """Symmetric zero-diagonal matrix of pairwise distances between the
    rows of ``vectors`` (a sequence of equal-length vectors or an (n, P)
    array, which is used without a copy).

    ``metric`` is "cosine" (the default) or "euclidean". Euclidean
    distances see update magnitude as well as direction, which matters
    when an attacker scales an otherwise benign-looking update.

    Each distance is computed from its own pair of rows alone, with one
    BLAS dot as ``cosine_distance`` and ``np.linalg.norm(a - b)`` form
    it, so identical rows tie exactly and nearest-donor choice keeps its
    lower-id rule.
    """
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("need a sequence of equal-length vectors")
    if len(X) < 2:
        raise ValueError("need at least two vectors")
    if metric == "cosine":
        return gram_cosine_distances(_pairwise_gram(X))
    if metric == "euclidean":
        return _euclidean_distances(X)
    raise ValueError(f"unknown metric {metric!r}")


def compute_update(
    model: ParameterVector,
    global_model: ParameterVector,
    client_id: int = 0,
    sample_count: int = 1,
    true_role: Role = Role.BENIGN,
) -> ClientUpdate:
    """Client delta = model - global, packaged with metadata."""
    if model.schema != global_model.schema:
        raise SchemaError("model and global schemas differ")
    delta = ParameterVector(model.values - global_model.values, model.schema)
    return ClientUpdate(client_id, delta, model, sample_count, true_role)
