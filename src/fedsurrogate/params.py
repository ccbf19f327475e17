"""Flat parameter vectors with a named-layer schema, and the pairwise
cosine and Euclidean distances of Stages 1 and 3, one dot per pair.

All arithmetic is float64; vectors are frozen after construction so
they can be shared without copies. The (n, width) arrays the geometry
reads and writes row by row (a round's deltas, feature copies, scratch
blocks) come from ``aligned_rows``, whose rows each start on a 64-byte
boundary: numpy's vector loops run at about twice the speed over rows
that do not split cache lines, and give the same bits.

``pairwise_distance_matrix`` is the one exact geometry entry point: it
returns any rows of the n x n matrix, on the calling thread, and each
of its loops keeps EUCLIDEAN_BLOCK_ROWS rows in L2 cache while the rest
of the matrix streams past. Stage 3 asks it for the flagged clients'
rows alone. Stage 1 does not call it. It screens with
``euclidean_bounds``, one Gram product that brackets every Euclidean
distance, and computes exactly, with ``euclidean_pairs`` and the
matrix's bits, only the pairs its clustering depends on
(``clustering.screened_matrix``): about 700 of the 51 040 pairs at
n = 320. The Gram form alone stays unfit for distances, since it
cancels on close pairs; it only decides which pairs need them.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

EPS_ZERO = 1e-12          # norms below this count as degenerate
ZERO_NORM_DISTANCE = 1.0  # cosine-distance fallback for degenerate pairs


def floor_share(rate: float, n: int) -> int:
    """floor(rate * n), read as the integer a product lands just under:
    0.29 * 100 is 28.999999999999996 in float64, and counts 29."""
    return int(np.floor(rate * n + 1e-9))


class SchemaError(ValueError):
    """Layer-schema violation: unknown name, bad offsets, length mismatch."""


def check_key(ok: bool, key: str, rule: str, value: object) -> None:
    """Raise the ValueError ``config key 'lca.top_k' must be >= 1, not 0``
    unless ``ok``: a config section's range check on its dotted leaf."""
    if not ok:
        raise ValueError(f"config key {key!r} must be {rule}, not {value}")


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


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A[k] . B[k] for every row k (B may be one row, shared). Each is a
    BLAS dot of its own, the sum ``np.dot`` and ``np.linalg.norm`` form
    for one pair, so equal inputs give equal bits wherever they sit."""
    return np.matmul(A[:, None, :], B[..., None])[:, 0, 0]


# Rows held at once by each geometry buffer: a block of rows of X in the
# Euclidean rows, a batch of gathered rows in the cosine rows. They stay
# in L2 (686 KB at 2676 columns) while the loop streams the rest of the
# matrix past them.
EUCLIDEAN_BLOCK_ROWS = 32


def aligned_rows(n: int, width: int) -> np.ndarray:
    """An uninitialised (n, width) float64 array whose rows each start on
    a 64-byte boundary: its row stride is ``width`` rounded up to 8
    values, and it is a view of a flat buffer (its ``.base``) that holds
    at most 7 values more than its n strides. A row that does not start
    on a cache line splits each 64-byte vector load of numpy's loops
    across two lines, which about halves the speed of ``np.subtract``
    over the row."""
    stride = -(-width // 8) * 8
    buf = np.empty(n * stride + 7)
    start = -(buf.ctypes.data // 8) % 8
    return buf[start:start + n * stride].reshape(n, stride)[:, :width]


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Rows per tile of the Gram product. BLAS packs its operands into a work
# buffer that stays resident: 0.57 MB for a 64 x 64 tile at 2676 columns,
# 1.54 MB for a 320 x 320 product in one call. The tiles take 6.4 ms
# there against 4.3 ms for the one call, on one thread.
GRAM_TILE_ROWS = 64


def _gram(X: np.ndarray) -> np.ndarray:
    """X X^T, symmetric bit for bit: each tile on or above the diagonal
    is one BLAS product (numpy takes a tile on it, X[a:b] @ X[a:b].T,
    as a symmetric product), and each tile below is its mirror's
    transpose."""
    n, T = len(X), GRAM_TILE_ROWS
    G = np.empty((n, n))
    for a in range(0, n, T):
        for b in range(a, n, T):
            np.matmul(X[a:a + T], X[b:b + T].T, out=G[a:a + T, b:b + T])
            if b > a:
                G[b:b + T, a:a + T] = G[a:a + T, b:b + T].T
    return G


# c in euclidean_bounds' error term: at least 8 covers the dot products'
# error (gamma_P, in any summation order), each difference's rounding
# and the root's, and the rounding of the bounds' own arithmetic.
BOUND_FACTOR = 16.0


def euclidean_bounds(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric (n, n) arrays L and U with zero diagonals that bracket
    every entry D of ``pairwise_distance_matrix(X, "euclidean")``,
    L <= D <= U, from one Gram product. With s = ``row_dots(X, X)``,
    G = X X^T, the Gram form D~^2 = s_i + s_j - 2 G_ij and
    E = c P u (|x_i| + |x_j|)^2 + c P 2^-1074 (u = 2^-53, c =
    BOUND_FACTOR):

        L = sqrt(max(D~^2 - E, 0)) (1 - c P u),
        U = sqrt(D~^2 + E) (1 + c P u).

    E bounds the Gram form's error against the exact squared distance:
    gamma_P (|x_i| + |x_j|)^2 for the three dots and the rounding of the
    sums, plus P halves of the least subnormal for products that
    underflow. The factors cover the exact loop's own error (a
    difference's rounding, gamma_P in its dot, the root's), so the
    bounds hold for the bits that loop computes. The arithmetic runs on
    D~^2 / 2 and E / 2, which saves doubling G. A row with s above
    2^1020, where a dot could overflow, gets L = 0 and U = inf in each
    of its pairs: below it every dot, and the exact loop's, is finite.

    G (``_gram``) is symmetric bit for bit, and so are the bounds.
    Floating-point events of this arithmetic (E underflows near a 1e-150
    scale) are its own and do not reach the caller's ``np.errstate``."""
    X = np.asarray(X, dtype=np.float64)
    width = X.shape[1]
    cpu = BOUND_FACTOR * width * 2.0 ** -53
    with np.errstate(all="ignore"):
        s = row_dots(X, X)
        half = s / 2
        r = np.sqrt(s)
        r *= np.sqrt(cpu / 2)   # E / 2 = (r_i + r_j)^2 + tiny
        tiny = BOUND_FACTOR * width * 2.0 ** -1075
        U = _gram(X)
        L = np.add.outer(half, half)   # D~^2 / 2, then L
        L -= U
        np.add.outer(r, r, out=U)      # (D~^2 + E) / 2, then U
        U *= U
        U += tiny
        U += L
        np.sqrt(U, out=U)
        U *= np.sqrt(2.0) * (1.0 + cpu)
        # E / 2 again, a block of rows at a time: only L and U are n x n
        for lo in range(0, len(X), EUCLIDEAN_BLOCK_ROWS):
            E = np.add.outer(r[lo:lo + EUCLIDEAN_BLOCK_ROWS], r)
            E *= E
            E += tiny
            L[lo:lo + EUCLIDEAN_BLOCK_ROWS] -= E
        np.maximum(L, 0.0, out=L)
        np.sqrt(L, out=L)
        L *= np.sqrt(2.0) * (1.0 - cpu)
        far = ~(s <= 2.0 ** 1020)   # NaN too
        if far.any():
            L[far] = L[:, far] = 0.0
            U[far] = U[:, far] = np.inf
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(U, 0.0)
    return L, U


# Differences euclidean_pairs holds at once: 171 KB at 2676 columns,
# beside Stage 1's two n x n bound arrays (800 KB each at n = 320).
PAIR_BLOCK_ROWS = 8


def euclidean_pairs(X: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """|X[j[k]] - X[i[k]]| for each k, with the bits of the entry (i[k],
    j[k]) of ``pairwise_distance_matrix(X, "euclidean")`` (and of
    (j[k], i[k]), its exact negation): the same ``np.subtract`` into a
    row of an ``aligned_rows`` buffer, the same BLAS dot of the
    difference with itself and the same root. The
    differences are taken PAIR_BLOCK_ROWS at a time, one row each, so no
    copy of the rows of X is made."""
    out = np.empty(len(i))
    buf = aligned_rows(min(PAIR_BLOCK_ROWS, len(i)), X.shape[1])
    for lo in range(0, len(i), PAIR_BLOCK_ROWS):
        diff = buf[: min(PAIR_BLOCK_ROWS, len(i) - lo)]
        for row, a, b in zip(diff, i[lo:lo + len(diff)].tolist(), j[lo:lo + len(diff)].tolist()):
            np.subtract(X[b], X[a], out=row)
        # row_dots(diff, diff), written in place
        np.matmul(diff[:, None, :], diff[..., None], out=out[lo:lo + len(diff), None, None])
    return np.sqrt(out, out=out)


def _cosine_rows(X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of the cosine matrix, diagonal aside. Entry (i, j)
    is the BLAS dot X[j] . X[i], which has the bits of X[i] . X[j]: each
    product commutes exactly and the sum runs in the same order. Up to
    EUCLIDEAN_BLOCK_ROWS of the rows are gathered at a time and their
    dots with every row of X taken in one stacked matmul, which runs
    over the rows of X outside and the gathered rows inside, so the
    gathered rows stay in L2 and X is read once per batch."""
    G = np.empty((len(rows), len(X)))
    out = G.T[:, :, None, None]
    buf = aligned_rows(min(EUCLIDEAN_BLOCK_ROWS, len(rows)), X.shape[1])
    for lo in range(0, len(rows), EUCLIDEAN_BLOCK_ROWS):
        hi = min(lo + EUCLIDEAN_BLOCK_ROWS, len(rows))
        # row by row: np.take would copy a padded X whole first
        picked = buf[: hi - lo]
        for k, r in enumerate(rows[lo:hi]):
            picked[k] = X[r]
        # order="C" keeps the rows of X outside; numpy would follow
        # out's strides and read X once per picked row instead
        np.matmul(X[:, None, None, :], picked[None, :, :, None],
                  out=out[:, lo:hi], order="C")
    norms = np.sqrt(row_dots(X, X))
    ok = norms >= EPS_ZERO
    scale = np.where(ok, norms, 1.0)
    D = 1.0 - np.clip(G / np.outer(scale[rows], scale), -1.0, 1.0)
    D[~ok[rows], :] = D[:, ~ok] = ZERO_NORM_DISTANCE
    return D


def _euclidean_rows(X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of the Euclidean matrix, |X[j] - X[r]| from
    explicit differences. The expansion |a|^2 + |b|^2 - 2 a.b would
    cancel for close pairs, which are the ones the clustering's
    selection radius compares. X[j] - X[r] is the exact negation of
    X[r] - X[j], so entry (r, j) has the bits of entry (j, r).

    The outer loop runs over blocks [lo, hi) of EUCLIDEAN_BLOCK_ROWS
    rows of X; inside one, each listed row r writes X[lo:hi] - X[r] into
    one buffer and the dot of each difference with itself into D in
    place, so the block and the buffer stay in L2 while the listed rows
    stream past. One ``np.sqrt`` over D at the end takes the roots,
    which are correctly rounded, so each is the root of its own pair."""
    n = len(X)
    D = np.empty((len(rows), n))
    buf = aligned_rows(min(EUCLIDEAN_BLOCK_ROWS, n), X.shape[1])
    for lo in range(0, n, EUCLIDEAN_BLOCK_ROWS):
        hi = min(lo + EUCLIDEAN_BLOCK_ROWS, n)
        diff = buf[: hi - lo]
        for k, r in enumerate(rows):
            np.subtract(X[lo:hi], X[r], out=diff)
            # row_dots(diff, diff), written in place
            np.matmul(diff[:, None, :], diff[..., None], out=D[k, lo:hi, None, None])
    return np.sqrt(D, out=D)


def pairwise_distance_matrix(
    vectors: Sequence[np.ndarray] | np.ndarray,
    metric: str = "cosine",
    rows: Sequence[int] | None = None,
) -> np.ndarray:
    """Rows ``rows`` (default: all, in order; any order, repeats allowed)
    of the symmetric zero-diagonal matrix of pairwise distances between
    the rows of ``vectors`` (a sequence of equal-length vectors or an
    (n, P) array, which is used without a copy).

    ``metric`` is "cosine" (the default) or "euclidean". Euclidean
    distances see update magnitude as well as direction, which matters
    when an attacker scales an otherwise benign-looking update.

    Each distance is computed from its own pair of rows alone, with one
    BLAS dot as ``cosine_distance`` and ``np.linalg.norm(a - b)`` form
    it, so identical rows tie exactly and nearest-donor choice keeps its
    lower-id rule, and a row has the same bits whichever rows are asked
    for. Everything runs on the calling thread, under its
    ``np.errstate``.
    """
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("need a sequence of equal-length vectors")
    if len(X) < 2:
        raise ValueError("need at least two vectors")
    rows = np.arange(len(X)) if rows is None else np.asarray(rows, dtype=np.intp)
    if metric == "cosine":
        D = _cosine_rows(X, rows)
    elif metric == "euclidean":
        D = _euclidean_rows(X, rows)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    D[np.arange(len(rows)), rows] = 0.0
    return D


def compute_update(
    model: ParameterVector,
    global_model: ParameterVector,
    client_id: int = 0,
    sample_count: int = 1,
    true_role: Role = Role.BENIGN,
    out: np.ndarray | None = None,
) -> ClientUpdate:
    """Client delta = model - global, packaged with metadata.

    ``out``, when given, is a writeable C-contiguous float64 array of the
    schema's length, typically one row of a round's (n, P) delta matrix
    from ``aligned_rows``. The delta is written into it and
    ``delta.values`` is a read-only view of it, not a copy. The caller
    must not write to ``out`` again; making the matrix's buffer
    read-only once every row is filled (as ``harness.run_experiment``
    does) keeps the delta frozen, and lets the defense read the rows in
    place (``defense.round_matrix``)."""
    if model.schema != global_model.schema:
        raise SchemaError("model and global schemas differ")
    if out is None:
        values = model.values - global_model.values
    else:
        if (out.shape != model.values.shape or out.dtype != np.float64
                or not out.flags.c_contiguous or not out.flags.writeable):
            raise ValueError("out must be a writeable contiguous float64 row of the schema's length")
        values = np.subtract(model.values, global_model.values, out=out).view()
        values.flags.writeable = False
    delta = ParameterVector(values, model.schema)
    return ClientUpdate(client_id, delta, model, sample_count, true_role)
