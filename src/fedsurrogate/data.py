"""Synthetic datasets, IDX ingestion, Dirichlet partitioning, and
trigger / poison construction.

Features are flat float64 arrays in [0, 1], indexed row-major on a
sqrt(d) x sqrt(d) grid so a patch trigger in the lower-right corner is
meaningful. All generators are deterministic under a fixed seed.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .params import floor_share

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# The run's trigger: a PATCH_SIDE x PATCH_SIDE square set to PATCH_VALUE
# that relabels to TARGET_LABEL.
PATCH_SIDE, PATCH_VALUE, TARGET_LABEL = 3, 1.0, 1

# Pixel value of the uninformative half of ``generate_synthetic``'s means.
BACKGROUND = 0.35

# Dirichlet draws ``dirichlet_partition`` makes before it deals each
# client one sample first.
PARTITION_ATTEMPTS = 100


class IdxFormatError(ValueError):
    """Malformed IDX file; the message names the file and the fault."""


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, d) float64 in [0, 1]
    labels: np.ndarray    # (n,) int
    num_classes: int

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be (n, d), labels (n,)")
        if len(self.features) != len(self.labels):
            raise ValueError("feature/label count mismatch")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("label out of range")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: Sequence[int]) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.features[idx], self.labels[idx], self.num_classes)


@dataclass(frozen=True)
class TriggerSpec:
    """The feature coordinates a trigger sets to PATCH_VALUE (relabelling
    to TARGET_LABEL), split round-robin into ``fragments`` parts."""

    patch_coords: tuple[int, ...]
    fragments: int = 1

    def __post_init__(self):
        if len(set(self.patch_coords)) != len(self.patch_coords):
            raise ValueError("patch coordinates must be unique")
        if not 1 <= self.fragments <= len(self.patch_coords):
            raise ValueError("fragments must be in [1, len(patch_coords)]")

    def fragment_coords(self, fragment_index: int) -> tuple[int, ...]:
        """Round-robin coordinate assignment: coord i goes to fragment i mod f."""
        if not 0 <= fragment_index < self.fragments:
            raise ValueError(f"fragment index {fragment_index} out of range")
        return tuple(
            c for i, c in enumerate(self.patch_coords) if i % self.fragments == fragment_index
        )


def corner_patch_trigger(dim: int, fragments: int = 1) -> TriggerSpec:
    """The PATCH_SIDE square in the lower-right corner of the row-major
    feature grid."""
    side = int(round(dim ** 0.5))
    if side * side != dim:
        raise ValueError(f"feature dim {dim} is not a square grid")
    if PATCH_SIDE > side:
        raise ValueError("patch larger than grid")
    coords = [
        r * side + c
        for r in range(side - PATCH_SIDE, side)
        for c in range(side - PATCH_SIDE, side)
    ]
    return TriggerSpec(tuple(coords), fragments)


def class_bits(num_classes: int, dim: int) -> tuple[int, int]:
    """(informative coordinates, bits of a class index) of
    ``generate_synthetic``'s class means, which cycle the index's bits
    over the first half of the coordinates. Raises ValueError when that
    half holds fewer coordinates than bits: two classes would share a
    mean."""
    informative = max(1, dim // 2)
    bits_needed = max(1, (num_classes - 1).bit_length())
    if informative < bits_needed:
        raise ValueError(f"{num_classes} classes need dim >= {2 * bits_needed}, "
                         "to give every class a distinct mean")
    return informative, bits_needed


def generate_synthetic(
    num_classes: int, dim: int, per_class: int, spread: float, seed: int,
    background: float = BACKGROUND,
) -> Dataset:
    """Class-conditional Gaussian clouds around well-separated means.

    Class means are a fixed function of the class index, so datasets
    generated with different seeds share the same class structure and
    differ only in the sampled noise. Only the first half of the
    coordinates carry class information (distinct corners of a +/-0.35
    hypercube around 0.5); the second half is a uniform dark background
    for every class, mimicking the uninformative border regions of
    image data. A darker background leaves more headroom for a
    bright patch trigger while keeping honest training pressure on the
    patch region, so a planted trigger decays once its sponsors stop
    reinforcing it. Samples are mean + N(0, spread^2), clipped to [0, 1].
    """
    if num_classes < 1 or dim < 1 or per_class < 1:
        raise ValueError("counts must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), 0x5D]))
    informative, bits_needed = class_bits(num_classes, dim)
    cols = np.arange(informative) % bits_needed
    signs = np.array(
        [2.0 * ((c >> cols) & 1) - 1.0 for c in range(num_classes)]
    )
    if not 0.0 <= background <= 1.0:
        raise ValueError("background must lie in [0, 1]")
    means = np.full((num_classes, dim), float(background))
    means[:, :informative] = 0.5 + 0.35 * signs
    feats = np.empty((num_classes * per_class, dim), dtype=np.float64)
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        feats[block] = means[c] + spread * rng.standard_normal((per_class, dim))
        labels[block] = c
    np.clip(feats, 0.0, 1.0, out=feats)
    return Dataset(feats, labels, num_classes)


def _read_idx(path: str, expected_magic: int) -> tuple[np.ndarray, tuple[int, ...]]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise IdxFormatError(f"{path}: shorter than magic header")
    (magic,) = struct.unpack(">i", raw[:4])
    if magic != expected_magic:
        raise IdxFormatError(f"{path}: magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
    ndims = magic & 0xFF
    header = 4 + 4 * ndims
    if len(raw) < header:
        raise IdxFormatError(f"{path}: truncated dimension header")
    dims = struct.unpack(f">{ndims}i", raw[4:header])
    if min(dims, default=0) < 0:
        raise IdxFormatError(f"{path}: negative dimension in header {dims}")
    count = math.prod(dims)
    body = np.frombuffer(raw, dtype=np.uint8, offset=header)
    if len(body) < count:
        raise IdxFormatError(f"{path}: truncated, {len(body)} bytes, expected {count}")
    return body[:count], dims


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label pair, pixels scaled to [0, 1], row-major."""
    pixels, img_dims = _read_idx(images_path, IDX_IMAGES_MAGIC)
    labels, lbl_dims = _read_idx(labels_path, IDX_LABELS_MAGIC)
    n = img_dims[0]
    if lbl_dims[0] != n:
        raise IdxFormatError(f"{labels_path}: {lbl_dims[0]} labels for the {n} images "
                             f"of {images_path}")
    dim = math.prod(img_dims[1:])
    feats = pixels.reshape(n, dim).astype(np.float64) / 255.0
    labels = labels.astype(np.int64)
    return Dataset(feats, labels, int(labels.max()) + 1 if n else 10)


def _class_split(
    ds: Dataset, pool: np.ndarray, n_clients: int, alpha: float, rng: np.random.Generator
) -> list[list[np.ndarray]]:
    """Per class with samples in ``pool``, those samples shuffled and cut
    by Dirichlet(alpha) proportions into one slice per client."""
    pieces = []
    for c in range(ds.num_classes):
        class_idx = pool[ds.labels[pool] == c]
        if not len(class_idx):
            continue
        rng.shuffle(class_idx)
        props = rng.dirichlet(np.full(n_clients, alpha))
        # cumulative split points; the last client absorbs rounding
        cuts = np.floor(np.cumsum(props) * len(class_idx)).astype(int)
        pieces.append(np.split(class_idx, cuts[:-1]))
    return pieces


def dirichlet_partition(ds: Dataset, n_clients: int, alpha: float, seed: int) -> list[np.ndarray]:
    """Each client's sample indices: per class, draw Dirichlet(alpha)
    proportions over clients and split that class's samples accordingly,
    so a client's array holds its share of class 0, then of class 1, ...

    A draw that leaves any client empty is discarded and the whole
    partition redrawn with an incremented sub-seed. When ``PARTITION_ATTEMPTS``
    draws all leave a client empty (too few samples for the client count
    at this alpha), each client is dealt one sample of a seeded
    permutation first, ahead of its share of one Dirichlet draw over the
    rest.
    """
    if n_clients < 2:
        raise ValueError("need at least two clients")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if len(ds) < n_clients:
        raise ValueError(f"dataset of {len(ds)} samples is smaller than "
                         f"the {n_clients} clients")

    def attempt_rng(attempt: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), 0xD1, attempt]))

    everyone = np.arange(len(ds))
    for attempt in range(PARTITION_ATTEMPTS):
        pieces = _class_split(ds, everyone, n_clients, alpha, attempt_rng(attempt))
        shards = [np.concatenate(parts) for parts in zip(*pieces)]
        if all(len(s) for s in shards):
            return shards
    rng = attempt_rng(PARTITION_ATTEMPTS)
    order = rng.permutation(len(ds))
    dealt = np.split(order[:n_clients], n_clients)
    return [np.concatenate(parts)
            for parts in zip(dealt, *_class_split(ds, order[n_clients:], n_clients, alpha, rng))]


def poison_partition(
    ds: Dataset, pdr: float, spec: TriggerSpec,
    fragment_index: int | None, seed: int,
) -> Dataset:
    """Replace exactly floor(pdr * n) samples (seeded choice) by their
    triggered versions: the patch coordinates set to PATCH_VALUE (with a
    fragment index, only that round-robin subset of them) and the label
    replaced by TARGET_LABEL."""
    if not 0.0 <= pdr <= 1.0:
        raise ValueError("pdr must be in [0, 1]")
    n = len(ds)
    k = floor_share(pdr, n)
    if k == 0:
        return ds
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), 0xB0]))
    chosen = rng.permutation(n)[:k]
    coords = spec.patch_coords if fragment_index is None else spec.fragment_coords(fragment_index)
    feats = ds.features.copy()
    labels = ds.labels.copy()
    feats[np.ix_(chosen, coords)] = PATCH_VALUE
    labels[chosen] = TARGET_LABEL
    return Dataset(feats, labels, ds.num_classes)


def triggered_test_set(ds: Dataset, spec: TriggerSpec) -> Dataset:
    """Full-trigger copies of every test sample whose true label differs
    from TARGET_LABEL; labels keep their TRUE values (``metrics.asr``
    counts how often predictions hit the target)."""
    keep = np.flatnonzero(ds.labels != TARGET_LABEL)
    if not len(keep):
        raise ValueError("no eligible samples: all labels equal the target")
    feats = ds.features[keep].copy()
    feats[:, list(spec.patch_coords)] = PATCH_VALUE
    return Dataset(feats, ds.labels[keep].copy(), ds.num_classes)
