"""Synthetic datasets, IDX ingestion, Dirichlet partitioning, and
trigger / poison construction.

Features are flat float64 arrays in [0, 1], indexed row-major on a
sqrt(d) x sqrt(d) grid so a patch trigger in the lower-right corner is
meaningful. All generators are deterministic under a fixed seed.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX file."""


class IdxMagicError(IdxFormatError):
    pass


class IdxTruncatedError(IdxFormatError):
    pass


class IdxCountMismatchError(IdxFormatError):
    pass


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
    """A fixed patch written into the feature vector plus a target relabel."""

    patch_coords: tuple[int, ...]
    patch_value: float
    target_label: int
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


def corner_patch_trigger(
    dim: int, patch_side: int = 3, patch_value: float = 1.0,
    target_label: int = 1, fragments: int = 1,
) -> TriggerSpec:
    """Square patch in the lower-right corner of the row-major feature grid."""
    side = int(round(dim ** 0.5))
    if side * side != dim:
        raise ValueError(f"feature dim {dim} is not a square grid")
    if patch_side > side:
        raise ValueError("patch larger than grid")
    coords = [
        r * side + c
        for r in range(side - patch_side, side)
        for c in range(side - patch_side, side)
    ]
    return TriggerSpec(tuple(coords), patch_value, target_label, fragments)


@dataclass(frozen=True)
class PartitionPlan:
    client_indices: tuple[tuple[int, ...], ...]
    alpha: float

    def __post_init__(self):
        seen: set[int] = set()
        for idx in self.client_indices:
            if not idx:
                raise ValueError("every client must receive at least one sample")
            dup = seen.intersection(idx)
            if dup:
                raise ValueError("client index lists must be disjoint")
            seen.update(idx)


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
    background: float = 0.35,
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
        raise IdxTruncatedError(f"{path}: shorter than magic header")
    (magic,) = struct.unpack(">i", raw[:4])
    if magic != expected_magic:
        raise IdxMagicError(f"{path}: magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
    ndims = magic & 0xFF
    header = 4 + 4 * ndims
    if len(raw) < header:
        raise IdxTruncatedError(f"{path}: truncated dimension header")
    dims = struct.unpack(f">{ndims}i", raw[4:header])
    count = int(np.prod(dims))
    body = np.frombuffer(raw, dtype=np.uint8, offset=header)
    if len(body) < count:
        raise IdxTruncatedError(f"{path}: {len(body)} bytes, expected {count}")
    return body[:count], dims


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label pair, pixels scaled to [0, 1], row-major."""
    pixels, img_dims = _read_idx(images_path, IDX_IMAGES_MAGIC)
    labels, lbl_dims = _read_idx(labels_path, IDX_LABELS_MAGIC)
    n = img_dims[0]
    if lbl_dims[0] != n:
        raise IdxCountMismatchError(
            f"{lbl_dims[0]} labels for {n} images"
        )
    dim = int(np.prod(img_dims[1:]))
    feats = pixels.reshape(n, dim).astype(np.float64) / 255.0
    labels = labels.astype(np.int64)
    return Dataset(feats, labels, int(labels.max()) + 1 if n else 10)


def dirichlet_partition(
    ds: Dataset, n_clients: int, alpha: float, seed: int, max_attempts: int = 100
) -> PartitionPlan:
    """Per class, draw Dirichlet(alpha) proportions over clients and split
    that class's samples accordingly.

    A draw that leaves any client empty is discarded and the whole
    partition redrawn with an incremented sub-seed. ValueError when
    ``max_attempts`` draws all leave a client empty: the dataset is too
    small for the client count at this alpha.
    """
    if n_clients < 2:
        raise ValueError("need at least two clients")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if len(ds) < n_clients:
        raise ValueError("dataset smaller than client count")
    for attempt in range(max_attempts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), 0xD1, attempt]))
        buckets: list[list[int]] = [[] for _ in range(n_clients)]
        for c in range(ds.num_classes):
            class_idx = np.flatnonzero(ds.labels == c)
            if not len(class_idx):
                continue
            rng.shuffle(class_idx)
            props = rng.dirichlet(np.full(n_clients, alpha))
            # cumulative split points; the last client absorbs rounding
            cuts = np.floor(np.cumsum(props) * len(class_idx)).astype(int)
            cuts[-1] = len(class_idx)
            start = 0
            for j, stop in enumerate(cuts):
                buckets[j].extend(int(i) for i in class_idx[start:stop])
                start = stop
        if all(buckets):
            return PartitionPlan(tuple(tuple(b) for b in buckets), alpha)
    raise ValueError(
        f"no partition gives each of {n_clients} clients a sample after "
        f"{max_attempts} attempts; use more samples per class or a larger alpha"
    )


def apply_trigger(
    features: np.ndarray, label: int, spec: TriggerSpec,
    fragment_index: int | None = None,
) -> tuple[np.ndarray, int]:
    """Return a triggered copy: patch coords set to patch_value, label
    replaced by the target. With a fragment index, only that round-robin
    coordinate subset is written."""
    coords = spec.patch_coords if fragment_index is None else spec.fragment_coords(fragment_index)
    out = np.array(features, dtype=np.float64, copy=True)
    out[list(coords)] = spec.patch_value
    return out, spec.target_label


def poison_partition(
    ds: Dataset, pdr: float, spec: TriggerSpec,
    fragment_index: int | None, seed: int,
) -> Dataset:
    """Replace exactly floor(pdr * n) samples (seeded choice) by their
    triggered versions."""
    if not 0.0 <= pdr <= 1.0:
        raise ValueError("pdr must be in [0, 1]")
    n = len(ds)
    k = int(np.floor(pdr * n + 1e-9))  # guard against 0.3 * 100 = 29.999...
    if k == 0:
        return ds
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), 0xB0]))
    chosen = rng.permutation(n)[:k]
    feats = ds.features.copy()
    labels = ds.labels.copy()
    for i in chosen:
        feats[i], labels[i] = apply_trigger(ds.features[i], int(ds.labels[i]), spec, fragment_index)
    return Dataset(feats, labels, ds.num_classes)


def triggered_test_set(ds: Dataset, spec: TriggerSpec) -> Dataset:
    """Full-trigger copies of every test sample whose true label differs
    from the target; labels keep their TRUE values (the caller checks how
    often predictions hit the target)."""
    keep = np.flatnonzero(ds.labels != spec.target_label)
    if not len(keep):
        raise ValueError("no eligible samples: all labels equal the target")
    feats = ds.features[keep].copy()
    feats[:, list(spec.patch_coords)] = spec.patch_value
    return Dataset(feats, ds.labels[keep].copy(), ds.num_classes)
