import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsurrogate.data import (
    PATCH_VALUE,
    TARGET_LABEL,
    Dataset,
    IdxFormatError,
    TriggerSpec,
    corner_patch_trigger,
    dirichlet_partition,
    generate_synthetic,
    load_idx,
    poison_partition,
    triggered_test_set,
)
from fedsurrogate.model import MlpArchitecture, TrainConfig, evaluate, init_model, local_train


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(4, 64, 10, 0.1, seed=3)
        b = generate_synthetic(4, 64, 10, 0.1, seed=3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_range_and_counts(self):
        ds = generate_synthetic(4, 64, 25, 0.1, seed=0)
        assert len(ds) == 100
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
        assert sorted(np.unique(ds.labels)) == [0, 1, 2, 3]

    def test_linearly_learnable(self):
        # a small classifier trained on the full set separates the classes
        ds = generate_synthetic(4, 64, 50, 0.1, seed=5)
        arch = MlpArchitecture((64, 16, 4))
        params = local_train(
            arch, init_model(arch, 0), ds,
            TrainConfig(epochs=10, learning_rate=0.1, batch_size=32, seed=0),
        )
        assert evaluate(arch, params, ds) >= 0.95

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, 64, 10, 0.1, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(4, 64, 10, 0.1, seed=0, background=1.5)


def write_idx_pair(tmp_path, images, labels):
    n, rows, cols = images.shape
    img_path = tmp_path / "img.idx"
    lbl_path = tmp_path / "lbl.idx"
    img_path.write_bytes(
        struct.pack(">iiii", 0x00000803, n, rows, cols) + images.astype(np.uint8).tobytes()
    )
    lbl_path.write_bytes(struct.pack(">ii", 0x00000801, len(labels))
                         + np.asarray(labels, dtype=np.uint8).tobytes())
    return str(img_path), str(lbl_path)


class TestIdx:
    def test_round_trip(self, tmp_path):
        images = np.arange(2 * 4 * 4, dtype=np.uint8).reshape(2, 4, 4)
        img, lbl = write_idx_pair(tmp_path, images, [1, 0])
        ds = load_idx(img, lbl)
        assert len(ds) == 2 and ds.dim == 16
        assert ds.features.max() <= 1.0
        assert np.allclose(ds.features[0] * 255.0, images[0].ravel())
        assert ds.labels.tolist() == [1, 0]

    def test_wrong_magic(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, [0])
        with pytest.raises(IdxFormatError, match=r"lbl\.idx: magic 0x00000801, expected 0x00000803"):
            load_idx(lbl, lbl)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, [0, 1, 0])
        with pytest.raises(IdxFormatError, match=r"lbl\.idx: 3 labels for the 2 images of .*img\.idx"):
            load_idx(img, lbl)

    def test_truncated(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, [0, 1])
        data = open(img, "rb").read()
        (tmp_path / "short.idx").write_bytes(data[:-3])
        with pytest.raises(IdxFormatError, match=r"short\.idx: truncated, 5 bytes, expected 8"):
            load_idx(str(tmp_path / "short.idx"), lbl)

    def test_negative_dimension(self, tmp_path):
        """A negative dimension in either header is rejected, naming the
        file: (-1, 2, 2) over 12 pixel bytes would read as 2 images, and
        (-1) over 3 label bytes as 2 labels."""
        img, lbl = tmp_path / "img.idx", tmp_path / "lbl.idx"
        img.write_bytes(struct.pack(">iiii", 0x00000803, -1, 2, 2) + bytes(12))
        lbl.write_bytes(struct.pack(">ii", 0x00000801, -1) + bytes(3))
        with pytest.raises(IdxFormatError, match=r"img\.idx: negative dimension"):
            load_idx(str(img), str(lbl))
        img.write_bytes(struct.pack(">iiii", 0x00000803, 3, 2, 2) + bytes(12))
        with pytest.raises(IdxFormatError, match=r"lbl\.idx: negative dimension"):
            load_idx(str(img), str(lbl))

    def test_overflowing_dimensions(self, tmp_path):
        """The payload is counted exactly: (2**31 - 1) ** 2 * 4 as an int64
        product wraps negative and would pass the truncation check."""
        _, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0])
        big = 2**31 - 1
        big_path = tmp_path / "big.idx"
        big_path.write_bytes(struct.pack(">iiii", 0x00000803, big, big, 4) + bytes(16))
        with pytest.raises(IdxFormatError,
                           match=rf"big\.idx: truncated, 16 bytes, expected {big * big * 4}"):
            load_idx(str(big_path), lbl)


class TestDirichlet:
    def test_partition_covers_everything(self):
        ds = generate_synthetic(4, 16, 50, 0.1, seed=1)
        shards = dirichlet_partition(ds, 10, alpha=0.5, seed=1)
        assert len(shards) == 10 and all(len(shard) for shard in shards)
        assert np.array_equal(np.sort(np.concatenate(shards)), np.arange(len(ds)))

    def test_near_uniform_at_large_alpha(self):
        rel_errs = []
        for seed in range(20):
            ds = generate_synthetic(10, 16, 200, 0.1, seed=seed)
            for shard in dirichlet_partition(ds, 20, alpha=1000.0, seed=seed):
                hist = np.bincount(ds.labels[shard], minlength=10)
                rel_errs.append(np.abs(hist / hist.sum() - 0.1).max() / 0.1)
        assert float(np.mean(rel_errs)) < 0.10

    def test_concentrated_at_small_alpha(self):
        hit = 0
        for seed in range(20):
            ds = generate_synthetic(10, 16, 100, 0.1, seed=seed)
            for shard in dirichlet_partition(ds, 20, alpha=0.05, seed=seed):
                hist = np.bincount(ds.labels[shard], minlength=10)
                if hist.max() / hist.sum() >= 0.8:
                    hit += 1
                    break
        assert hit == 20

    def test_deterministic(self):
        ds = generate_synthetic(4, 16, 50, 0.1, seed=2)
        p1 = dirichlet_partition(ds, 5, alpha=0.5, seed=9)
        p2 = dirichlet_partition(ds, 5, alpha=0.5, seed=9)
        assert len(p1) == len(p2) and all(map(np.array_equal, p1, p2))

    def test_invalid_alpha(self):
        ds = generate_synthetic(4, 16, 50, 0.1, seed=2)
        with pytest.raises(ValueError):
            dirichlet_partition(ds, 5, alpha=0.0, seed=0)

    def test_failed_redraws_deal_one_sample_each(self):
        # 40 samples over 40 clients: every draw leaves some client empty,
        # so the fallback deals each client one sample and nothing is left
        ds = generate_synthetic(4, 16, 10, 0.1, seed=2)
        shards = dirichlet_partition(ds, 40, alpha=0.5, seed=0)
        assert [len(s) for s in shards] == [1] * 40
        assert np.array_equal(np.sort(np.concatenate(shards)), np.arange(40))
        again = dirichlet_partition(ds, 40, alpha=0.5, seed=0)
        assert all(map(np.array_equal, shards, again))

    @pytest.mark.parametrize("n_clients, alpha", [(80, 0.1), (1000, 0.5)])
    def test_fallback_covers_every_sample_and_keeps_the_skew(self, n_clients, alpha):
        # the default data size: 4 classes of 300 samples
        ds = generate_synthetic(4, 16, 300, 0.05, seed=7)
        shards = dirichlet_partition(ds, n_clients, alpha, seed=3)
        assert len(shards) == n_clients and min(len(s) for s in shards) >= 1
        assert np.array_equal(np.sort(np.concatenate(shards)), np.arange(len(ds)))
        entropies = []
        for shard in shards:
            p = np.bincount(ds.labels[shard], minlength=4) / len(shard)
            entropies.append(-np.sum(p[p > 0] * np.log(p[p > 0])))
        assert np.mean(entropies) < 0.5 * np.log(4)


class TestTrigger:
    def test_round_robin_fragment(self):
        spec = TriggerSpec(tuple(range(9)), fragments=4)
        assert spec.fragment_coords(0) == (0, 4, 8)
        assert spec.fragment_coords(1) == (1, 5)

    def test_corner_patch_coords(self):
        spec = corner_patch_trigger(64)
        side = 8
        expected = tuple(r * side + c for r in range(5, 8) for c in range(5, 8))
        assert spec.patch_coords == expected

    def test_poison_writes_only_its_fragment_and_the_target(self):
        ds = Dataset(np.zeros((8, 5)), np.array([0, 1, 2, 1, 0, 1, 2, 1]), 3)
        spec = TriggerSpec((0, 1, 3), fragments=2)
        assert (PATCH_VALUE, TARGET_LABEL) == (1.0, 1)
        for fragment_index, coords in ((None, [0, 1, 3]), (0, [0, 3]), (1, [1])):
            out = poison_partition(ds, 0.5, spec, fragment_index, seed=4)
            chosen = out.features.any(axis=1)
            assert chosen.sum() == 4
            expect = np.zeros((8, 5))
            expect[np.ix_(chosen, coords)] = 1.0
            assert np.array_equal(out.features, expect)
            # a chosen sample of the target class keeps the target label
            assert np.all(out.labels[chosen] == 1) and 1 in ds.labels[chosen]
            assert np.array_equal(out.labels[~chosen], ds.labels[~chosen])

    def test_pdr_zero_identity(self):
        ds = generate_synthetic(4, 64, 10, 0.1, seed=0)
        spec = corner_patch_trigger(64)
        out = poison_partition(ds, 0.0, spec, fragment_index=None, seed=0)
        assert np.array_equal(out.features, ds.features)
        assert np.array_equal(out.labels, ds.labels)

    def test_pdr_one_everything_triggered(self):
        ds = generate_synthetic(4, 64, 10, 0.1, seed=0)
        spec = corner_patch_trigger(64)
        out = poison_partition(ds, 1.0, spec, fragment_index=None, seed=0)
        assert np.all(out.labels == 1)
        assert np.all(out.features[:, list(spec.patch_coords)] == PATCH_VALUE)

    def test_triggered_test_set_excludes_target(self):
        ds = generate_synthetic(4, 64, 10, 0.1, seed=0)
        spec = corner_patch_trigger(64)
        trig = triggered_test_set(ds, spec)
        assert 1 not in trig.labels
        assert np.all(trig.features[:, list(spec.patch_coords)] == PATCH_VALUE)

    @given(pdr=st.floats(0.0, 1.0), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_poison_count_exact(self, pdr, seed):
        ds = generate_synthetic(2, 64, 20, 0.05, seed=0)
        spec = corner_patch_trigger(64)
        out = poison_partition(ds, pdr, spec, fragment_index=None, seed=seed)
        changed = int(np.sum(np.any(out.features != ds.features, axis=1)
                             | (out.labels != ds.labels)))
        assert changed <= int(np.floor(pdr * len(ds) + 1e-9))
