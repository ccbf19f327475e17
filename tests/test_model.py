import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsurrogate.data import Dataset, dirichlet_partition, generate_synthetic
from fedsurrogate import attacks, harness, model
from fedsurrogate.data import corner_patch_trigger
from fedsurrogate.model import (
    MlpArchitecture,
    TrainConfig,
    evaluate,
    forward,
    init_model,
    local_train,
    local_train_stack,
    predict,
)
from fedsurrogate.params import ParameterVector

from model_oracle import backward, cross_entropy, forward_cache, local_train_reference


def grad_finite_difference(arch, params, features, labels, eps=1e-6):
    base = params.values
    out = np.empty_like(base)
    for i in range(len(base)):
        plus = base.copy()
        plus[i] += eps
        minus = base.copy()
        minus[i] -= eps
        lp = forward(arch, ParameterVector(plus, params.schema), features)
        lm = forward(arch, ParameterVector(minus, params.schema), features)
        out[i] = (cross_entropy(lp, labels) - cross_entropy(lm, labels)) / (2 * eps)
    return out


class TestInit:
    def test_deterministic(self):
        arch = MlpArchitecture((4, 3, 2))
        assert np.array_equal(init_model(arch, 7).values, init_model(arch, 7).values)

    def test_seed_sensitivity(self):
        arch = MlpArchitecture((4, 3, 2))
        assert not np.array_equal(init_model(arch, 7).values, init_model(arch, 8).values)

    def test_zero_biases(self):
        arch = MlpArchitecture((4, 3, 2))
        params = init_model(arch, 0)
        for _, b in arch.views(params.values):
            assert np.all(b == 0.0)


class TestForward:
    def test_zero_weights_zero_logits(self):
        arch = MlpArchitecture((4, 3, 2))
        params = ParameterVector(np.zeros(arch.schema().total_length), arch.schema())
        logits = forward(arch, params, np.ones((5, 4)))
        assert np.all(logits == 0.0)

    def test_hand_computed_two_neuron(self):
        # identity-ish single hidden pair: W1 = I (2x2), W2 = [[1,0],[0,2]]
        arch = MlpArchitecture((2, 2, 2))
        schema = arch.schema()
        values = np.zeros(schema.total_length)
        values[0:4] = np.eye(2).ravel()
        lo, _ = schema.bounds("fc2")
        values[lo:lo + 4] = np.array([[1.0, 0.0], [0.0, 2.0]]).ravel()
        logits = forward(arch, ParameterVector(values, schema), np.array([[1.0, 1.0]]))
        assert np.allclose(logits, [[1.0, 2.0]])

    def test_matches_the_oracle_forward_pass(self):
        arch = MlpArchitecture((5, 4, 3, 3))
        feats = np.random.default_rng(0).uniform(0, 1, size=(7, 5))
        params = init_model(arch, 2)
        logits, _ = forward_cache(arch, params, feats)
        assert np.array_equal(forward(arch, params, feats), logits)

    def test_dim_mismatch(self):
        arch = MlpArchitecture((4, 3, 2))
        params = init_model(arch, 0)
        with pytest.raises(ValueError):
            forward(arch, params, np.ones((2, 5)))


class TestBackward:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        arch = MlpArchitecture((5, 4, 3))
        params = init_model(arch, seed)
        feats = rng.uniform(0, 1, size=(6, 5))
        labels = rng.integers(0, 3, size=6)
        _, cache = forward_cache(arch, params, feats)
        grad = backward(arch, params, cache, labels).values
        num = grad_finite_difference(arch, params, feats, labels)
        scale = np.maximum(np.abs(num), 1e-3)
        assert np.max(np.abs(grad - num) / scale) < 1e-5

    def test_duplicated_batch_same_mean_gradient(self):
        arch = MlpArchitecture((4, 3, 2))
        params = init_model(arch, 1)
        rng = np.random.default_rng(1)
        feats = rng.uniform(0, 1, size=(3, 4))
        labels = np.array([0, 1, 1])
        _, c1 = forward_cache(arch, params, feats)
        g1 = backward(arch, params, c1, labels).values
        feats2 = np.vstack([feats, feats])
        labels2 = np.concatenate([labels, labels])
        _, c2 = forward_cache(arch, params, feats2)
        g2 = backward(arch, params, c2, labels2).values
        assert np.allclose(g1, g2, atol=1e-12)

    def test_label_out_of_range(self):
        arch = MlpArchitecture((4, 3, 2))
        params = init_model(arch, 1)
        _, cache = forward_cache(arch, params, np.ones((1, 4)))
        with pytest.raises(ValueError):
            backward(arch, params, cache, np.array([5]))


class TestLocalTrain:
    def setup_method(self):
        self.ds = generate_synthetic(3, 16, 30, 0.1, seed=0)
        self.arch = MlpArchitecture((16, 8, 3))
        self.start = init_model(self.arch, 0)

    def test_lr_zero_identity(self):
        cfg = TrainConfig(epochs=1, learning_rate=0.0, batch_size=8, seed=0)
        out = local_train(self.arch, self.start, self.ds, cfg)
        assert np.array_equal(out.values, self.start.values)

    def test_loss_decreases(self):
        cfg = TrainConfig(epochs=2, learning_rate=0.05, batch_size=16, seed=0)
        out = local_train(self.arch, self.start, self.ds, cfg)
        l0 = forward(self.arch, self.start, self.ds.features)
        l1 = forward(self.arch, out, self.ds.features)
        assert cross_entropy(l1, self.ds.labels) <= cross_entropy(l0, self.ds.labels)

    def test_seeded_reproducible(self):
        cfg = TrainConfig(epochs=2, learning_rate=0.05, batch_size=8, seed=4)
        a = local_train(self.arch, self.start, self.ds, cfg)
        b = local_train(self.arch, self.start, self.ds, cfg)
        assert np.array_equal(a.values, b.values)

    def test_empty_data_rejected(self):
        empty = Dataset(np.zeros((0, 16)), np.zeros(0, dtype=np.int64), 3)
        cfg = TrainConfig(epochs=1, learning_rate=0.1, batch_size=8, seed=0)
        with pytest.raises(ValueError):
            local_train(self.arch, self.start, empty, cfg)


def random_shard(seed):
    """A small seeded shard and architecture. Sizes run from a single
    row up, so tail batches (down to m = 1) and batches larger than the
    shard both occur; features are float64, float32 or 0/1 integers."""
    rng = np.random.default_rng(seed)
    dims = (int(rng.integers(1, 9)), *rng.integers(1, 7, size=int(rng.integers(1, 3))),
            int(rng.integers(2, 5)))
    n = 1 if seed % 7 == 0 else int(rng.integers(2, 60))
    kind = seed % 3
    if kind == 0:
        feats = rng.uniform(0, 1, (n, dims[0]))
    elif kind == 1:
        feats = rng.uniform(0, 1, (n, dims[0])).astype(np.float32)
    else:
        feats = rng.integers(0, 2, (n, dims[0]))
    data = Dataset(feats, rng.integers(0, dims[-1], n), dims[-1])
    batch = int(rng.integers(1, n + 1)) if seed % 4 else n + int(rng.integers(1, 10))
    cfg = TrainConfig(epochs=int(rng.integers(1, 4)), learning_rate=float(rng.uniform(0.01, 0.5)),
                      batch_size=batch, seed=seed)
    arch = MlpArchitecture(tuple(int(d) for d in dims))
    return arch, init_model(arch, seed), data, cfg


def pull(target, lam):
    """An extra gradient pulling every coordinate towards ``target``."""
    return lambda values: lam * (values - target)


def project(start, mask):
    """Neurotoxin's projection: the deviation from ``start`` is kept on
    ``mask`` only."""
    return lambda values: start + np.where(mask, values - start, 0.0)


class TestLocalTrainOracle:
    @pytest.mark.parametrize("seed", range(36))
    def test_plain_matches_per_step_loop(self, seed):
        arch, start, data, cfg = random_shard(seed)
        got = local_train(arch, start, data, cfg)
        assert np.array_equal(got.values, local_train_reference(arch, start, data, cfg).values)

    @pytest.mark.parametrize("seed", range(12))
    def test_extra_grad_and_post_step_match(self, seed):
        arch, start, data, cfg = random_shard(seed)
        rng = np.random.default_rng(100 + seed)
        target = rng.standard_normal(start.values.size)
        mask = rng.uniform(size=start.values.size) < 0.6
        hooks = [dict(extra_grad=pull(target, 0.3)),
                 dict(post_step=project(start.values, mask)),
                 dict(extra_grad=pull(target, 0.3), post_step=project(start.values, mask))]
        for kw in hooks:
            got = local_train(arch, start, data, cfg, **kw)
            want = local_train_reference(arch, start, data, cfg, **kw)
            assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("train", [attacks.csa_train, attacks.neurotoxin_train])
    def test_attack_hooks_match(self, train, monkeypatch):
        """CSA's cosine penalty and Neurotoxin's projection, as the
        attacks build them."""
        ds = generate_synthetic(4, 64, 20, 0.1, seed=3)
        arch = MlpArchitecture((64, 8, 4))
        start = init_model(arch, 3)
        args = (arch, start, ds, corner_patch_trigger(64), TrainConfig(2, 0.1, 16, 5),
                attacks.AttackConfig(boost=1.0))
        if train is attacks.neurotoxin_train:
            args += (np.random.default_rng(3).standard_normal(start.values.size),)
        got = train(*args)
        monkeypatch.setattr(attacks, "local_train", local_train_reference)
        assert np.array_equal(got.values, train(*args).values)

    @pytest.mark.parametrize("post_step", [False, True])
    def test_overflow_raises_as_the_per_step_loop(self, post_step):
        ds = generate_synthetic(3, 16, 30, 0.1, seed=0)
        arch = MlpArchitecture((16, 8, 3))
        start = init_model(arch, 0)
        cfg = TrainConfig(epochs=2, learning_rate=1e300, batch_size=8, seed=0)
        mask = np.arange(start.values.size) % 2 == 0
        kw = dict(post_step=project(start.values, mask)) if post_step else {}
        errors = []
        for train in (local_train, local_train_reference):
            with np.errstate(all="ignore"), pytest.raises(ValueError) as info:
                train(arch, start, ds, cfg, **kw)
            errors.append(str(info.value))
        assert errors[0] == errors[1] == "parameter vector contains non-finite entries"

    def test_one_huge_step_stays_finite_in_both(self):
        ds = generate_synthetic(3, 16, 2, 0.1, seed=0)
        arch = MlpArchitecture((16, 8, 3))
        start = init_model(arch, 0)
        cfg = TrainConfig(epochs=1, learning_rate=1e300, batch_size=8, seed=0)
        got = local_train(arch, start, ds, cfg)
        assert np.array_equal(got.values, local_train_reference(arch, start, ds, cfg).values)

    def test_one_parameter_vector_per_call(self, monkeypatch):
        built = []

        class Counted(ParameterVector):
            def __post_init__(self):
                built.append(1)
                super().__post_init__()

        arch, start, data, cfg = random_shard(1)
        monkeypatch.setattr(model, "ParameterVector", Counted)
        local_train(arch, start, data, cfg)
        assert len(built) == 1

    def test_label_beyond_the_head_rejected(self):
        arch = MlpArchitecture((2, 3, 2))
        data = Dataset(np.zeros((3, 2)), np.array([0, 1, 2]), 3)
        with pytest.raises(ValueError, match="label out of range"):
            local_train(arch, init_model(arch, 0), data, TrainConfig(1, 0.1, 8, 0))

    def test_feature_dim_mismatch_rejected(self):
        arch = MlpArchitecture((4, 3, 2))
        data = Dataset(np.zeros((3, 5)), np.array([0, 1, 1]), 2)
        with pytest.raises(ValueError, match="feature dim"):
            local_train(arch, init_model(arch, 0), data, TrainConfig(1, 0.1, 8, 0))


@st.composite
def stacks(draw):
    """A seeded architecture and a stack of 1-12 clients sharing it and
    one training config: epochs (1-5), batch size (1-40) and learning
    rate. Each client has its own seed and a ragged shard of 1 to
    3 * batch rows, with sizes drawn from a pool so that some repeat.
    Features are float64, float32 or 0/1 integers."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = (draw(st.integers(1, 8)), *draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)),
            draw(st.integers(2, 4)))
    epochs, batch = draw(st.integers(1, 5)), draw(st.integers(1, 40))
    rate = draw(st.floats(0.01, 0.5))
    kind = draw(st.sampled_from(["float64", "float32", "binary"]))
    k = draw(st.integers(1, 12))
    pool = draw(st.lists(st.integers(1, 3 * batch), min_size=1, max_size=k))
    shards, cfgs = [], []
    for n in (draw(st.sampled_from(pool)) for _ in range(k)):
        if kind == "binary":
            feats = rng.integers(0, 2, (n, dims[0]))
        else:
            feats = rng.uniform(0, 1, (n, dims[0])).astype(kind)
        shards.append(Dataset(feats, rng.integers(0, dims[-1], n), dims[-1]))
        cfgs.append(TrainConfig(epochs, rate, batch, int(rng.integers(2**32))))
    arch = MlpArchitecture(tuple(int(d) for d in dims))
    return arch, init_model(arch, int(rng.integers(2**32))), shards, cfgs


def scale_part():
    """The benchmark's scale-n320 round-0 shards and client configs for
    part 0 of two: 160 clients of 1 to 68 samples."""
    cfg = harness.ExperimentConfig(n_clients=320, mcr=0.2, alpha=0.5, rounds=6, seed=7,
                                   dataset=harness.DatasetSpec(per_class=1200))
    train, _, _ = harness._load_datasets(cfg)
    shards = [train.subset(idx) for idx in dirichlet_partition(
        train, cfg.n_clients, cfg.alpha, seed=harness._derive_seed(cfg.seed, harness._PART_TAG))]
    arch = MlpArchitecture((train.dim, *cfg.hidden_dims, train.num_classes))
    part = range(0, cfg.n_clients, 2)
    return (arch, init_model(arch, 7), [shards[c] for c in part],
            [harness._client_config(cfg, 0, c) for c in part])


class TestLocalTrainStack:
    @given(stacks())
    @settings(max_examples=60, deadline=None)
    def test_each_row_is_the_client_trained_alone(self, stack):
        arch, start, shards, cfgs = stack
        out = np.full((len(shards), start.values.size), np.nan)
        with np.errstate(all="raise"):
            order = local_train_stack(arch, start, shards, cfgs, out)
            assert sorted(order) == list(range(len(shards)))
            for row, c in zip(out, order):
                want = local_train_reference(arch, start, shards[c], cfgs[c]).values
                assert np.array_equal(row, want)

    def test_largest_shards_first(self):
        arch, start, shards, cfgs = scale_part()
        out = np.empty((len(shards), start.values.size))
        order = local_train_stack(arch, start, shards, cfgs, out)
        sizes = [len(shards[c]) for c in order]
        assert sizes == sorted(sizes, reverse=True) and sizes[-1] < sizes[0]
        for row, c in zip(out, order):
            assert np.array_equal(row, local_train(arch, start, shards[c], cfgs[c]).values)

    def test_misuse_rejected(self):
        """Hooks need a stack of one, each shard a config, all configs
        one epoch count, learning rate and batch size, and ``out`` must
        hold the rows the runs' views are taken of. An empty stack trains
        nothing."""
        arch, start, data, cfg = random_shard(1)
        P = start.values.size
        for other in (dataclasses.replace(cfg, epochs=cfg.epochs + 1),
                      dataclasses.replace(cfg, learning_rate=cfg.learning_rate / 2),
                      dataclasses.replace(cfg, batch_size=cfg.batch_size + 1)):
            with pytest.raises(ValueError, match="share epochs, learning rate and batch size"):
                local_train_stack(arch, start, [data, data], [cfg, other], np.empty((2, P)))
        with pytest.raises(ValueError, match="stack of one"):
            local_train_stack(arch, start, [data, data], [cfg, cfg], np.empty((2, P)),
                              post_step=lambda v: v)
        for out in (np.empty((P, 2)).T, np.empty((3, P)), np.empty((2, 2 * P))[:, ::2]):
            with pytest.raises(ValueError, match="C-contiguous"):
                local_train_stack(arch, start, [data, data], [cfg, cfg], out)
        with pytest.raises(ValueError, match="1 train configs for 2 shards"):
            local_train_stack(arch, start, [data, data], [cfg], np.empty((2, P)))
        assert local_train_stack(arch, start, [], [], np.empty((0, P))) == []

    def test_memory_peak_is_the_models_and_one_run(self):
        """Above entry, the stack holds its (k, P) models, a gradient of
        its widest run's rows, its largest run's activations (the input,
        every layer's output and every hidden layer's input gradient in
        float64, a ReLU mask and the labels), and up to 4 KiB a client of
        Python objects: its generator, its permutation and its runs'
        views. Measured with numpy 2.4.6: a peak of 4.72 MiB against a
        bound of 4.82 MiB (widest run 15 clients, largest 480 rows). A
        (k, P) gradient buffer would read about 7.6 MiB."""
        arch, start, shards, cfgs = scale_part()
        k, P, dims = len(shards), start.values.size, arch.layer_dims
        bs = cfgs[0].batch_size
        runs = [[min(max(len(s) - t * bs, 0), bs) for s in shards] for t in range(3)]
        widest = max(row.count(m) for row in runs for m in set(row) - {0})
        rows = max(row.count(m) * m for row in runs for m in set(row) - {0})
        activations = rows * 8 * (sum(dims) + sum(dims[1:-1])) + rows * (max(dims[1:-1]) + 8)
        bound = (k + widest) * P * 8 + activations + k * 4096
        tracemalloc.start()
        try:
            local_train_stack(arch, start, shards, cfgs, np.empty((k, P)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


class TestEvaluate:
    def test_constant_class_perfect(self):
        arch = MlpArchitecture((4, 3, 2))
        schema = arch.schema()
        values = np.zeros(schema.total_length)
        lo, hi = schema.bounds("fc2")
        values[hi - 1] = 1.0  # bias pushes class 1
        params = ParameterVector(values, schema)
        ds = Dataset(np.random.default_rng(0).uniform(0, 1, (10, 4)),
                     np.ones(10, dtype=np.int64), 2)
        assert evaluate(arch, params, ds) == 1.0
        assert np.all(predict(arch, params, ds.features) == 1)

    def test_empty_rejected(self):
        arch = MlpArchitecture((4, 3, 2))
        with pytest.raises(ValueError):
            evaluate(arch, init_model(arch, 0), Dataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 2))
