import dataclasses

import numpy as np
import pytest

from fedsurrogate.attacks import (
    AttackConfig,
    _boost,
    cba_train,
    cla_compose,
    cla_train,
    csa_train,
    dba_train,
    neurotoxin_mask,
    neurotoxin_train,
)
from fedsurrogate.data import corner_patch_trigger, generate_synthetic, poison_partition
from fedsurrogate.model import MlpArchitecture, TrainConfig, init_model, local_train
from fedsurrogate.params import EPS_ZERO, ParameterVector, cosine_distance


ARCH = MlpArchitecture((64, 8, 4))
DS = generate_synthetic(4, 64, 25, 0.05, seed=0)
TRIGGER = corner_patch_trigger(64)
CFG = TrainConfig(epochs=1, learning_rate=0.05, batch_size=16, seed=3)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(poison_rate=0.0)
        with pytest.raises(ValueError):
            AttackConfig(boost=0.5)
        with pytest.raises(ValueError):
            AttackConfig(neurotoxin_ratio=1.0)


class TestNeurotoxinMask:
    def test_hand_example(self):
        mask = neurotoxin_mask(np.array([5.0, 1.0, 3.0, 2.0]), ratio=0.5)
        assert np.flatnonzero(mask).tolist() == [1, 3]

    def test_tiny_ratio_empty(self):
        mask = neurotoxin_mask(np.array([5.0, 1.0, 3.0, 2.0]), ratio=0.1)
        assert not mask.any()

    def test_none_reference_rejected(self):
        with pytest.raises(ValueError):
            neurotoxin_mask(None, 0.5)


class TestCbaDba:
    def test_no_effective_poison_equals_benign(self):
        # a poison rate below 1/n leaves every sample clean
        shard = DS.subset(range(10))
        attack = AttackConfig(poison_rate=0.05, malicious_epochs=1, boost=1.0)
        start = init_model(ARCH, 0)
        out = cba_train(ARCH, start, shard, TRIGGER, CFG, attack)
        benign = local_train(ARCH, start, shard, CFG)
        assert np.array_equal(out.values, benign.values)

    def test_boost_scales_delta(self):
        shard = DS.subset(range(20))
        start = init_model(ARCH, 0)
        a1 = cba_train(ARCH, start, shard, TRIGGER, CFG, AttackConfig(boost=1.0))
        a3 = cba_train(ARCH, start, shard, TRIGGER, CFG, AttackConfig(boost=3.0))
        d1 = a1.values - start.values
        d3 = a3.values - start.values
        assert np.allclose(d3, 3.0 * d1, atol=1e-12)

    def test_dba_differs_by_fragment(self):
        shard = DS.subset(range(20))
        start = init_model(ARCH, 0)
        frag_trigger = corner_patch_trigger(64, fragments=3)
        outs = [
            dba_train(ARCH, start, shard, frag_trigger, CFG, AttackConfig(), i)
            for i in range(3)
        ]
        assert not np.array_equal(outs[0].values, outs[1].values)
        assert not np.array_equal(outs[1].values, outs[2].values)


class TestNeurotoxin:
    def test_all_allowed_equals_cba(self):
        shard = DS.subset(range(20))
        start = init_model(ARCH, 0)
        attack = AttackConfig()
        a = neurotoxin_train(ARCH, start, shard, TRIGGER, CFG, attack, None)
        b = cba_train(ARCH, start, shard, TRIGGER, CFG, attack)
        assert np.array_equal(a.values, b.values)

    def test_off_mask_delta_zero(self):
        shard = DS.subset(range(20))
        start = init_model(ARCH, 0)
        rng = np.random.default_rng(0)
        prev = rng.standard_normal(start.values.size)
        attack = AttackConfig(neurotoxin_ratio=0.25)
        out = neurotoxin_train(ARCH, start, shard, TRIGGER, CFG, attack, prev)
        mask = neurotoxin_mask(prev, 0.25)
        delta = out.values - start.values
        assert float(np.linalg.norm(delta[~mask])) == 0.0
        assert float(np.linalg.norm(delta[mask])) > 0.0
        cba_delta = cba_train(ARCH, start, shard, TRIGGER, CFG, attack).values - start.values
        assert float(np.linalg.norm(cba_delta[~mask])) > 0.0


class TestCsa:
    def test_lambda_zero_equals_cba(self):
        shard = DS.subset(range(20))
        start = init_model(ARCH, 0)
        attack = AttackConfig(csa_lambda=0.0)
        a = csa_train(ARCH, start, shard, TRIGGER, CFG, attack)
        b = cba_train(ARCH, start, shard, TRIGGER, CFG, attack)
        assert np.array_equal(a.values, b.values)

    def test_penalty_pulls_towards_reference(self):
        shard = DS.subset(range(40))
        start = init_model(ARCH, 0)
        reference = local_train(ARCH, start, shard, CFG)
        plain = cba_train(ARCH, start, shard, TRIGGER, CFG, AttackConfig(csa_lambda=0.0, boost=1.0))
        pulled = csa_train(ARCH, start, shard, TRIGGER, CFG, AttackConfig(csa_lambda=1.0, boost=1.0))

        def mean_layer_cos(model):
            ds = [
                1.0 - cosine_distance(model.layer(n) - start.layer(n),
                                      reference.layer(n) - start.layer(n))
                for n in ARCH.schema().names
            ]
            return float(np.mean(ds))

        assert mean_layer_cos(pulled) > mean_layer_cos(plain)


def csa_train_reference(arch, global_model, shard, trigger, cfg, attack):
    """``csa_train`` with the penalty it used to build, which looked up
    every layer's bounds and took the reference norms at every step."""
    reference = local_train(arch, global_model, shard, cfg)
    poisoned = poison_partition(shard, attack.poison_rate, trigger,
                                fragment_index=None, seed=cfg.seed)
    schema = arch.schema()
    lam = attack.csa_lambda

    def penalty_grad(params):
        grad = np.zeros_like(params)
        for name in schema.names:
            lo, hi = schema.bounds(name)
            w = params[lo:hi]
            r = reference.values[lo:hi]
            wn = float(np.linalg.norm(w))
            rn = float(np.linalg.norm(r))
            if wn < EPS_ZERO or rn < EPS_ZERO:
                continue
            cos = float(np.dot(w, r)) / (wn * rn)
            grad[lo:hi] = lam * (cos * w / wn**2 - r / (wn * rn))
        return grad

    trained = local_train(arch, global_model, poisoned,
                          dataclasses.replace(cfg, epochs=attack.malicious_epochs),
                          extra_grad=penalty_grad)
    return _boost(global_model, trained, attack.boost)


class TestCsaOracle:
    @pytest.mark.parametrize("seed", range(14))
    def test_equals_per_step_penalty(self, seed):
        """Seeded shards of 1-60 rows. Seeds 0 mod 4 start from a model
        whose last layer is zero with a learning rate of 1e-20, so that
        layer's reference and working norms stay degenerate."""
        rng = np.random.default_rng(seed)
        shard = DS.subset(rng.choice(len(DS.labels), size=int(rng.integers(1, 61)), replace=False))
        start = init_model(ARCH, seed)
        lr = 0.05
        if seed % 4 == 0:
            values = start.values.copy()
            lo, hi = start.schema.bounds(start.schema.names[-1])
            values[lo:hi] = 0.0
            start, lr = ParameterVector(values, start.schema), 1e-20
        cfg = TrainConfig(epochs=int(rng.integers(1, 3)), learning_rate=lr,
                          batch_size=int(rng.integers(4, 33)), seed=seed)
        attack = AttackConfig(malicious_epochs=int(rng.integers(1, 4)),
                              csa_lambda=float(rng.choice([0.0, 0.5, 1.0, 4.0])),
                              boost=float(rng.choice([1.0, 5.0])))
        got = csa_train(ARCH, start, shard, TRIGGER, cfg, attack)
        want = csa_train_reference(ARCH, start, shard, TRIGGER, cfg, attack)
        assert np.array_equal(got.values, want.values)


class TestCla:
    def test_compose_full_k_is_backdoored(self):
        start = init_model(ARCH, 0)
        shard = DS.subset(range(20))
        benign = local_train(ARCH, start, shard, CFG)
        backdoored = cba_train(ARCH, start, shard, TRIGGER, CFG, AttackConfig(boost=1.0))
        out = cla_compose(benign, backdoored, top_k=ARCH.num_layers)
        assert np.array_equal(out.values, backdoored.values)

    def test_compose_is_layerwise_splice(self):
        start = init_model(ARCH, 0)
        shard = DS.subset(range(20))
        benign = local_train(ARCH, start, shard, CFG)
        backdoored = cba_train(ARCH, start, shard, TRIGGER, CFG, AttackConfig(boost=1.0))
        out = cla_compose(benign, backdoored, top_k=1)
        for name in ARCH.schema().names:
            layer = out.layer(name)
            assert (np.array_equal(layer, benign.layer(name))
                    or np.array_equal(layer, backdoored.layer(name)))
        spliced = sum(
            1 for n in ARCH.schema().names
            if np.array_equal(out.layer(n), backdoored.layer(n))
            and not np.array_equal(out.layer(n), benign.layer(n))
        )
        assert spliced == 1

    def test_train_runs(self):
        start = init_model(ARCH, 0)
        shard = DS.subset(range(20))
        out = cla_train(ARCH, start, shard, TRIGGER, CFG, AttackConfig(cla_top_k=2))
        assert out.values.shape == start.values.shape
