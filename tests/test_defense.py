import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsurrogate.defense import (
    DONOR_METRICS,
    VARIANTS,
    AggregationWeights,
    FilterConfig,
    LcaConfig,
    ScoreMemory,
    aggregate,
    alignment_scores,
    build_surrogate,
    coarse_cluster,
    fedavg_round,
    fedsurrogate_round,
    layer_divergence,
    rescue_suspects,
    screen_trusted,
    select_critical_layers,
    select_donor,
    update_memory,
)
from fedsurrogate.params import (
    ClientUpdate,
    LayerSchema,
    ParameterVector,
    Role,
    compute_update,
    pairwise_distance_matrix,
)


def one_layer_updates(deltas, name="a"):
    schema = LayerSchema.from_lengths([(name, len(deltas[0]))])
    out = []
    for i, d in enumerate(deltas):
        v = ParameterVector(np.asarray(d, dtype=np.float64), schema)
        out.append(ClientUpdate(i, v, v, 1))
    return out


class TestLayerDivergence:
    def test_hand_example(self):
        ups = one_layer_updates([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        d = layer_divergence(ups)
        assert d["a"] == pytest.approx((1.0 + 2 * (1 - 1 / np.sqrt(2))) / 3, abs=1e-5)

    def test_identical_zero(self):
        ups = one_layer_updates([[1.0, 2.0]] * 4)
        assert layer_divergence(ups)["a"] == pytest.approx(0.0, abs=1e-12)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            layer_divergence(one_layer_updates([[1.0, 0.0]]))

    def test_scale_invariance(self):
        deltas = [[1.0, 0.2], [0.3, 1.0], [0.9, 0.8], [0.1, 0.4]]
        d1 = layer_divergence(one_layer_updates(deltas))
        d2 = layer_divergence(one_layer_updates([[7.0 * x for x in row] for row in deltas]))
        assert d1["a"] == pytest.approx(d2["a"], abs=1e-12)


class TestSelectCriticalLayers:
    def test_top_k(self):
        layers, degen = select_critical_layers(
            {"a": 0.1, "b": 0.5, "c": 0.2}, LcaConfig(top_k=1)
        )
        assert layers == ("b",) and not degen

    def test_schema_order_on_ties(self):
        layers, _ = select_critical_layers(
            {"a": 0.3, "b": 0.3, "c": 0.1}, LcaConfig(top_k=1)
        )
        assert layers == ("a",)

    def test_degenerate_all_zero(self):
        layers, degen = select_critical_layers({"a": 0.0, "b": 0.0}, LcaConfig(top_k=1))
        assert degen and layers == ("a",)

    def test_top_k_capped(self):
        layers, _ = select_critical_layers({"a": 0.2, "b": 0.1}, LcaConfig(top_k=5))
        assert layers == ("a", "b")

    def test_mad_threshold_mode(self):
        layers, _ = select_critical_layers(
            {"a": 0.1, "b": 0.1, "c": 0.1, "d": 0.9},
            LcaConfig(mode="mad_threshold", sigma=2.0),
        )
        assert layers == ("d",)

    def test_scale_invariance_of_selection(self):
        div = {"a": 0.11, "b": 0.35, "c": 0.02}
        l1, _ = select_critical_layers(div, LcaConfig(top_k=2))
        l2, _ = select_critical_layers({k: 13.0 * v for k, v in div.items()}, LcaConfig(top_k=2))
        assert l1 == l2


class TestCoarseCluster:
    def test_planted_majority(self):
        rng = np.random.default_rng(0)
        benign = [np.array([1.0, 1.0]) + 0.02 * rng.standard_normal(2) for _ in range(10)]
        malicious = [np.array([-1.0, -1.0]) + 0.02 * rng.standard_normal(2) for _ in range(4)]
        trusted, suspects, degen = coarse_cluster(range(14), np.array(benign + malicious))
        assert trusted == frozenset(range(10))
        assert suspects == frozenset(range(10, 14))
        assert not degen

    def test_all_identical_degrades(self):
        trusted, suspects, degen = coarse_cluster(range(6), np.ones((6, 2)))
        assert trusted == frozenset(range(6)) and suspects == frozenset()


class TestAlignmentScores:
    def test_three_client_toy(self):
        schema = LayerSchema.from_lengths([("r", 2)])
        g = ParameterVector(np.zeros(2), schema)
        models = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
        counts = [1, 1, 2]
        ups = [
            compute_update(ParameterVector(m, schema), g, client_id=i, sample_count=c)
            for i, (m, c) in enumerate(zip(models, counts))
        ]
        got = alignment_scores(ups, g, ["r"])
        # independent evaluation of the population-referenced cosine
        omega = np.array(counts) / 4.0
        W = np.stack(models)
        w_star = omega @ W
        g_star = omega @ (W - 0.0)
        for i, m in enumerate(models):
            diff = m - w_star
            expect = float(np.dot(diff, g_star)
                           / (np.linalg.norm(diff) * np.linalg.norm(g_star)))
            assert got[i] == pytest.approx(expect, abs=1e-12)

    def test_range(self):
        schema = LayerSchema.from_lengths([("r", 3)])
        g = ParameterVector(np.zeros(3), schema)
        rng = np.random.default_rng(1)
        ups = [
            compute_update(ParameterVector(rng.standard_normal(3), schema), g,
                           client_id=i, sample_count=int(rng.integers(1, 5)))
            for i in range(6)
        ]
        for s in alignment_scores(ups, g, ["r"]).values():
            assert -1.0 - 1e-9 <= s <= 1.0 + 1e-9


class TestMemory:
    def test_running_mean_identity(self):
        rng = np.random.default_rng(0)
        mem = ScoreMemory()
        history = {0: [], 1: [], 2: []}
        for _ in range(50):
            raw = {c: float(rng.uniform(-1, 1)) for c in history}
            values = np.array(list(raw.values()))
            lo, hi = values.min(), values.max()
            for c, s in raw.items():
                history[c].append(0.5 if hi - lo < 1e-12 else (s - lo) / (hi - lo))
            mem = update_memory(mem, raw)
        for c, seq in history.items():
            assert mem.score(c) == pytest.approx(float(np.mean(seq)), abs=1e-12)

    def test_orientation_high_is_extreme(self):
        mem = update_memory(ScoreMemory(), {0: 0.9, 1: 0.1, 2: 0.2})
        assert mem.score(0) == 1.0 and mem.score(1) == 0.0

    def test_all_equal_neutral(self):
        mem = update_memory(ScoreMemory(), {0: 0.4, 1: 0.4})
        assert mem.score(0) == 0.5 == mem.score(1)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            update_memory(ScoreMemory(), {0: 0.4})


def mem_with(scores):
    return ScoreMemory({c: s for c, s in scores.items()},
                       {c: 1 for c in scores})


class TestScreenTrusted:
    def test_hand_example(self):
        mem = mem_with({0: 0.10, 1: 0.11, 2: 0.12, 3: 0.13, 4: 0.90})
        out = screen_trusted(mem, frozenset(range(5)), FilterConfig())
        assert out == frozenset({4})

    def test_all_equal_nothing(self):
        mem = mem_with({i: 0.3 for i in range(5)})
        assert screen_trusted(mem, frozenset(range(5)), FilterConfig()) == frozenset()

    def test_small_set_skipped(self):
        mem = mem_with({0: 0.1, 1: 0.1, 2: 0.99})
        assert screen_trusted(mem, frozenset(range(3)), FilterConfig()) == frozenset()

    @given(st.lists(st.floats(0, 1), min_size=4, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, scores):
        mem = mem_with(dict(enumerate(scores)))
        cfg = FilterConfig()
        got = screen_trusted(mem, frozenset(range(len(scores))), cfg)
        arr = np.array(scores)
        q1, q3 = np.percentile(arr, [25.0, 75.0])
        fence = q3 + cfg.iqr_multiplier * (q3 - q1)
        expect = frozenset(i for i, s in enumerate(scores) if s > fence)
        assert got == expect


class TestRescueSuspects:
    def test_hand_example(self):
        mem = mem_with({0: 0.2, 1: 0.8, 2: 0.9})
        rescued, confirmed = rescue_suspects(mem, frozenset({0, 1, 2}), FilterConfig(zeta=0.4))
        assert rescued == frozenset({0}) and confirmed == frozenset({1, 2})

    def test_empty(self):
        assert rescue_suspects(ScoreMemory(), frozenset(), FilterConfig()) == (frozenset(), frozenset())

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=9),
           st.floats(0.05, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, scores, zeta):
        mem = mem_with(dict(enumerate(scores)))
        rescued, confirmed = rescue_suspects(
            mem, frozenset(range(len(scores))), FilterConfig(zeta=zeta)
        )
        cutoff = min(zeta, float(np.median(scores)))
        expect_rescued = frozenset(i for i, s in enumerate(scores) if s <= cutoff)
        assert rescued == expect_rescued
        assert confirmed == frozenset(range(len(scores))) - expect_rescued


class TestSelectDonor:
    def test_tie_low_id(self):
        D = np.array([[0.0, 0.3, 0.3], [0.3, 0.0, 0.1], [0.3, 0.1, 0.0]])
        idx = {0: 0, 1: 1, 2: 2}
        assert select_donor(0, frozenset({1, 2}), D[0], idx) == 1

    def test_metric_disagreement(self):
        # trusted client 2 points the same way as the flagged client but is
        # scaled x10: cosine picks it, euclidean picks the nearby client 1
        feats = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([10.0, 0.0])]
        cos = pairwise_distance_matrix(feats, "cosine")
        euc = pairwise_distance_matrix(feats, "euclidean")
        idx = {0: 0, 1: 1, 2: 2}
        assert select_donor(0, frozenset({1, 2}), cos[0], idx) == 2
        assert select_donor(0, frozenset({1, 2}), euc[0], idx) == 1

    def test_no_trusted(self):
        with pytest.raises(ValueError):
            select_donor(0, frozenset(), np.zeros(2), {0: 0, 1: 1})


class TestSurrogateAndAggregation:
    def setup_method(self):
        self.schema = LayerSchema.from_lengths([("a", 1), ("b", 1)])

    def vec(self, values):
        return ParameterVector(np.asarray(values, dtype=np.float64), self.schema)

    def test_surrogate_slices(self):
        f = self.vec([1.0, 2.0])
        d = self.vec([9.0, 8.0])
        out = build_surrogate(f, d, ["a"])
        assert out.values.tolist() == [9.0, 2.0]
        assert build_surrogate(f, d, ["a", "b"]).values.tolist() == [9.0, 8.0]
        assert build_surrogate(f, d, []).values.tolist() == [1.0, 2.0]

    def test_aggregate_hand_example(self):
        models = {0: self.vec([1.0, 1.0]), 1: self.vec([3.0, 3.0]), 2: self.vec([10.0, 10.0])}
        roles = {0: "trusted", 1: "trusted", 2: "surrogate"}
        out = aggregate(models, roles, AggregationWeights(surrogate=0.3))
        assert np.allclose(out.values, [3.04348, 3.04348], atol=1e-5)
        assert out.values[0] == pytest.approx((1 + 3 + 3.0) / 2.3, abs=1e-9)

    def test_all_trusted_plain_mean(self):
        models = {0: self.vec([1.0, 0.0]), 1: self.vec([3.0, 2.0])}
        roles = {0: "trusted", 1: "trusted"}
        out = aggregate(models, roles, AggregationWeights())
        assert out.values.tolist() == [2.0, 1.0]

    def fedavg(self, models, counts):
        """``fedavg_round``'s new global values; checks that its outcome
        trusts every client and that the memory passes through."""
        ups = [ClientUpdate(cid, self.vec(m), self.vec(m), n)
               for cid, (m, n) in enumerate(zip(models, counts))]
        mem = ScoreMemory({0: 0.25}, {0: 1})
        out, outcome, mem_out = fedavg_round(ups, self.vec([7.0, 7.0]), mem)
        assert mem_out is mem
        assert outcome.coarse_trusted == frozenset(range(len(ups)))
        assert outcome.critical_layers == () and outcome.donors == {}
        assert not (outcome.demoted or outcome.rescued or outcome.confirmed_malicious)
        assert not outcome.degenerate
        return out.values.tolist()

    def test_fedavg_equal_counts(self):
        assert self.fedavg([[1.0, 0.0], [3.0, 2.0]], [5, 5]) == [2.0, 1.0]

    def test_fedavg_weights_by_sample_count(self):
        assert self.fedavg([[0.0, 4.0], [4.0, 0.0]], [1, 3]) == [3.0, 1.0]

    def test_fedavg_single_client(self):
        assert self.fedavg([[4.0, 2.0]], [3]) == [4.0, 2.0]

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            AggregationWeights(trusted=0.5, rescued=0.7, surrogate=0.3)


def planted_round(n_benign=10, n_malicious=4, seed=0):
    rng = np.random.default_rng(seed)
    schema = LayerSchema.from_lengths([("fc1", 3), ("fc2", 3), ("fc3", 3)])
    g = ParameterVector(np.zeros(9), schema)
    base = rng.standard_normal(9)
    ups = []
    for i in range(n_benign + n_malicious):
        # attackers push a scaled-up coordinated update
        scale = 1.0 if i < n_benign else 5.0
        delta = scale * base + 0.03 * rng.standard_normal(9)
        model = ParameterVector(delta, schema)
        ups.append(ClientUpdate(i, model, model, 1))
    return ups, g


class TestFullRound:
    def test_planted_round_flags_malicious(self):
        ups, g = planted_round()
        _, outcome, _ = fedsurrogate_round(
            ups, g, ScoreMemory(), LcaConfig(), FilterConfig(rescue_layers=("fc2", "fc3")),
            AggregationWeights(), donor_metric="cosine", variant="full",
        )
        malicious = frozenset(range(10, 14))
        assert malicious <= outcome.confirmed_malicious
        assert not (outcome.confirmed_malicious & frozenset(range(10)))
        assert set(outcome.donors) == set(outcome.confirmed_malicious)
        for flagged, donor in outcome.donors.items():
            assert donor in outcome.coarse_trusted | outcome.rescued

    def test_default_filter_config_runs_a_round(self):
        ups, g = planted_round()
        _, outcome, _ = fedsurrogate_round(
            ups, g, ScoreMemory(), LcaConfig(), FilterConfig(), AggregationWeights(),
            donor_metric="cosine", variant="full")
        assert frozenset(range(10, 14)) <= outcome.confirmed_malicious
        assert FilterConfig().rescue_layers == ("fc2", "fc3")
        with pytest.raises(ValueError, match="rescue_layers"):
            FilterConfig(rescue_layers=())

    def test_variant_exclude_drops_flagged(self):
        ups, g = planted_round()
        _, outcome, _ = fedsurrogate_round(
            ups, g, ScoreMemory(), LcaConfig(), FilterConfig(rescue_layers=("fc2", "fc3")),
            AggregationWeights(), donor_metric="cosine", variant="exclude",
        )
        assert outcome.donors == {}

    def test_variant_stage1_skips_memory(self):
        ups, g = planted_round()
        mem_in = ScoreMemory()
        _, outcome, mem_out = fedsurrogate_round(
            ups, g, mem_in, LcaConfig(), FilterConfig(rescue_layers=("fc2", "fc3")),
            AggregationWeights(), donor_metric="cosine", variant="stage1",
        )
        assert mem_out is mem_in
        assert outcome.rescued == frozenset()

    def test_unknown_variant(self):
        ups, g = planted_round()
        with pytest.raises(ValueError):
            fedsurrogate_round(
                ups, g, ScoreMemory(), LcaConfig(),
                FilterConfig(rescue_layers=("fc2",)), AggregationWeights(),
                donor_metric="cosine", variant="bogus",
            )

    def test_unknown_donor_metric(self):
        ups, g = planted_round()
        with pytest.raises(ValueError):
            fedsurrogate_round(
                ups, g, ScoreMemory(), LcaConfig(),
                FilterConfig(rescue_layers=("fc2",)), AggregationWeights(),
                donor_metric="manhattan", variant="full",
            )

    def test_benign_round_close_to_fedavg(self):
        rng = np.random.default_rng(3)
        schema = LayerSchema.from_lengths([("fc1", 3), ("fc2", 3), ("fc3", 3)])
        g = ParameterVector(np.zeros(9), schema)
        base = rng.standard_normal(9)
        ups = []
        for i in range(12):
            model = ParameterVector(base + 0.01 * rng.standard_normal(9), schema)
            ups.append(ClientUpdate(i, model, model, 1))
        new_g, outcome, _ = fedsurrogate_round(
            ups, g, ScoreMemory(), LcaConfig(), FilterConfig(rescue_layers=("fc2", "fc3")),
            AggregationWeights(), donor_metric="cosine", variant="full",
        )
        if not outcome.confirmed_malicious and not outcome.demoted:
            expect, _, _ = fedavg_round(ups, g, ScoreMemory())
            assert np.allclose(new_g.values, expect.values, atol=1e-9)


def roled_rounds():
    """Two planted rounds whose attackers (clients 10-13) carry their true
    role, with unequal sample counts so FedAvg's weights matter."""
    rounds = []
    for seed in (0, 1):
        ups, g = planted_round(seed=seed)
        rounds.append(([dataclasses.replace(
            u, sample_count=1 + u.client_id % 4,
            true_role=Role.MALICIOUS if u.client_id >= 10 else Role.BENIGN) for u in ups], g))
    return rounds


ROUND_STEPS = {"fedavg": fedavg_round} | {
    f"{variant}-{metric}": functools.partial(
        fedsurrogate_round, lca_cfg=LcaConfig(top_k=2), filter_cfg=FilterConfig(),
        weights=AggregationWeights(), donor_metric=metric, variant=variant)
    for variant in VARIANTS for metric in DONOR_METRICS
}


@pytest.mark.parametrize("name", list(ROUND_STEPS))
def test_no_round_step_reads_true_role(name):
    """Flipping every client's ground truth leaves a step's model bits,
    outcomes and score memory, over two rounds, as they were."""
    def run(flip):
        mem, seen = ScoreMemory(), []
        for ups, g in roled_rounds():
            if flip:
                ups = [dataclasses.replace(u, true_role=Role.BENIGN if u.true_role is Role.MALICIOUS
                                           else Role.MALICIOUS) for u in ups]
            new_g, outcome, mem = ROUND_STEPS[name](ups, g, mem)
            seen.append((new_g.values.tobytes(), outcome))
        return seen, mem

    assert run(flip=False) == run(flip=True)
