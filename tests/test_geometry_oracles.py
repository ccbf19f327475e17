"""The vectorised defense geometry against the scalar loops it replaced.

The oracles below are the per-pair loops that ``layer_divergence``,
``pairwise_distance_matrix`` and ``select_donor`` used to run. Inputs
include zero-norm rows, identical rows and n = 2, and every comparison
runs with numpy floating-point warnings raised as errors.
"""
import numpy as np
import pytest

from fedsurrogate.defense import (
    AggregationWeights,
    FilterConfig,
    LcaConfig,
    ScoreMemory,
    fedsurrogate_round,
    layer_divergence,
    select_donor,
)
from fedsurrogate.params import (
    ClientUpdate,
    LayerSchema,
    ParameterVector,
    cosine_distance,
    cosine_distance_rows,
    pairwise_distance_matrix,
)

TOL = 1e-12
SCHEMA = LayerSchema.from_lengths([("fc1", 7), ("fc2", 3), ("fc3", 12), ("out", 1)])


def divergence_oracle(updates):
    schema = updates[0].delta.schema
    n = len(updates)
    out = {}
    for name in schema.names:
        slices = [u.delta.layer(name) for u in updates]
        total = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                total += cosine_distance(slices[i], slices[j])
        out[name] = total * 2.0 / (n * (n - 1))
    return out


def distance_matrix_oracle(vectors, metric):
    n = len(vectors)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if metric == "cosine":
                d = cosine_distance(vectors[i], vectors[j])
            else:
                d = float(np.linalg.norm(vectors[i] - vectors[j]))
            D[i, j] = D[j, i] = d
    return D


def donor_oracle(flagged, trusted, features, metric):
    best_id, best_d = -1, np.inf
    for cid in sorted(trusted):
        if metric == "cosine":
            d = cosine_distance(features[flagged], features[cid])
        else:
            d = float(np.linalg.norm(features[flagged] - features[cid]))
        if d < best_d:
            best_id, best_d = cid, d
    return best_id


def random_rows(seed, width, scaled=True):
    """2-14 random rows; some are zero, some repeat an earlier row and,
    with ``scaled``, some repeat it scaled (cosine 0, euclidean not)."""
    rng = np.random.default_rng(seed)
    n = 2 if seed % 5 == 0 else int(rng.integers(3, 15))
    X = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-3, 3)
    for i in range(1, n):
        kind = rng.integers(0, 5)
        if kind == 0:
            X[i] = 0.0
        elif kind == 1:
            X[i] = X[rng.integers(0, i)]
        elif kind == 2 and scaled:
            X[i] = 3.0 * X[rng.integers(0, i)]
    return X


def updates_of(X):
    out = []
    for i, row in enumerate(X):
        v = ParameterVector(row, SCHEMA)
        out.append(ClientUpdate(i, v, v, 1))
    return out


SEEDS = range(40)


@pytest.mark.parametrize("seed", SEEDS)
def test_layer_divergence_matches_oracle(seed):
    updates = updates_of(random_rows(seed, SCHEMA.total_length))
    with np.errstate(all="raise"):
        got = layer_divergence(updates)
        want = divergence_oracle(updates)
    assert list(got) == list(want)
    for name in want:
        assert abs(got[name] - want[name]) <= TOL


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("seed", SEEDS)
def test_distance_matrix_matches_oracle(seed, metric):
    X = random_rows(seed, 1 + seed % 50)
    with np.errstate(all="raise"):
        from_list = pairwise_distance_matrix(list(X), metric)
        from_array = pairwise_distance_matrix(X, metric)
        want = distance_matrix_oracle(list(X), metric)
    assert np.array_equal(from_list, from_array)
    assert np.array_equal(from_array, from_array.T)
    assert np.all(np.diag(from_array) == 0.0)
    assert np.max(np.abs(from_array - want)) <= TOL


def test_euclidean_blocks_cover_every_pair():
    # more rows than one difference block holds
    X = np.random.default_rng(0).standard_normal((75, 5))
    got = pairwise_distance_matrix(X, "euclidean")
    assert np.max(np.abs(got - distance_matrix_oracle(list(X), "euclidean"))) <= TOL


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("seed", SEEDS)
def test_donors_match_oracle(seed, metric):
    # No scaled copies: their cosine distances tie in exact arithmetic and
    # either code breaks such a tie by rounding. Identical and zero rows
    # tie exactly in both, so they must go to the lower id.
    X = random_rows(seed, 6, scaled=False)
    n = len(X)
    rng = np.random.default_rng(1000 + seed)
    index_of = {c: c for c in range(n)}
    with np.errstate(all="raise"):
        D = pairwise_distance_matrix(X, metric)
        for flagged in range(n):
            others = [c for c in range(n) if c != flagged]
            trusted = frozenset(c for c in others if rng.uniform() < 0.7) or frozenset(others)
            assert (select_donor(flagged, trusted, D, index_of)
                    == donor_oracle(flagged, trusted, X, metric))


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_identical_and_zero_candidates_go_to_lower_id(metric):
    X = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0], [0.0, 0.0], [3.0, -1.0]])
    D = pairwise_distance_matrix(X, metric)
    index_of = {c: c for c in range(5)}
    assert select_donor(0, frozenset({2, 4}), D, index_of) == 2
    assert select_donor(0, frozenset({1, 3}), D, index_of) == 1
    assert select_donor(1, frozenset({2, 3, 4}), D, index_of) == (2 if metric == "cosine" else 3)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("seed", range(6))
def test_round_donors_match_oracle(seed, metric):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(SCHEMA.total_length)
    rows = [base + 0.05 * rng.standard_normal(SCHEMA.total_length) for _ in range(12)]
    rows += [4.0 * base + rng.standard_normal(SCHEMA.total_length) for _ in range(4)]
    updates = updates_of(np.array(rows))
    g = ParameterVector(np.zeros(SCHEMA.total_length), SCHEMA)
    with np.errstate(all="raise"):
        _, outcome, _ = fedsurrogate_round(
            updates, g, ScoreMemory(), LcaConfig(top_k=2),
            FilterConfig(rescue_layers=("fc2", "fc3")), AggregationWeights(),
            donor_metric=metric,
        )
    assert outcome.donors and set(outcome.donors) == set(outcome.confirmed_malicious)
    features = [u.delta.restricted(outcome.critical_layers) for u in updates]
    for flagged, donor in outcome.donors.items():
        assert donor == donor_oracle(flagged, outcome.trusted, features, metric)


@pytest.mark.parametrize("seed", SEEDS)
def test_cosine_rows_equal_full_matrix_rows(seed):
    X = random_rows(seed, 1 + seed % 50)
    rng = np.random.default_rng(2000 + seed)
    rows = sorted(rng.choice(len(X), size=int(rng.integers(1, len(X) + 1)), replace=False))
    with np.errstate(all="raise"):
        got = cosine_distance_rows(X, rows)
        want = pairwise_distance_matrix(X, "cosine")[rows]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(8))
def test_round_donors_equal_full_matrix_donors_on_ties(seed):
    """Benign rows come in groups of identical copies and some are zero,
    so most flagged clients have tied nearest donors; the donors from
    the flagged rows alone must equal those from the full cosine matrix."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(SCHEMA.total_length)
    groups = [base + 0.05 * rng.standard_normal(SCHEMA.total_length) for _ in range(4)]
    rows = [groups[i % 4] for i in range(12)] + [np.zeros(SCHEMA.total_length)] * 2
    rows += [-3.0 * base + rng.standard_normal(SCHEMA.total_length) for _ in range(4)]
    order = rng.permutation(len(rows))
    updates = updates_of(np.array(rows)[order])
    g = ParameterVector(np.zeros(SCHEMA.total_length), SCHEMA)
    with np.errstate(all="raise"):
        _, outcome, _ = fedsurrogate_round(
            updates, g, ScoreMemory(), LcaConfig(top_k=2),
            FilterConfig(rescue_layers=("fc2", "fc3")), AggregationWeights(),
        )
    assert outcome.donors and set(outcome.donors) == set(outcome.confirmed_malicious)
    features = np.array([u.delta.restricted(outcome.critical_layers) for u in updates])
    D = pairwise_distance_matrix(features, "cosine")
    index_of = {c: c for c in range(len(updates))}
    want = {c: select_donor(c, outcome.trusted, D, index_of) for c in outcome.donors}
    assert outcome.donors == want
    pool = sorted(outcome.trusted)
    assert any(np.sum(D[c, pool] == D[c, pool].min()) > 1 for c in outcome.donors)
