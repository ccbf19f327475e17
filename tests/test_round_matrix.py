"""The round's deltas as one read-only (n, P) matrix.

``harness.run_experiment`` writes every client's delta into a
64-byte-aligned row of one buffer per round (``params.aligned_rows`` and
``compute_update``'s ``out``), and the defense reads those rows in place
(``defense.round_matrix``) instead of stacking copies. These tests check
the harness builds it so, that the defense gives the same bits from the
matrix as from loose copies, and that a round over the matrix holds no
(n, P) copy of it.
"""
import tracemalloc

import numpy as np
import pytest

from fedsurrogate import defense, harness, params
from fedsurrogate.defense import (
    AggregationWeights,
    FilterConfig,
    LcaConfig,
    ScoreMemory,
    fedsurrogate_round,
    round_matrix,
)
from fedsurrogate.params import LayerSchema, ParameterVector, aligned_rows, compute_update

SCHEMA = LayerSchema.from_lengths([("fc1", 24), ("fc2", 9), ("fc3", 4)])


def _capture_rounds(monkeypatch, cfg):
    """Run ``cfg``; return (updates, global model) of every server step."""
    seen = []
    real = harness.fedsurrogate_round

    def step(updates, global_model, *args, **kwargs):
        seen.append((updates, global_model))
        return real(updates, global_model, *args, **kwargs)

    monkeypatch.setattr(harness, "fedsurrogate_round", step)
    harness.run_experiment(cfg)
    return seen


def test_harness_deltas_are_read_only_views_of_one_read_only_matrix(monkeypatch):
    cfg = harness.ExperimentConfig(
        n_clients=6, rounds=2, warmup_epochs=1, seed=4,
        dataset=harness.DatasetSpec(per_class=40, test_per_class=10))
    rounds = _capture_rounds(monkeypatch, cfg)
    assert len(rounds) == 2
    buffers = []
    for updates, global_model in rounds:
        B = updates[0].delta.values.base
        assert isinstance(B, np.ndarray) and not B.flags.writeable
        M = round_matrix(updates)
        assert M.shape == (6, updates[0].delta.schema.total_length) and M.base is B
        assert not M.flags.writeable
        for i, u in enumerate(updates):
            assert u.delta.values.base is B and u.delta.values.ctypes.data % 64 == 0
            assert M[i].ctypes.data == u.delta.values.ctypes.data
            assert not u.delta.values.flags.writeable
            assert np.array_equal(u.delta.values, u.model.values - global_model.values)
            with pytest.raises(ValueError):
                u.delta.values.flags.writeable = True
        buffers.append(B)
    assert buffers[0] is not buffers[1]


def test_round_matrix_stacks_whatever_is_not_its_rows_in_order():
    rng = np.random.default_rng(0)
    g = ParameterVector(np.zeros(SCHEMA.total_length), SCHEMA)
    models = [ParameterVector(rng.standard_normal(SCHEMA.total_length), SCHEMA) for _ in range(4)]
    for M in (aligned_rows(4, SCHEMA.total_length), np.empty((4, SCHEMA.total_length))):
        B = M if M.base is None else M.base
        updates = [compute_update(m, g, client_id=i, out=M[i]) for i, m in enumerate(models)]
        # still writeable: not yet the round's
        assert not np.shares_memory(round_matrix(updates), M)
        B.flags.writeable = False
        got = round_matrix(updates)
        assert got.base is B and np.shares_memory(got, M) and np.array_equal(got, M)
        assert all(got[i].ctypes.data == M[i].ctypes.data for i in range(4))
        loose = [compute_update(m, g, client_id=i) for i, m in enumerate(models)]
        for other in (loose, updates[::-1], updates[:3], updates[1:], [updates[0], loose[1]]):
            got = round_matrix(other)
            assert not np.shares_memory(got, M)
            assert all(row.ctypes.data % 64 == 0 for row in got)
            assert np.array_equal(got, np.stack([u.delta.values for u in other]))


def _round(seed):
    """A round with a benign majority and a minority of attackers that
    share a direction and are boosted, as (global model, models, sample
    counts)."""
    rng = np.random.default_rng(seed)
    P = SCHEMA.total_length
    n = int(rng.integers(12, 30))
    n_bad = int(rng.integers(2, n // 3))
    g = ParameterVector(rng.standard_normal(P), SCHEMA)
    honest = rng.standard_normal(P)
    evil = rng.standard_normal(P)
    deltas = [0.1 * honest + 0.03 * rng.standard_normal(P) for _ in range(n - n_bad)]
    deltas += [0.4 * evil + 0.03 * rng.standard_normal(P) for _ in range(n_bad)]
    order = rng.permutation(n)
    models = [ParameterVector(g.values + deltas[k], SCHEMA) for k in order]
    counts = rng.integers(5, 60, n).tolist()
    return g, models, counts


def _as_matrix(g, models, counts):
    M = aligned_rows(len(models), SCHEMA.total_length)
    updates = [compute_update(m, g, client_id=i, sample_count=c, out=M[i])
               for i, (m, c) in enumerate(zip(models, counts))]
    M.base.flags.writeable = False
    return updates, M


def _loose(g, models, counts):
    return [compute_update(m, g, client_id=i, sample_count=c)
            for i, (m, c) in enumerate(zip(models, counts))]


OUTCOME_SETS = ("critical_layers", "coarse_trusted", "demoted", "rescued",
                "confirmed_malicious", "donors", "degenerate")


@pytest.mark.parametrize("variant", defense.VARIANTS)
@pytest.mark.parametrize("top_k", [1, 2, 5])
@pytest.mark.parametrize("seed", range(6))
def test_round_is_the_same_from_the_matrix_and_from_loose_copies(seed, top_k, variant,
                                                                 monkeypatch):
    g, models, counts = _round(seed)
    bounds = []   # Stage 1's distance bounds (L, U) of each step, in order
    real = defense.euclidean_bounds
    monkeypatch.setattr(defense, "euclidean_bounds",
                        lambda X: bounds.append(real(X)) or bounds[-1])
    lca = LcaConfig(top_k=top_k)
    filt = FilterConfig(rescue_layers=("fc2", "fc3"))
    results = []
    for updates in (_as_matrix(g, models, counts)[0], _loose(g, models, counts)):
        mem, out = ScoreMemory(), []
        # two rounds, so the second screens and rescues on carried memory
        for _ in range(2):
            new_global, outcome, mem = fedsurrogate_round(
                updates, g, mem, lca, filt, AggregationWeights(), "cosine", variant)
            out.append((new_global, outcome))
        results.append((out, mem))
    (matrix_rounds, matrix_mem), (loose_rounds, loose_mem) = results
    assert len(bounds) == 4
    for (a_L, a_U), (b_L, b_U) in zip(bounds[:2], bounds[2:]):
        assert np.array_equal(a_L, b_L) and np.array_equal(a_U, b_U)
    for (a_global, a), (b_global, b) in zip(matrix_rounds, loose_rounds):
        assert np.array_equal(a_global.values, b_global.values)
        for name in OUTCOME_SETS:
            assert getattr(a, name) == getattr(b, name), name
        assert len(a.critical_layers) == min(top_k, 3)
    assert matrix_mem == loose_mem
    if variant in ("full", "no_rescue"):
        assert matrix_rounds[0][1].donors   # Stage 3 ran: surrogates were built


def test_the_default_round_reads_the_matrix_in_place(monkeypatch):
    g, models, counts = _round(0)
    updates, M = _as_matrix(g, models, counts)
    seen = []
    real = defense.euclidean_bounds
    monkeypatch.setattr(defense, "euclidean_bounds", lambda X: seen.append(X) or real(X))
    fedsurrogate_round(updates, g, ScoreMemory(), LcaConfig(top_k=5),
                       FilterConfig(rescue_layers=("fc3",)), AggregationWeights(), "cosine", "full")
    assert seen and seen[0].base is M.base and seen[0].shape == M.shape
    assert seen[0].ctypes.data == M.ctypes.data and seen[0].strides == M.strides
    fedsurrogate_round(updates, g, ScoreMemory(), LcaConfig(top_k=2),
                       FilterConfig(rescue_layers=("fc3",)), AggregationWeights(), "cosine", "full")
    assert not np.shares_memory(seen[1], M) and seen[1].shape == (len(models), 33)


def test_a_default_round_at_n64_holds_no_copy_of_the_round(monkeypatch):
    """One server step of the default configuration at n = 64, over the
    harness's round matrix, allocates less than half the matrix's bytes
    above its entry, beyond one scratch block of EUCLIDEAN_BLOCK_ROWS
    rows (Stage 1's exact pairs' differences, Stage 3's gathered cosine
    rows), which is one per thread and half the matrix by itself at
    n = 64 (pinned to one CPU here). A
    step that stacked the deltas, or copied the critical-layer features
    when every layer is critical, would hold a whole extra matrix."""
    cfg = harness.ExperimentConfig(n_clients=64, rounds=1, warmup_epochs=1, seed=5)
    args = []
    real = harness.fedsurrogate_round

    def step(*a, **k):
        args.append((a, k))
        return real(*a, **k)

    monkeypatch.setattr(harness, "fedsurrogate_round", step)
    harness.run_experiment(cfg)
    (a, k), = args
    updates = a[0]
    n, P = len(updates), updates[0].delta.schema.total_length
    assert round_matrix(updates).base is updates[0].delta.values.base
    monkeypatch.setattr(params, "_cpu_count", lambda: 1)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        _, outcome, _ = real(*a, **k)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert outcome.critical_layers == updates[0].delta.schema.names
    scratch = params.EUCLIDEAN_BLOCK_ROWS * P * 8
    assert peak - scratch < 0.5 * n * P * 8


def test_layer_divergence_at_n320_holds_no_pairwise_matrix():
    """``layer_divergence`` over a read-only 320 x 2676 round matrix (the
    default MLP's layers) peaks below one 320 x 320 float64 matrix above
    its entry: it reads each layer's columns in place and keeps only
    per-row and per-column vectors."""
    schema = LayerSchema.from_lengths([("fc1", 2080), ("fc2", 528), ("fc3", 68)])
    rng = np.random.default_rng(0)
    n, P = 320, schema.total_length
    g = ParameterVector(np.zeros(P), schema)
    M = aligned_rows(n, P)
    updates = [compute_update(ParameterVector(rng.standard_normal(P), schema), g,
                              client_id=i, out=M[i]) for i in range(n)]
    M.base.flags.writeable = False
    assert round_matrix(updates).base is M.base
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        divergence = defense.layer_divergence(updates)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert list(divergence) == ["fc1", "fc2", "fc3"]
    assert peak < n * n * 8


def test_cosine_rows_of_a_padded_round_matrix_copy_no_matrix(monkeypatch):
    """``cosine_distance_rows`` over a read-only 320 x 2676 matrix in
    ``aligned_rows`` (the round's layout, as Stage 3 reads it for the
    flagged clients) peaks below two scratch blocks of
    EUCLIDEAN_BLOCK_ROWS rows above its entry: it gathers its rows one
    at a time, where ``np.take`` would copy the padded matrix whole
    first."""
    monkeypatch.setattr(params, "_cpu_count", lambda: 1)
    n, P = 320, 2676
    X = aligned_rows(n, P)
    X[:] = np.random.default_rng(0).standard_normal((n, P))
    X.base.flags.writeable = False
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        D = params.cosine_distance_rows(X, range(0, n, 5))
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert D.shape == (64, n)
    assert peak < 2 * params.EUCLIDEAN_BLOCK_ROWS * P * 8
