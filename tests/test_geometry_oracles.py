"""The vectorised defense geometry against the scalar loops it replaced.

The oracles below are the per-pair and per-client loops that
``layer_divergence``, ``pairwise_distance_matrix``, ``select_donor`` and
``alignment_scores`` used to run. Inputs include zero-norm rows,
identical rows and n = 2, and every comparison runs with numpy
floating-point warnings raised as errors. Matrices of more than
``EUCLIDEAN_BLOCK_ROWS`` rows are split over threads; those tests force
the CPU count the split reads.
"""
import concurrent.futures
import subprocess
import sys

import numpy as np
import pytest

from fedsurrogate import params
from fedsurrogate.defense import (
    AggregationWeights,
    FilterConfig,
    LcaConfig,
    ScoreMemory,
    alignment_scores,
    fedsurrogate_round,
    layer_divergence,
    select_donor,
)
from fedsurrogate.params import (
    EPS_ZERO,
    EUCLIDEAN_BLOCK_ROWS,
    ClientUpdate,
    LayerSchema,
    ParameterVector,
    compute_update,
    cosine_distance,
    cosine_distance_rows,
    pairwise_distance_matrix,
)

from conftest import child_env

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


def random_rows(seed, width, scaled=True, n=None):
    """``n`` random rows, or 2-14 when n is None; some are zero, some
    repeat an earlier row and, with ``scaled``, some repeat it scaled
    (cosine 0, euclidean not)."""
    rng = np.random.default_rng(seed)
    if n is None:
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
            assert (select_donor(flagged, trusted, D[flagged], index_of)
                    == donor_oracle(flagged, trusted, X, metric))


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
def test_identical_and_zero_candidates_go_to_lower_id(metric):
    X = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0], [0.0, 0.0], [3.0, -1.0]])
    D = pairwise_distance_matrix(X, metric)
    index_of = {c: c for c in range(5)}
    assert select_donor(0, frozenset({2, 4}), D[0], index_of) == 2
    assert select_donor(0, frozenset({1, 3}), D[0], index_of) == 1
    assert select_donor(1, frozenset({2, 3, 4}), D[1], index_of) == (2 if metric == "cosine" else 3)


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
            donor_metric=metric, variant="full",
        )
    assert outcome.donors and set(outcome.donors) == set(outcome.confirmed_malicious)
    features = [np.concatenate([u.delta.layer(n) for n in outcome.critical_layers]) for u in updates]
    for flagged, donor in outcome.donors.items():
        assert donor == donor_oracle(
            flagged, outcome.coarse_trusted | outcome.rescued, features, metric)


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
            donor_metric="cosine", variant="full",
        )
    assert outcome.donors and set(outcome.donors) == set(outcome.confirmed_malicious)
    features = np.array([np.concatenate([u.delta.layer(n) for n in outcome.critical_layers]) for u in updates])
    D = pairwise_distance_matrix(features, "cosine")
    index_of = {c: c for c in range(len(updates))}
    trusted = outcome.coarse_trusted | outcome.rescued
    want = {c: select_donor(c, trusted, D[c], index_of) for c in outcome.donors}
    assert outcome.donors == want
    pool = sorted(trusted)
    assert any(np.sum(D[c, pool] == D[c, pool].min()) > 1 for c in outcome.donors)


# ---------------------------------------------------------------------------
# The row split over threads
# ---------------------------------------------------------------------------

@pytest.fixture
def any_size(monkeypatch):
    """Lets matrices of any width and size split, so that small ones
    test the split path."""
    monkeypatch.setattr(params, "THREAD_MIN_WIDTH", 0)
    monkeypatch.setattr(params, "THREAD_MIN_PRODUCTS", 0)


@pytest.fixture
def pools(monkeypatch):
    """Records the max_workers of every thread pool the geometry makes."""
    made = []
    real = concurrent.futures.ThreadPoolExecutor

    def recording(max_workers):
        made.append(max_workers)
        return real(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
    return made


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n", [33, 64, 97])
def test_split_geometry_equals_scalar_oracle_bit_for_bit(n, cpus, monkeypatch, pools, any_size):
    """At 37 columns and at 2676, the widest critical-layer subset of the
    default model; the cosine rows asked for are unsorted, one twice."""
    monkeypatch.setattr(params, "_cpu_count", lambda: cpus)
    rows = list(np.random.default_rng(n).choice(n, size=n // 2, replace=False))
    rows.append(rows[0])
    for width in (37, 2676):
        X = random_rows(n * 10 + cpus, width, n=n)
        with np.errstate(all="raise"):
            euclidean = pairwise_distance_matrix(X, "euclidean")
            cosine = pairwise_distance_matrix(X, "cosine")
            cosine_rows = cosine_distance_rows(X, rows)
            want_euclidean = distance_matrix_oracle(list(X), "euclidean")
            want_cosine = distance_matrix_oracle(list(X), "cosine")
        assert np.array_equal(euclidean, want_euclidean)
        assert np.array_equal(cosine, want_cosine)
        assert np.array_equal(cosine_rows, want_cosine[rows])
    workers = min(cpus, -(-n // EUCLIDEAN_BLOCK_ROWS))
    assert pools == ([] if workers == 1 else [workers] * 6)


def test_split_equals_serial_under_thread_contention(monkeypatch, pools, any_size):
    """More threads than cores, switching as often as the interpreter
    allows: parts that shared a buffer or an output row would differ."""
    X = random_rows(5, 37 * 8, n=200)
    rows = list(range(0, 200, 3))
    monkeypatch.setattr(params, "_cpu_count", lambda: 1)
    serial = [pairwise_distance_matrix(X, "euclidean"), cosine_distance_rows(X, rows)]
    monkeypatch.setattr(params, "_cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert np.array_equal(pairwise_distance_matrix(X, "euclidean"), serial[0])
            assert np.array_equal(cosine_distance_rows(X, rows), serial[1])
    finally:
        sys.setswitchinterval(interval)
    assert pools == [7, 7] * 3


def test_small_matrices_make_no_pool(monkeypatch, pools, any_size):
    monkeypatch.setattr(params, "_cpu_count", lambda: 4)
    X = random_rows(0, 37, n=EUCLIDEAN_BLOCK_ROWS)
    pairwise_distance_matrix(X, "euclidean")
    pairwise_distance_matrix(X, "cosine")
    cosine_distance_rows(X, range(EUCLIDEAN_BLOCK_ROWS))
    assert pools == []
    pairwise_distance_matrix(np.vstack([X, X[:1]]), "euclidean")
    assert pools == [2]


@pytest.mark.parametrize("width, split", [(68, False), (528, False), (2676, True)])
def test_narrow_rows_make_no_pool(width, split, monkeypatch, pools):
    """At n = 320, two threads lost to one at 68 and 528 columns; the
    cosine rows are Stage 3's ~60 donor rows."""
    monkeypatch.setattr(params, "_cpu_count", lambda: 2)
    X = random_rows(width, width, n=320)
    pairwise_distance_matrix(X, "euclidean")
    cosine_distance_rows(X, range(0, 320, 5))
    assert pools == ([2, 2] if split else [])


def test_few_products_make_no_pool(monkeypatch, pools):
    """Wide rows, but 8 cosine rows of 320 and an 80-row Euclidean
    matrix at 596 columns: each under THREAD_MIN_PRODUCTS."""
    monkeypatch.setattr(params, "_cpu_count", lambda: 2)
    cosine_distance_rows(random_rows(1, 2676, n=320), range(8))
    pairwise_distance_matrix(random_rows(2, 596, n=80), "euclidean")
    assert pools == []


def test_small_matrices_do_not_import_the_thread_pool():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from fedsurrogate import cli, harness, params\n"
        "params._cpu_count = lambda: 4\n"
        "X = np.random.default_rng(0).standard_normal((32, 9))\n"
        "params.pairwise_distance_matrix(X, 'euclidean')\n"
        "params.cosine_distance_rows(X, range(32))\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _layouts(X):
    """Copies of X's rows: plain contiguous, 8 bytes off a 64-byte
    boundary, and in read-only ``aligned_rows``."""
    n, width = X.shape
    off = np.empty(n * width + 8)
    off = off[(-(off.ctypes.data // 8) + 1) % 8:][:n * width].reshape(n, width)
    aligned = params.aligned_rows(n, width)
    for copy in (off, aligned):
        copy[:] = X
    aligned.base.flags.writeable = False
    return np.ascontiguousarray(X.copy()), off, aligned


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("width", [37, 2676])
@pytest.mark.parametrize("n", [2, 33, 70])
def test_geometry_bits_do_not_depend_on_row_alignment(n, width, cpus, monkeypatch, any_size):
    monkeypatch.setattr(params, "_cpu_count", lambda: cpus)
    X = random_rows(n + width, width, n=n)
    rows = list(range(0, n, 3))
    plain, off, aligned = _layouts(X)
    assert off.ctypes.data % 64 == 8
    assert all(row.ctypes.data % 64 == 0 for row in aligned)
    got = [(pairwise_distance_matrix(Y, "cosine").tobytes(),
            pairwise_distance_matrix(Y, "euclidean").tobytes(),
            cosine_distance_rows(Y, rows).tobytes()) for Y in (plain, off, aligned)]
    assert got[0] == got[1] == got[2]


@pytest.mark.parametrize("which", ["euclidean", "cosine_rows"])
def test_overflow_in_a_worker_raises(which, monkeypatch, pools, any_size):
    monkeypatch.setattr(params, "_cpu_count", lambda: 2)
    X = np.random.default_rng(1).uniform(0.5, 1.0, (40, 5)) * 1e200
    X[1::2] *= -1.0
    with np.errstate(all="raise"), pytest.raises(FloatingPointError) as raised:
        if which == "euclidean":
            pairwise_distance_matrix(X, "euclidean")
        else:
            cosine_distance_rows(X, range(40))
    assert pools == [2]
    assert any(entry.name == "fill" for entry in raised.traceback)


# ---------------------------------------------------------------------------
# Stage 2 alignment scores
# ---------------------------------------------------------------------------

def alignment_oracle(updates, global_model, rescue_layers):
    counts = np.array([u.sample_count for u in updates], dtype=np.float64)
    omega = counts / counts.sum()
    W = np.stack([np.concatenate([u.model.layer(n) for n in rescue_layers]) for u in updates])
    G = W - np.concatenate([global_model.layer(n) for n in rescue_layers])
    w_star = omega @ W
    g_star = omega @ G
    g_norm = float(np.linalg.norm(g_star))
    out = {}
    for u, w in zip(updates, W):
        diff = w - w_star
        d_norm = float(np.linalg.norm(diff))
        if d_norm < EPS_ZERO or g_norm < EPS_ZERO:
            out[u.client_id] = 0.0
        else:
            out[u.client_id] = float(np.dot(diff, g_star)) / (d_norm * g_norm)
    return out


def alignment_round(seed):
    """Clients with random sample counts. Every fourth seed gives four
    clients equal counts and small-integer models c - d, c + d, c, c,
    so the weighted mean is c exactly and two rows deviate by zero;
    every fourth seed puts every model at the global model."""
    rng = np.random.default_rng(seed)
    g = ParameterVector(rng.standard_normal(SCHEMA.total_length), SCHEMA)
    if seed % 4 == 0:
        c = rng.integers(-8, 8, SCHEMA.total_length).astype(float)
        d = rng.integers(-8, 8, SCHEMA.total_length).astype(float)
        models, counts = [c - d, c + d, c, c], [5, 5, 5, 5]
    elif seed % 4 == 1:
        models = [g.values] * int(rng.integers(2, 9))
        counts = rng.integers(1, 50, len(models))
    else:
        models = list(random_rows(seed, SCHEMA.total_length))
        counts = rng.integers(1, 50, len(models))
    updates = [
        compute_update(ParameterVector(m, SCHEMA), g, client_id=10 + i, sample_count=int(k))
        for i, (m, k) in enumerate(zip(models, counts))
    ]
    return updates, g


@pytest.mark.parametrize("seed", SEEDS)
def test_alignment_scores_equal_oracle_bit_for_bit(seed):
    updates, g = alignment_round(seed)
    layers = ("fc2", "fc3") if seed % 2 else ("fc1", "out")
    with np.errstate(all="raise"):
        got = alignment_scores(updates, g, layers)
        want = alignment_oracle(updates, g, layers)
    assert list(got) == list(want)
    assert all(type(v) is float for v in got.values())
    assert np.array_equal(list(got.values()), list(want.values()))
    if seed % 4 == 0:
        assert got[12] == got[13] == 0.0
