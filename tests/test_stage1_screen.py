"""Stage 1's screen against the exact Euclidean matrix it replaces.

``defense.coarse_cluster`` hands ``hdbscan`` a matrix that holds the
exact distances only where HDBSCAN's result depends on them and
certified lower bounds elsewhere (``params.euclidean_bounds``,
``params.euclidean_pairs``, ``clustering.screened_matrix``). These tests
check that it changes nothing: the bounds bracket every exact distance,
the exact entries have the exact matrix's bits, the core distances and
the merge tree are the exact matrix's, and so is the coarse outcome,
over inputs built to stress the bound (duplicate, zero and one-ulp rows,
far clusters, points far from the origin, scales from 1e-150 to 1e150)
and at magnitudes where the Gram product overflows or underflows.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsurrogate.clustering import (
    _core_distances,
    _reachability,
    _single_linkage,
    hdbscan,
    largest_cluster,
    screened_matrix,
)
from fedsurrogate.defense import COARSE_MIN_SAMPLES, COARSE_SELECTION_EPSILON, coarse_cluster
from fedsurrogate.params import euclidean_bounds, euclidean_pairs, pairwise_distance_matrix


def exact_rule(ids, X):
    """Stage 1's outcome from the full exact matrix, as it was computed
    before the screen."""
    n = len(ids)
    ms = min(COARSE_MIN_SAMPLES, n - 1)
    labels = hdbscan(pairwise_distance_matrix(X, "euclidean"), ms + 1, ms,
                     COARSE_SELECTION_EPSILON)
    biggest = largest_cluster(labels)
    if len(biggest) >= n // 2 + 1:
        trusted = frozenset(ids[i] for i in biggest)
        return trusted, frozenset(ids) - trusted, False
    return frozenset(ids), frozenset(), True


@st.composite
def features(draw):
    """(n, width) rows: planted clusters around an optional common offset,
    with duplicate, zero and one-ulp rows, at a common power-of-ten scale."""
    n = draw(st.integers(2, 80))
    width = draw(st.sampled_from([1, 2, 3, 68, 596, 2676]) | st.integers(1, 2676))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 4))
    apart = draw(st.sampled_from([0.0, 1.0, 30.0]))
    spread = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.05, 0.3]))
    offset = draw(st.sampled_from([0.0, 1.0, 1e3, 1e5]))
    X = (apart * rng.standard_normal((k, width))[rng.integers(0, k, n)]
         + spread * rng.standard_normal((n, width)) + offset * rng.standard_normal(width))
    for _ in range(draw(st.integers(0, 3))):
        X[rng.integers(n)] = X[rng.integers(n)]
    for _ in range(draw(st.integers(0, 3))):
        a, b = rng.integers(n, size=2)
        X[a] = np.nextafter(X[b], np.inf)
    if draw(st.booleans()):
        X[rng.integers(n)] = 0.0
    return X * 10.0 ** draw(st.integers(-150, 150))


@settings(max_examples=150, deadline=None)
@given(features())
def test_the_screen_changes_nothing(X):
    n = len(X)
    ids = list(range(100, 100 + n))
    D = pairwise_distance_matrix(X, "euclidean")
    L, U = euclidean_bounds(X)
    assert np.array_equal(L, L.T) and np.array_equal(U, U.T)
    assert np.all(L <= D) and np.all(D <= U)
    ms = min(COARSE_MIN_SAMPLES, n - 1)
    M = screened_matrix(L, U, ms, lambda i, j: euclidean_pairs(X, i, j))
    # exact entries carry the exact matrix's bits, the rest stay below it
    assert np.all(M <= D)
    core = _core_distances(D, ms)
    assert np.array_equal(_core_distances(M, ms), core)
    assert _single_linkage(_reachability(M, core)) == _single_linkage(_reachability(D, core))
    assert coarse_cluster(ids, X) == exact_rule(ids, X)


def planted(n, width, seed=0):
    """A benign majority around one direction and a minority around another."""
    rng = np.random.default_rng(seed)
    X = 0.05 * rng.standard_normal((n, width))
    X[: 2 * n // 3] += rng.standard_normal(width)
    X[2 * n // 3:] += rng.standard_normal(width)
    return X


@pytest.mark.parametrize("n", [2, 20, 80])
def test_exact_pairs_have_the_matrix_bits(n):
    X = planted(n, 2676)
    D = pairwise_distance_matrix(X, "euclidean")
    i, j = np.triu_indices(n, 1)
    assert np.array_equal(euclidean_pairs(X, i, j), D[i, j])
    assert np.array_equal(euclidean_pairs(X, j, i), D[i, j])


def lattice(n, width, seed=0):
    """``planted``'s layout on the values -1, 0 and 1: every difference
    and product is 0 or at least 1 in size, so at a scale of 1e-150 the
    exact path's squares stay normal while the screen's error term E,
    about 2e-12 (|x_i| + |x_j|)^2, underflows."""
    rng = np.random.default_rng(seed)
    bases = rng.integers(-1, 2, (2, width))
    X = bases[(np.arange(n) >= 2 * n // 3).astype(int)]
    flip = rng.random((n, width)) < 0.05
    X[flip] = rng.integers(-1, 2, flip.sum())
    return X.astype(float)


@pytest.mark.parametrize("scale", [1e150, 1e-150])
def test_the_screen_raises_nothing_the_exact_path_does_not(scale):
    """Near 1e-150 the screen's error term underflows and near 1e150 its
    squares near the overflow range; neither reaches the caller's
    ``np.errstate``."""
    X = lattice(40, 2676) * scale
    ids = list(range(40))
    with np.errstate(all="raise"):
        pairwise_distance_matrix(X, "euclidean")   # the exact path raises nothing here
        got = coarse_cluster(ids, X)
    assert got == exact_rule(ids, X) and not got[2]


def test_overflowing_dots_take_the_exact_path():
    X = planted(40, 2676) * 1e160
    L, U = euclidean_bounds(X)
    off = ~np.eye(40, dtype=bool)
    assert np.all(L[off] == 0.0) and np.all(U[off] == np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        assert coarse_cluster(list(range(40)), X) == exact_rule(list(range(40)), X)


def test_one_overflowing_row_is_exact_in_every_pair():
    X = planted(20, 68)
    X[7] *= 1e160
    L, U = euclidean_bounds(X)
    assert np.all(L[7, np.arange(20) != 7] == 0.0) and np.all(U[:, 7][np.arange(20) != 7] == np.inf)
    with np.errstate(over="ignore"):
        D = pairwise_distance_matrix(X, "euclidean")
        assert np.all(L <= D) and np.all(D <= U)
        assert coarse_cluster(list(range(20)), X) == exact_rule(list(range(20)), X)
