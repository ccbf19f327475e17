import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsurrogate import clustering
from fedsurrogate.clustering import (
    _check_matrix,
    _core_distances,
    _reachability,
    _single_linkage,
    hdbscan,
    largest_cluster,
)

from hdbscan_oracle import hdbscan_reference, mutual_reachability, naive_merge_tree


def cluster_sizes(labels):
    """Points per cluster id."""
    return dict(Counter(lbl for lbl in labels if lbl >= 0))


def blob_matrix(sizes, intra=0.05, inter=1.0, seed=0):
    """Distance matrix with tight blobs of the given sizes, far apart."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            base = intra if owner[i] == owner[j] else inter
            d = base * (0.5 + 0.5 * rng.uniform())
            D[i, j] = D[j, i] = d
    return D, owner


class TestCoreDistances:
    def test_three_point_line(self):
        D = _check_matrix(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]))
        core = _core_distances(D, min_samples=2)
        assert core.tolist() == [2.0, 1.0, 2.0]
        MR = _reachability(D, core)
        assert MR.tolist() == [[0.0, 2.0, 2.0], [2.0, 0.0, 2.0], [2.0, 2.0, 0.0]]

    def test_min_samples_one_is_nearest_neighbor(self):
        D = _check_matrix(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]))
        assert _core_distances(D, min_samples=1).tolist() == [1.0, 1.0, 1.0]

    def test_invalid_min_samples(self):
        # (5, 0): checked before the all-noise return of n < min_cluster_size
        for min_cluster_size, min_samples in ((2, 3), (5, 0)):
            with pytest.raises(ValueError, match="min_samples"):
                hdbscan(np.zeros((3, 3)), min_cluster_size, min_samples)

    def test_asymmetric_rejected(self):
        D = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            _check_matrix(D)


class TestHdbscan:
    def test_two_blobs_exact_sizes(self):
        D, owner = blob_matrix([8, 12])
        res = hdbscan(D, min_cluster_size=5, min_samples=3)
        found = sorted(cluster_sizes(res).values())
        assert found == [8, 12]
        # blob membership is respected exactly
        for cid in cluster_sizes(res):
            members = {i for i, lbl in enumerate(res) if lbl == cid}
            assert len({int(owner[i]) for i in members}) == 1

    def test_all_identical_single_cluster(self):
        D = np.zeros((6, 6))
        res = hdbscan(D, min_cluster_size=3, min_samples=2)
        assert cluster_sizes(res) == {0: 6}

    def test_isolated_point_is_noise(self):
        n = 10
        full = np.full((n, n), 10.0)
        full[:9, :9] = 0.05
        np.fill_diagonal(full, 0.0)
        res = hdbscan(full, min_cluster_size=4, min_samples=2)
        assert res[9] == -1
        assert sum(1 for lbl in res if lbl >= 0) == 9

    def test_too_few_points_all_noise(self):
        D = np.zeros((3, 3))
        res = hdbscan(D, min_cluster_size=5, min_samples=2)
        assert res == (-1, -1, -1)

    def test_selection_epsilon_suppresses_tight_split(self):
        # two tight sub-blobs 0.3 apart, both within epsilon: one cluster
        D, _ = blob_matrix([5, 5], intra=0.05, inter=0.3)
        split = hdbscan(D, min_cluster_size=3, min_samples=2)
        merged = hdbscan(D, min_cluster_size=3, min_samples=2, selection_epsilon=0.5)
        assert len(cluster_sizes(split)) == 2
        assert sorted(cluster_sizes(merged).values()) == [10]

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            hdbscan(np.zeros((4, 4)), 2, 1, selection_epsilon=-0.1)


class TestLargestCluster:
    def test_picks_bigger(self):
        D, owner = blob_matrix([8, 12])
        res = hdbscan(D, min_cluster_size=5, min_samples=3)
        big = largest_cluster(res)
        assert len(big) == 12
        assert {int(owner[i]) for i in big} == {int(owner[8])}

    def test_all_noise_empty(self):
        D = np.zeros((3, 3))
        res = hdbscan(D, min_cluster_size=5, min_samples=2)
        assert largest_cluster(res) == frozenset()


class TestReferenceAgreement:
    @pytest.mark.parametrize("seed", range(20))
    def test_planted_blobs_match(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 4))
        sizes = [int(rng.integers(4, 9)) for _ in range(k)]
        D, _ = blob_matrix(sizes, intra=0.1, inter=1.0, seed=seed)
        mcs = int(rng.integers(3, 5))
        ms = int(rng.integers(1, 3))
        a = hdbscan(D, mcs, ms)
        b = hdbscan_reference(D, mcs, ms)
        assert a == b

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_matrices_match(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 16))
        pts = rng.uniform(0, 1, size=(n, 3))
        D = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        a = hdbscan(D, 3, 2)
        b = hdbscan_reference(D, 3, 2)
        assert a == b

    def test_epsilon_agrees_with_reference(self):
        D, _ = blob_matrix([5, 5, 6], intra=0.05, inter=0.4, seed=3)
        # the blobs merge at about 0.2: 0.25 suppresses those splits, so a
        # fault that scales the merge distances shows; 0.5 is far above them
        for eps in (0.25, 0.5):
            a = hdbscan(D, 3, 2, selection_epsilon=eps)
            b = hdbscan_reference(D, 3, 2, selection_epsilon=eps)
            assert a == b, eps

    @pytest.mark.parametrize("seed", range(40))
    def test_merge_distances_match_reference(self, seed):
        # labels do not move when every merge distance is scaled, so the
        # distances themselves are compared: planted blobs on even seeds,
        # random points on odd ones
        rng = np.random.default_rng(seed)
        if seed % 2 == 0:
            sizes = [int(rng.integers(3, 9)) for _ in range(int(rng.integers(1, 4)))]
            D, _ = blob_matrix(sizes, intra=0.1, inter=1.0, seed=seed)
        else:
            pts = rng.uniform(0, 1, size=(int(rng.integers(4, 16)), 3))
            D = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        ms = int(rng.integers(1, min(4, len(D))))
        _, dists = _single_linkage(_reachability(D, _core_distances(D, ms)))
        _, naive = naive_merge_tree(mutual_reachability(D, ms))
        assert sorted(dists) == sorted(naive.values())


def merge_sequence(n, children, dists):
    """Each merge as (unordered pair of leaf sets, distance), in order."""
    leaves = {i: frozenset([i]) for i in range(n)}
    out = []
    for node, ((a, b), d) in enumerate(zip(children, dists), start=n):
        leaves[node] = leaves[a] | leaves[b]
        out.append((frozenset([leaves[a], leaves[b]]), float(d)))
    return out


def tie_heavy_matrix(seed):
    """Distances 1-3 between up to n distinct points, then duplicated
    points (distance 0 to their copy): nearly every weight is tied."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 41))
    m = int(rng.integers(2, n + 1))
    B = np.triu(rng.integers(1, 4, size=(m, m)).astype(float), 1)
    B = B + B.T
    pick = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
    rng.shuffle(pick)
    return B[np.ix_(pick, pick)], rng


class TestPrimTies:
    @pytest.mark.parametrize("seed", range(200))
    def test_merge_sequence_and_labels_match_reference(self, seed):
        D, rng = tie_heavy_matrix(seed)
        n = len(D)
        ms = int(rng.integers(1, min(4, n)))
        MR = mutual_reachability(D, ms)
        naive_children, naive_dists = naive_merge_tree(MR)
        nodes = range(n, 2 * n - 1)
        want = merge_sequence(n, [naive_children[k] for k in nodes], [naive_dists[k] for k in nodes])
        assert merge_sequence(n, *_single_linkage(MR)) == want
        mcs = int(rng.integers(2, max(3, n // 3)))
        eps = float(rng.choice([0.0, 1.5, 2.5]))
        assert hdbscan(D, mcs, ms, eps) == hdbscan_reference(D, mcs, ms, eps)


@pytest.mark.parametrize("seed", range(20))
def test_points_at_infinite_distance_match_reference(seed):
    """A point whose distances overflowed to inf joins the tree by an inf
    edge, at whichever step every point left out is that far."""
    D, rng = tie_heavy_matrix(seed)
    far = rng.choice(len(D), size=int(rng.integers(1, 3)), replace=False)
    D[far, :] = D[:, far] = np.inf
    np.fill_diagonal(D, 0.0)
    ms = int(rng.integers(1, min(4, len(D))))
    MR = mutual_reachability(D, ms)
    naive_children, naive_dists = naive_merge_tree(MR)
    nodes = range(len(D), 2 * len(D) - 1)
    want = merge_sequence(len(D), [naive_children[k] for k in nodes],
                          [naive_dists[k] for k in nodes])
    assert merge_sequence(len(D), *_single_linkage(MR)) == want
    assert hdbscan(D, 2, ms) == hdbscan_reference(D, 2, ms)


def test_single_linkage_leaves_a_read_only_matrix_unchanged():
    D, _ = tie_heavy_matrix(3)
    MR = mutual_reachability(D, 2)
    want = merge_sequence(len(MR), *_single_linkage(MR.copy()))
    frozen = MR.copy()
    frozen.flags.writeable = False
    assert merge_sequence(len(MR), *_single_linkage(frozen)) == want
    assert np.array_equal(frozen, MR)


class TestMatrixCheck:
    """``_check_matrix`` accepts a matrix only when it equals its
    transpose bit for bit, and ``hdbscan`` runs it once."""

    @staticmethod
    def accepted(D):
        try:
            _check_matrix(D)
        except ValueError as exc:
            assert str(exc) == "distance matrix must be symmetric"
            return False
        return True

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 65, 97])
    def test_accepts_only_exact_symmetry(self, n):
        rng = np.random.default_rng(n)
        for trial in range(40):
            A = rng.uniform(0.0, 3.0, (n, n))
            D = np.triu(A, 1) + np.triu(A, 1).T
            assert self.accepted(D), (n, trial)
            # an off-diagonal entry, or the diagonal of a single point
            i, j = rng.choice(n, 2, replace=False) if n > 1 else (0, 0)
            if trial % 4 == 0:
                D[i, j] = D[j, i] = np.inf   # a symmetric inf is symmetric
                assert self.accepted(D), (n, trial)
                continue
            if trial % 4 == 1:   # one ulp up or down
                D[i, j] = np.nextafter(D[i, j], rng.choice([-np.inf, np.inf]))
            elif trial % 4 == 2:
                D[i, j] = np.nan
            else:
                D[i, j] = np.inf
            # a NaN is refused even on the diagonal, which D.T maps onto itself
            assert self.accepted(D) == (i == j and trial % 4 != 2), (n, trial)

    def test_error_messages_kept(self):
        with pytest.raises(ValueError, match="^distance matrix must be square$"):
            _check_matrix(np.zeros((3, 4)))
        D = np.zeros((40, 40))
        D[39, 3] = 1.0
        with pytest.raises(ValueError, match="^distance matrix must be symmetric$"):
            hdbscan(D, min_cluster_size=5, min_samples=3)
        D, _ = blob_matrix([8, 12])
        D[11, 4] = np.nextafter(D[11, 4], np.inf)   # one ulp
        with pytest.raises(ValueError, match="^distance matrix must be symmetric$"):
            hdbscan(D, min_cluster_size=5, min_samples=3)

    def test_hdbscan_checks_its_matrix_once(self, monkeypatch):
        calls = []
        real = clustering._check_matrix
        monkeypatch.setattr(clustering, "_check_matrix", lambda D: calls.append(1) or real(D))
        D, _ = blob_matrix([8, 12])
        hdbscan(D, min_cluster_size=5, min_samples=3)
        assert len(calls) == 1

    def test_hdbscan_peak_memory_at_n320(self):
        """At the parent's two checks a whole-matrix allclose made the
        call's peak 2.2 times the matrix; now the reachability matrix,
        built in place, is the one matrix-sized allocation."""
        rng = np.random.default_rng(0)
        X = rng.standard_normal((320, 40))
        D = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
        D = np.triu(D, 1) + np.triu(D, 1).T
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            hdbscan(D, 5, 3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * D.nbytes, peak / D.nbytes
