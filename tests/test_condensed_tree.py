"""The condensed tree's cluster sizes at birth, which excess-of-mass
stability weights each child's birth by, against a count of the points
that end in each cluster or below it."""
import numpy as np

from fedsurrogate.clustering import _condense, _core_distances, _reachability, _single_linkage


def uneven_blobs(rng):
    """Distances among 2-4 tight blobs of 3-9 points and a few strays."""
    sizes = rng.integers(3, 10, size=int(rng.integers(2, 5)))
    centers = rng.uniform(-5, 5, size=(len(sizes), 3))
    pts = [c + 0.05 * rng.standard_normal(3) for c, s in zip(centers, sizes) for _ in range(s)]
    pts += [rng.uniform(-20, 20, size=3) for _ in range(int(rng.integers(0, 3)))]
    pts = np.array(pts)
    return np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)


def test_birth_sizes_count_each_clusters_points():
    rng = np.random.default_rng(15)
    uneven_splits = 0
    for _ in range(100):
        D = uneven_blobs(rng)
        mcs = int(rng.integers(2, 6))
        eps = float(rng.choice([0.0, 0.1, 0.5]))
        children, dists = _single_linkage(_reachability(D, _core_distances(D, mcs - 1)))
        parent, _, size, point_cluster, _ = _condense(len(D), children, dists, mcs, eps)
        counts = [0] * len(parent)
        for c in point_cluster:
            while c != -1:
                counts[c] += 1
                c = parent[c]
        assert size == counts
        # siblings are born in pairs, at consecutive ids
        uneven_splits += sum(size[c] != size[c + 1] for c in range(1, len(parent), 2))
    assert uneven_splits > 50  # the sizes decide between unequal siblings
