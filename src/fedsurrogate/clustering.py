"""HDBSCAN over a precomputed distance matrix: mutual reachability,
single-linkage tree, condensed cluster tree, excess-of-mass extraction.

The matrix must be square and symmetric bit for bit: ``D == D.T``
exactly, which refuses NaN and a one-sided inf. Both matrices
``params`` builds are, so a producer that breaks symmetry fails here
instead of being read as one of its triangles.

Conventions (fixed so results are bit-deterministic):
  * core distance = distance to the min_samples-th nearest OTHER point;
  * merge edges processed in lexicographic (weight, i, j) order, i < j;
  * lambda = 1 / max(distance, 1e-12);
  * excess-of-mass selection never lets the root cluster swallow a true
    split: whenever the root has condensed children, selection descends
    into them (the usual single-cluster exclusion). A root with no
    children may still be selected; when it is,
    members are kept only if their core distance sits inside a
    median + 3 * MAD fence over all core distances, so stray points far
    from the dense mass stay noise. The median/MAD pair keeps its
    breakdown point just under one half, matching the honest-majority
    regime the caller operates in. Any tight group of at least
    min_samples + 1 points has small core distances and shows up as a
    proper cluster instead, so the fence only ever has to reject sparse
    strays.

Condensing is one stack walk whose entries carry the lambda at which
their points exit (None on a cluster's spine); it records each cluster's
size at birth for the stability sums. The result is the labels alone,
one per point: a cluster id numbered by first point, or -1 for noise.

The result reads only the core distances and the spanning tree's edges,
so a matrix that agrees with D there and holds lower bounds of D
elsewhere gives D's labels. ``screened_matrix`` builds one from
certified bounds, computing exactly only the pairs those depend on:
Stage 1 clusters such a matrix instead of the full Euclidean one.

The test oracle, a naive implementation that shares no helper with
this module (repeated matrix-scan merging, recursive condensing), is
``tests/hdbscan_oracle.py``.
"""
from __future__ import annotations

from collections import Counter
from typing import Callable

import numpy as np

_LAMBDA_EPS = 1e-12


def _check_matrix(D: np.ndarray) -> np.ndarray:
    """D as a float64 array, once it is square and exactly symmetric."""
    D = np.asarray(D, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.array_equal(D, D.T):
        raise ValueError("distance matrix must be symmetric")
    return D


def _core_distances(
    D: np.ndarray, min_samples: int, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Distance to each point's min_samples-th nearest other point, for
    1 <= min_samples < n. The rows are partitioned in a copy of D, or in
    ``scratch``, an n x n array (D itself allowed) that is overwritten."""
    others = D.copy() if scratch is None else scratch
    if others is not D:
        np.copyto(others, D)
    np.fill_diagonal(others, np.inf)  # never among the first n - 1
    others.partition(min_samples - 1, axis=1)
    return others[:, min_samples - 1].copy()


def _reachability(D: np.ndarray, core: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Mutual reachability MR(a, b) = max(core_a, core_b, D(a, b)), zero
    diagonal, in a new array or in ``out``."""
    MR = np.maximum.outer(core, core, out=out)
    np.maximum(D, MR, out=MR)
    np.fill_diagonal(MR, 0.0)
    return MR


def _lam(dist: float) -> float:
    return 1.0 / max(dist, _LAMBDA_EPS)


def _spanning_tree(MR: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The minimum spanning tree of MR under the edge key (w, min(u, v),
    max(u, v)), a strict total order under which the tree is unique, as
    n - 1 edges (w, lo, hi) with lo < hi, from an O(n^2) Prim pass over
    the rows of MR (McInnes & Healy 2017, "Accelerated Hierarchical
    Density Clustering"). ``MR`` is only read.

    Two edges into the same node x compare by their other ends alone, so
    a node's lightest edge to the tree is its lightest weight ``best``
    there and the lowest tree node at that weight. A step therefore
    keeps only ``best`` (inf, and left out of the update, for nodes
    already in) and forms endpoint keys only where the lightest weights
    tie. Each node's tree end is found once at the end: the lowest node
    that joined before it at its weight."""
    n = len(MR)
    best = MR[0].copy()
    best[0] = np.inf
    out = np.ones(n, dtype=bool)   # the nodes still out of the tree
    out[0] = False
    joined = np.full(n, n)   # the step at which each node joined the tree
    joined[0] = -1
    w = np.empty(n)          # the weight of the edge that took each node in
    for step in range(n - 1):
        v = best.argmin()
        wv = best[v]
        best[v] = np.inf
        if best[best.argmin()] == wv:
            # lightest key among the tied nodes' edges (or an inf edge,
            # where argmin may have found a node already in)
            best[v] = wv
            x = np.flatnonzero((best == wv) & out)
            u = ((MR[x] == wv) & (joined < step)).argmax(axis=1)
            v = x[np.lexsort((np.maximum(u, x), np.minimum(u, x)))[0]]
            best[v] = np.inf
        w[v], joined[v], out[v] = wv, step, False
        np.minimum(best, MR[v], out=best, where=out)
    x = np.arange(1, n)
    earlier_at_weight = MR[1:] == w[1:, None]
    earlier_at_weight &= joined < joined[1:, None]
    tree_end = earlier_at_weight.argmax(axis=1)
    return w[1:], np.minimum(x, tree_end), np.maximum(x, tree_end)


def _single_linkage(MR: np.ndarray) -> tuple[list[tuple[int, int]], list[float]]:
    """Single-linkage merge tree. Node ids: 0..n-1 points, n..2n-2 internal.

    Returns (children, merge distance) indexed by internal node - n.

    Replaying the edges of ``_spanning_tree`` in key order through
    union-find gives exactly the merges of Kruskal's algorithm over
    every edge. ``MR`` is only read.
    """
    n = len(MR)
    w, lo, hi = _spanning_tree(MR)
    order = np.lexsort((hi, lo, w))
    edge_w, edge_lo, edge_hi = w.tolist(), lo.tolist(), hi.tolist()

    parent = list(range(2 * n - 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    children: list[tuple[int, int]] = []
    dists: list[float] = []
    for nxt, k in enumerate(order.tolist(), start=n):
        ra, rb = find(edge_lo[k]), find(edge_hi[k])
        children.append((ra, rb))
        dists.append(edge_w[k])
        parent[ra] = parent[rb] = nxt
    return children, dists


def _condense(
    n: int,
    children: list[tuple[int, int]],
    dists: list[float],
    min_cluster_size: int,
    selection_epsilon: float = 0.0,
):
    """Walk the merge tree top-down, producing the condensed cluster tree.

    A dropped side or a dying cluster is pushed with its exit lambda,
    which the walk hands down to every point below it.

    Returns:
      cluster_parent: parent cluster id per cluster (root has -1)
      cluster_birth: birth lambda per cluster
      cluster_size: number of points per cluster at its birth
      point_cluster: deepest cluster id per point
      point_lambda: lambda at which the point exits that cluster
    """
    node_size = [1] * n  # points under each merge-tree node
    for a, b in children:
        node_size.append(node_size[a] + node_size[b])

    cluster_parent = [-1]
    cluster_birth = [0.0]
    cluster_size = [n]
    point_cluster = [0] * n
    point_lambda = [0.0] * n

    root = n + len(children) - 1 if children else 0
    stack = [(root, 0, None)]  # (merge-tree node, cluster id, exit lambda)
    while stack:
        node, cid, exit_lam = stack.pop()
        if node < n:  # a point exits at its lambda, or at lambda(0) on a spine
            point_cluster[node] = cid
            point_lambda[node] = _lam(0.0) if exit_lam is None else exit_lam
            continue
        a, b = children[node - n]
        if exit_lam is not None:  # below an exit: pass it down
            stack.append((a, cid, exit_lam))
            stack.append((b, cid, exit_lam))
            continue
        d = dists[node - n]
        lam = _lam(d)
        sa, sb = node_size[a], node_size[b]
        if sa >= min_cluster_size and sb >= min_cluster_size and d < selection_epsilon:
            # both sides are viable but the split is below the selection
            # radius: keep walking both branches inside the same cluster
            stack.append((a, cid, None))
            stack.append((b, cid, None))
        elif sa >= min_cluster_size and sb >= min_cluster_size:
            for child, size in ((a, sa), (b, sb)):
                new_id = len(cluster_parent)
                cluster_parent.append(cid)
                cluster_birth.append(lam)
                cluster_size.append(size)
                stack.append((child, new_id, None))
        elif sa >= min_cluster_size or sb >= min_cluster_size:
            keep, drop = (a, b) if sa >= min_cluster_size else (b, a)
            stack.append((drop, cid, lam))
            stack.append((keep, cid, None))
        else:  # cluster dies: everything left exits here
            stack.append((node, cid, lam))
    return cluster_parent, cluster_birth, cluster_size, point_cluster, point_lambda


def _select_eom(
    cluster_parent: list[int],
    cluster_birth: list[float],
    cluster_size: list[int],
    point_cluster: list[int],
    point_lambda: list[float],
) -> list[int]:
    """Excess-of-mass cluster selection; returns the selected cluster
    that owns each cluster, or -1 for a cluster no selected one holds."""
    m = len(cluster_parent)
    stability = [0.0] * m
    for p, cid in enumerate(point_cluster):
        stability[cid] += point_lambda[p] - cluster_birth[cid]
    kids: list[list[int]] = [[] for _ in range(m)]
    for cid in range(1, m):
        par = cluster_parent[cid]
        kids[par].append(cid)
        stability[par] += cluster_size[cid] * (cluster_birth[cid] - cluster_birth[par])

    best = [0.0] * m
    selected_here = [False] * m
    for cid in range(m - 1, -1, -1):  # children have larger ids than parents
        child_sum = sum(best[k] for k in kids[cid])
        if kids[cid] and (cid == 0 or child_sum > stability[cid]):
            # the root is never allowed to swallow a true split
            best[cid] = child_sum
        else:
            best[cid] = stability[cid]
            selected_here[cid] = True
    # each cluster's owner is the shallowest selected cluster on its
    # root path, itself included, or -1
    owner = [-1] * m
    for cid in range(m):  # a parent's id is below its children's
        par = cluster_parent[cid]
        if par != -1 and owner[par] != -1:
            owner[cid] = owner[par]
        elif selected_here[cid]:
            owner[cid] = cid
    return owner


def screened_matrix(
    L: np.ndarray,
    U: np.ndarray,
    min_samples: int,
    distances: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """A matrix on which ``hdbscan`` with ``min_samples`` gives the labels
    it gives on the exact distance matrix D, from symmetric bounds
    L <= D <= U with zero diagonals (``params.euclidean_bounds``) and
    ``distances(i, j)``, the entries D[i, j] of index arrays i < j. The
    result is L itself, in which the entries HDBSCAN's result depends
    on are overwritten by D, and every other entry is a lower bound; U
    is overwritten too, as scratch, so that no other n x n float array
    is made:

    - Core distances. Every pair whose L is at most t, the
      min_samples-th smallest U of either of its rows, is made exact.
      A row's core distance is at most its t, and every entry of the row
      at most t is then exact, so the core distances are D's, and every
      bound left in a row exceeds its core distance. A pair left as a
      bound therefore has mutual reachability D[i, j] >= L[i, j], and
      the reachability matrix holds D's reachabilities or lower bounds
      of them.
    - Spanning tree. ``_spanning_tree`` runs on that matrix; each of its
      edges that is still a bound is made exact, and the tree is taken
      again, until all of its edges are exact. Raising the weights of
      edges outside a tree keeps it the unique minimum spanning tree
      under the (w, min, max) order (each stays the heaviest edge of the
      cycle it closes), so it is D's tree.

    The condensing, the selection and the core-distance fence read only
    the core distances and the tree's edges, so the labels are D's."""
    t = _core_distances(U, min_samples, scratch=U)   # from here U is scratch
    exact = L <= t[:, None]
    exact |= L <= t
    D = L

    def settle(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        d = distances(i, j)
        D[i, j] = D[j, i] = d
        exact[i, j] = exact[j, i] = True
        return d

    i, j = np.nonzero(exact)
    settle(i[i < j], j[i < j])
    core = _core_distances(D, min_samples, scratch=U)
    MR = _reachability(D, core, out=U)
    while True:
        _, lo, hi = _spanning_tree(MR)
        bound = ~exact[lo, hi]
        if not bound.any():
            return D
        i, j = lo[bound], hi[bound]
        MR[i, j] = MR[j, i] = np.maximum(settle(i, j), np.maximum(core[i], core[j]))


ROOT_TRIM_MAD_MULTIPLIER = 3.0


def _mad_keep(core: np.ndarray) -> np.ndarray:
    """Mask of points inside the median + 3*MAD fence of core distances."""
    med = float(np.median(core))
    mad = float(np.median(np.abs(core - med)))
    fence = med + ROOT_TRIM_MAD_MULTIPLIER * mad
    return core <= fence


def hdbscan(
    D: np.ndarray,
    min_cluster_size: int,
    min_samples: int,
    selection_epsilon: float = 0.0,
) -> tuple[int, ...]:
    """Cluster a precomputed distance matrix: each point's cluster id,
    clusters numbered in order of their first point so the labeling does
    not depend on tree-traversal order, or -1 for a point outside any
    selected cluster.

    ``selection_epsilon`` suppresses cluster splits at merge distances
    below the given radius: both sides stay inside the parent cluster, so
    tight sub-structure cannot fragment a population that is separable
    only at a coarser scale.

    Every entry of ``D`` is read as a distance. The labels depend only
    on each row's min_samples-th smallest entry (its core distance) and
    on the edges of the mutual-reachability spanning tree, so a matrix
    from ``screened_matrix``, exact at those entries and a lower bound
    everywhere else, gets the labels of the exact matrix.
    """
    D = _check_matrix(D)
    if selection_epsilon < 0:
        raise ValueError("selection_epsilon must be >= 0")
    n = len(D)
    if n < 2:
        raise ValueError("need at least 2 points")
    if min_cluster_size < 2:
        raise ValueError("min_cluster_size must be >= 2")
    if not 1 <= min_samples < n:
        raise ValueError("need 1 <= min_samples < n")
    if n < min_cluster_size:
        return (-1,) * n

    core = _core_distances(D, min_samples)
    children, dists = _single_linkage(_reachability(D, core))
    cparent, cbirth, csize, pcluster, plambda = _condense(
        n, children, dists, min_cluster_size, selection_epsilon
    )
    owner = _select_eom(cparent, cbirth, csize, pcluster, plambda)
    labels = [owner[c] for c in pcluster]
    if owner[0] == 0:
        # root selected, so it owns every point: trim sparse strays by
        # the core-distance fence
        keep = _mad_keep(core)
        labels = [-1 if lbl == 0 and not keep[p] else lbl for p, lbl in enumerate(labels)]
        if labels.count(0) < min_cluster_size:
            labels = [-1] * n
    remap: dict[int, int] = {}
    return tuple(-1 if lbl < 0 else remap.setdefault(lbl, len(remap)) for lbl in labels)


def largest_cluster(labels: tuple[int, ...]) -> frozenset[int]:
    """Members of the max-size cluster; ties by lower id; empty if all noise."""
    sizes = Counter(lbl for lbl in labels if lbl >= 0)
    if not sizes:
        return frozenset()
    best = min(sizes, key=lambda cid: (-sizes[cid], cid))
    return frozenset(i for i, lbl in enumerate(labels) if lbl == best)
