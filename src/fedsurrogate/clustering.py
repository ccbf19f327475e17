"""HDBSCAN over a precomputed distance matrix: mutual reachability,
single-linkage tree, condensed cluster tree, excess-of-mass extraction.

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

The test oracle, a naive implementation that shares no helper with
this module (repeated matrix-scan merging, recursive condensing), is
``tests/hdbscan_oracle.py``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

_LAMBDA_EPS = 1e-12


@dataclass(frozen=True)
class ClusterResult:
    labels: tuple[int, ...]           # cluster id >= 0, or -1 for noise
    cluster_sizes: dict[int, int]

    def __post_init__(self):
        counts: dict[int, int] = {}
        for lbl in self.labels:
            if lbl >= 0:
                counts[lbl] = counts.get(lbl, 0) + 1
        if counts != self.cluster_sizes:
            raise ValueError("cluster_sizes inconsistent with labels")


# Rows of D compared with their transposed columns at a time by
# _check_matrix: a whole-matrix np.allclose(D, D.T) holds temporaries
# of 2.2 times D.
_CHECK_BLOCK_ROWS = 32


def _check_matrix(D: np.ndarray) -> np.ndarray:
    """D as a float64 array, once it is square and symmetric within
    ``np.allclose(D, D.T, atol=1e-9)``, which is checked block by block
    of rows: the test is elementwise, so the blocks accept exactly what
    the whole matrix would."""
    D = np.asarray(D, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError("distance matrix must be square")
    for lo in range(0, len(D), _CHECK_BLOCK_ROWS):
        hi = lo + _CHECK_BLOCK_ROWS
        if not np.allclose(D[lo:hi], D[:, lo:hi].T, atol=1e-9):
            raise ValueError("distance matrix must be symmetric")
    return D


def _core_distances(D: np.ndarray, min_samples: int) -> np.ndarray:
    """Distance to each point's min_samples-th nearest other point, in a
    matrix ``_check_matrix`` has accepted."""
    n = len(D)
    if not 1 <= min_samples < n:
        raise ValueError("need 1 <= min_samples < n")
    others = D.copy()
    np.fill_diagonal(others, np.inf)  # never among the first n - 1
    others.partition(min_samples - 1, axis=1)
    return others[:, min_samples - 1].copy()


def _reachability(D: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Mutual reachability MR(a, b) = max(core_a, core_b, D(a, b)), zero
    diagonal."""
    MR = np.maximum.outer(core, core)
    np.maximum(D, MR, out=MR)
    np.fill_diagonal(MR, 0.0)
    return MR


def _lam(dist: float) -> float:
    return 1.0 / max(dist, _LAMBDA_EPS)


def _single_linkage(MR: np.ndarray) -> tuple[list[tuple[int, int]], list[float]]:
    """Single-linkage merge tree. Node ids: 0..n-1 points, n..2n-2 internal.

    Returns (children, merge distance) indexed by internal node - n.

    The minimum spanning tree comes from an O(n^2) Prim pass over the
    upper triangle (McInnes & Healy 2017, "Accelerated Hierarchical
    Density Clustering"). Edges compare by the key (w, min(u, v),
    max(u, v)), a strict total order, under which the spanning tree is
    unique; replaying its edges in key order through union-find gives
    exactly the merges of Kruskal's algorithm over every edge.

    ``MR`` is overwritten: its lower triangle becomes a copy of its
    upper one, so a near-symmetric input (as ``_check_matrix`` admits)
    is read as its upper triangle. Each Prim row's endpoint keys are
    formed as the row is read, so no other n x n array is made.
    """
    n = len(MR)
    for i in range(1, n):
        MR[i, :i] = MR[:i, i]
    nodes = np.arange(n)
    # lightest edge from each node to the tree, as weight and endpoint
    # key min(u, v) * n + max(u, v); node 0 starts the tree
    best_w, best_key = MR[0].copy(), nodes.copy()
    done = np.zeros(n, dtype=bool)
    done[0] = True
    edge_w, edge_lo, edge_hi = [], [], []
    for _ in range(n - 1):
        cand = np.where(done, np.inf, best_w)
        ties = np.flatnonzero(cand == cand.min())
        v = ties[np.argmin(best_key[ties])]
        edge_w.append(best_w[v])
        edge_lo.append(int(best_key[v]) // n)
        edge_hi.append(int(best_key[v]) % n)
        done[v] = True
        # entries of nodes already done go stale; they are never read again
        row = MR[v]
        key = np.minimum(nodes, v) * n + np.maximum(nodes, v)
        better = (row < best_w) | ((row == best_w) & (key < best_key))
        np.copyto(best_w, row, where=better)
        np.copyto(best_key, key, where=better)
    order = np.lexsort((edge_hi, edge_lo, edge_w))

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

    Returns:
      cluster_parent: parent cluster id per cluster (root has -1)
      cluster_birth: birth lambda per cluster
      point_cluster: deepest cluster id per point
      point_lambda: lambda at which the point exits that cluster
    """
    def subtree_size(node: int) -> int:
        return 1 if node < n else sizes[node - n]

    sizes = [0] * len(children)
    for k, (a, b) in enumerate(children):
        sizes[k] = subtree_size(a) + subtree_size(b)

    def leaves(node: int) -> list[int]:
        out, stack = [], [node]
        while stack:
            v = stack.pop()
            if v < n:
                out.append(v)
            else:
                stack.extend(children[v - n])
        return out

    cluster_parent = [-1]
    cluster_birth = [0.0]
    point_cluster = [0] * n
    point_lambda = [0.0] * n

    root = n + len(children) - 1 if children else 0
    stack = [(root, 0)]  # (merge-tree node, cluster id)
    while stack:
        node, cid = stack.pop()
        if node < n:  # single point left on the cluster spine
            point_cluster[node] = cid
            point_lambda[node] = _lam(0.0)
            continue
        a, b = children[node - n]
        d = dists[node - n]
        lam = _lam(d)
        sa, sb = subtree_size(a), subtree_size(b)
        if sa >= min_cluster_size and sb >= min_cluster_size and d < selection_epsilon:
            # both sides are viable but the split is below the selection
            # radius: keep walking both branches inside the same cluster
            stack.append((a, cid))
            stack.append((b, cid))
        elif sa >= min_cluster_size and sb >= min_cluster_size:
            for child in (a, b):
                new_id = len(cluster_parent)
                cluster_parent.append(cid)
                cluster_birth.append(lam)
                stack.append((child, new_id))
        elif sa >= min_cluster_size or sb >= min_cluster_size:
            keep, drop = (a, b) if sa >= min_cluster_size else (b, a)
            for p in leaves(drop):
                point_cluster[p] = cid
                point_lambda[p] = lam
            stack.append((keep, cid))
        else:  # cluster dies: everything left exits here
            for p in leaves(node):
                point_cluster[p] = cid
                point_lambda[p] = lam
    return cluster_parent, cluster_birth, point_cluster, point_lambda


def _select_eom(
    cluster_parent: list[int],
    cluster_birth: list[float],
    point_cluster: list[int],
    point_lambda: list[float],
) -> list[int]:
    """Excess-of-mass cluster selection; returns the selected cluster
    that owns each cluster, or -1 for a cluster no selected one holds."""
    m = len(cluster_parent)
    stability = [0.0] * m
    subtree_points = [0] * m
    for p, cid in enumerate(point_cluster):
        stability[cid] += point_lambda[p] - cluster_birth[cid]
        c = cid
        while c != -1:
            subtree_points[c] += 1
            c = cluster_parent[c]
    kids: list[list[int]] = [[] for _ in range(m)]
    for cid in range(1, m):
        par = cluster_parent[cid]
        kids[par].append(cid)
        stability[par] += subtree_points[cid] * (cluster_birth[cid] - cluster_birth[par])

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
) -> ClusterResult:
    """Cluster a precomputed distance matrix; points outside any selected
    cluster are labeled -1.

    ``selection_epsilon`` suppresses cluster splits at merge distances
    below the given radius: both sides stay inside the parent cluster, so
    tight sub-structure cannot fragment a population that is separable
    only at a coarser scale.
    """
    D = _check_matrix(D)
    if selection_epsilon < 0:
        raise ValueError("selection_epsilon must be >= 0")
    n = len(D)
    if n < 2:
        raise ValueError("need at least 2 points")
    if min_cluster_size < 2:
        raise ValueError("min_cluster_size must be >= 2")
    if n < min_cluster_size:
        return ClusterResult(tuple([-1] * n), {})

    core = _core_distances(D, min_samples)
    children, dists = _single_linkage(_reachability(D, core))
    cparent, cbirth, pcluster, plambda = _condense(
        n, children, dists, min_cluster_size, selection_epsilon
    )
    owner = _select_eom(cparent, cbirth, pcluster, plambda)
    labels = [owner[c] for c in pcluster]
    if owner[0] == 0:
        # root selected, so it owns every point: trim sparse strays by
        # the core-distance fence
        keep = _mad_keep(core)
        labels = [-1 if lbl == 0 and not keep[p] else lbl for p, lbl in enumerate(labels)]
        if labels.count(0) < min_cluster_size:
            labels = [-1] * n

    return _canonical_result(labels)


def _canonical_result(labels: Sequence[int]) -> ClusterResult:
    """Renumber clusters by first point of occurrence so the labeling does
    not depend on internal tree-traversal order."""
    remap: dict[int, int] = {}
    out = []
    for lbl in labels:
        if lbl < 0:
            out.append(-1)
            continue
        if lbl not in remap:
            remap[lbl] = len(remap)
        out.append(remap[lbl])
    sizes: dict[int, int] = {}
    for lbl in out:
        if lbl >= 0:
            sizes[lbl] = sizes.get(lbl, 0) + 1
    return ClusterResult(tuple(out), sizes)


def largest_cluster(result: ClusterResult) -> frozenset[int]:
    """Members of the max-size cluster; ties by lower id; empty if all noise."""
    if not result.cluster_sizes:
        return frozenset()
    best = min(result.cluster_sizes, key=lambda cid: (-result.cluster_sizes[cid], cid))
    return frozenset(i for i, lbl in enumerate(result.labels) if lbl == best)
