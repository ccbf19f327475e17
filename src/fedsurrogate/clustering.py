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

``hdbscan_reference`` is an independent naive implementation (repeated
matrix-scan merging, recursive condensing) used as the test oracle.
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


def _check_matrix(D: np.ndarray) -> np.ndarray:
    D = np.asarray(D, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.allclose(D, D.T, atol=1e-9):
        raise ValueError("distance matrix must be symmetric")
    return D


def core_distances(D: np.ndarray, min_samples: int) -> np.ndarray:
    """Distance to each point's min_samples-th nearest other point."""
    D = _check_matrix(D)
    n = len(D)
    if not 1 <= min_samples < n:
        raise ValueError("need 1 <= min_samples < n")
    others = D.copy()
    np.fill_diagonal(others, np.inf)  # never among the first n - 1
    others.partition(min_samples - 1, axis=1)
    return others[:, min_samples - 1].copy()


def mutual_reachability(D: np.ndarray, min_samples: int) -> np.ndarray:
    """MR(a, b) = max(core_a, core_b, D(a, b)), zero diagonal."""
    D = _check_matrix(D)
    return _reachability(D, core_distances(D, min_samples))


def _reachability(D: np.ndarray, core: np.ndarray) -> np.ndarray:
    MR = np.maximum(D, np.maximum.outer(core, core))
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
    """
    n = len(MR)
    upper = np.triu(MR, 1)
    W = upper + upper.T
    nodes = np.arange(n)
    K = np.minimum.outer(nodes, nodes) * n + np.maximum.outer(nodes, nodes)
    # lightest edge from each node to the tree, as weight and endpoint key
    best_w, best_key = W[0].copy(), K[0].copy()
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
        better = (W[v] < best_w) | ((W[v] == best_w) & (K[v] < best_key))
        np.copyto(best_w, W[v], where=better)
        np.copyto(best_key, K[v], where=better)
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
      point_exit_dist: matching exit distance
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
    point_exit_dist = [0.0] * n

    root = n + len(children) - 1 if children else 0
    stack = [(root, 0)]  # (merge-tree node, cluster id)
    while stack:
        node, cid = stack.pop()
        if node < n:  # single point left on the cluster spine
            point_cluster[node] = cid
            point_lambda[node] = _lam(0.0)
            point_exit_dist[node] = 0.0
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
                point_exit_dist[p] = d
            stack.append((keep, cid))
        else:  # cluster dies: everything left exits here
            for p in leaves(node):
                point_cluster[p] = cid
                point_lambda[p] = lam
                point_exit_dist[p] = d
    return cluster_parent, cluster_birth, point_cluster, point_lambda, point_exit_dist


def _select_eom(
    cluster_parent: list[int],
    cluster_birth: list[float],
    point_cluster: list[int],
    point_lambda: list[float],
) -> list[int]:
    """Excess-of-mass cluster selection; returns selected cluster ids."""
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
    # keep only the shallowest selected cluster on each root-to-leaf path
    selected: list[int] = []
    for cid in range(m):
        if not selected_here[cid]:
            continue
        c = cluster_parent[cid]
        shadowed = False
        while c != -1:
            if selected_here[c]:
                shadowed = True
                break
            c = cluster_parent[c]
        if not shadowed:
            selected.append(cid)
    return selected


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

    core = core_distances(D, min_samples)
    children, dists = _single_linkage(_reachability(D, core))
    cparent, cbirth, pcluster, plambda, _pexit = _condense(
        n, children, dists, min_cluster_size, selection_epsilon
    )
    selected = _select_eom(cparent, cbirth, pcluster, plambda)

    labels = [-1] * n
    label_of = {cid: k for k, cid in enumerate(sorted(selected))}
    for p in range(n):
        c = pcluster[p]
        while c != -1:
            if c in label_of:
                labels[p] = label_of[c]
                break
            c = cparent[c]
    if 0 in selected:
        # root selected: trim sparse strays by the core-distance fence
        root_label = label_of[0]
        keep = _mad_keep(core)
        for p in range(n):
            if labels[p] == root_label and not keep[p]:
                labels[p] = -1
        if sum(1 for lbl in labels if lbl == root_label) < min_cluster_size:
            labels = [-1 if lbl == root_label else lbl for lbl in labels]

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


# ---------------------------------------------------------------------------
# Naive reference implementation (test oracle). Same conventions, different
# algorithm: repeated matrix scans and recursion over explicit point sets.
# ---------------------------------------------------------------------------

def _naive_merge_tree(MR: np.ndarray):
    """Single linkage by repeatedly scanning for the lexicographically
    smallest inter-cluster edge between original points."""
    n = len(MR)
    membership = {i: frozenset([i]) for i in range(n)}  # active root -> points
    node_of = {i: i for i in range(n)}
    children, dists = {}, {}
    nxt = n
    while len(membership) > 1:
        best = None
        roots = sorted(membership)
        for ra in roots:
            for rb in roots:
                if rb <= ra:
                    continue
                for i in sorted(membership[ra]):
                    for j in sorted(membership[rb]):
                        a, b = min(i, j), max(i, j)
                        cand = (MR[a, b], a, b, ra, rb)
                        if best is None or cand[:3] < best[:3]:
                            best = cand
        _, _, _, ra, rb = best
        children[nxt] = (node_of[ra], node_of[rb])
        dists[nxt] = best[0]
        merged = membership.pop(ra) | membership.pop(rb)
        membership[min(ra, rb)] = merged
        node_of[min(ra, rb)] = nxt
        nxt += 1
    return children, dists


def _naive_condense(n, children, dists, mcs, selection_epsilon=0.0):
    """Recursive condensed-tree construction over explicit point sets."""
    clusters = []  # (parent, birth)
    point_info = {}  # point -> (cluster, lambda, exit_dist)

    def points_under(node):
        if node < n:
            return [node]
        a, b = children[node]
        return points_under(a) + points_under(b)

    def walk(node, cid):
        if node < n:
            point_info[node] = (cid, _lam(0.0), 0.0)
            return
        a, b = children[node]
        d = dists[node]
        na, nb = len(points_under(a)), len(points_under(b))
        if na >= mcs and nb >= mcs and d < selection_epsilon:
            walk(a, cid)
            walk(b, cid)
        elif na >= mcs and nb >= mcs:
            for child in (b, a):
                clusters.append((cid, _lam(d)))
                walk(child, len(clusters) - 1)
        elif na >= mcs or nb >= mcs:
            keep, drop = (a, b) if na >= mcs else (b, a)
            for p in points_under(drop):
                point_info[p] = (cid, _lam(d), d)
            walk(keep, cid)
        else:
            for p in points_under(node):
                point_info[p] = (cid, _lam(d), d)

    clusters.append((-1, 0.0))
    root = n + len(children) - 1 if children else 0
    walk(root, 0)
    return clusters, point_info


def hdbscan_reference(
    D: np.ndarray,
    min_cluster_size: int,
    min_samples: int,
    selection_epsilon: float = 0.0,
) -> ClusterResult:
    """Naive re-implementation used as the oracle in tests."""
    D = _check_matrix(D)
    n = len(D)
    if n < min_cluster_size:
        return ClusterResult(tuple([-1] * n), {})
    MR = mutual_reachability(D, min_samples)
    children, dists = _naive_merge_tree(MR)
    clusters, point_info = _naive_condense(
        n, children, dists, min_cluster_size, selection_epsilon
    )

    def descendants_points(cid):
        return [p for p, (c, _, _) in point_info.items() if _is_ancestor(cid, c)]

    def _is_ancestor(anc, c):
        while c != -1:
            if c == anc:
                return True
            c = clusters[c][0]
        return False

    stability = {}
    for cid, (par, birth) in enumerate(clusters):
        s = 0.0
        for p, (c, lam, _) in point_info.items():
            if c == cid:
                s += lam - birth
        for kid, (kpar, kbirth) in enumerate(clusters):
            if kpar == cid:
                s += len(descendants_points(kid)) * (kbirth - birth)
        stability[cid] = s

    def best_of(cid):
        kids = [k for k, (p, _) in enumerate(clusters) if p == cid]
        child_sum = sum(best_of(k)[0] for k in kids)
        if kids and (cid == 0 or child_sum > stability[cid]):
            picked = []
            for k in kids:
                picked.extend(best_of(k)[1])
            return child_sum, picked
        return stability[cid], [cid]

    _, selected = best_of(0)
    label_of = {cid: k for k, cid in enumerate(sorted(selected))}
    labels = [-1] * n
    for p, (c, _, _) in point_info.items():
        while c != -1:
            if c in label_of:
                labels[p] = label_of[c]
                break
            c = clusters[c][0]
    if 0 in selected:
        keep = _mad_keep(core_distances(D, min_samples))
        for p in range(n):
            if labels[p] == label_of[0] and not keep[p]:
                labels[p] = -1
        if sum(1 for lbl in labels if lbl == label_of[0]) < min_cluster_size:
            labels = [-1 if lbl == label_of[0] else lbl for lbl in labels]
    return _canonical_result(labels)
