"""A naive HDBSCAN over a precomputed distance matrix, kept as the test
oracle of ``clustering.hdbscan``.

It follows the same conventions (core distance to the min_samples-th
nearest other point, merges in (weight, i, j) order, lambda = 1 /
max(d, 1e-12), the median + 3 * MAD root fence, clusters numbered by
first point) with a different algorithm: every step is its own plain
loop, repeated matrix scans merge the clusters and recursion over
explicit point sets condenses the tree. It imports nothing from
``fedsurrogate.clustering`` but the result type, so a fault in a
shared helper cannot hide in both.
"""
import numpy as np

from fedsurrogate.clustering import ClusterResult


def lam(dist):
    return 1.0 / max(dist, 1e-12)


def core_distances(D, min_samples):
    """Each row sorted without its diagonal; the min_samples-th entry."""
    n = len(D)
    return np.array([sorted(D[i, j] for j in range(n) if j != i)[min_samples - 1]
                     for i in range(n)])


def mutual_reachability(D, min_samples):
    """MR(a, b) = max(core_a, core_b, D(a, b)), zero diagonal."""
    core = core_distances(D, min_samples)
    n = len(D)
    MR = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                MR[i, j] = max(core[i], core[j], D[i, j])
    return MR


def naive_merge_tree(MR):
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


def naive_condense(n, children, dists, mcs, selection_epsilon=0.0):
    """Recursive condensed-tree construction over explicit point sets."""
    clusters = []  # (parent, birth)
    point_info = {}  # point -> (cluster, lambda)

    def points_under(node):
        if node < n:
            return [node]
        a, b = children[node]
        return points_under(a) + points_under(b)

    def walk(node, cid):
        if node < n:
            point_info[node] = (cid, lam(0.0))
            return
        a, b = children[node]
        d = dists[node]
        na, nb = len(points_under(a)), len(points_under(b))
        if na >= mcs and nb >= mcs and d < selection_epsilon:
            walk(a, cid)
            walk(b, cid)
        elif na >= mcs and nb >= mcs:
            for child in (b, a):
                clusters.append((cid, lam(d)))
                walk(child, len(clusters) - 1)
        elif na >= mcs or nb >= mcs:
            keep, drop = (a, b) if na >= mcs else (b, a)
            for p in points_under(drop):
                point_info[p] = (cid, lam(d))
            walk(keep, cid)
        else:
            for p in points_under(node):
                point_info[p] = (cid, lam(d))

    clusters.append((-1, 0.0))
    root = n + len(children) - 1 if children else 0
    walk(root, 0)
    return clusters, point_info


def canonical_result(labels):
    """Clusters renumbered in order of their first point."""
    remap = {}
    for lbl in labels:
        if lbl >= 0 and lbl not in remap:
            remap[lbl] = len(remap)
    out = tuple(remap.get(lbl, -1) for lbl in labels)
    return ClusterResult(out, {k: out.count(k) for k in remap.values()})


def hdbscan_reference(D, min_cluster_size, min_samples, selection_epsilon=0.0):
    """Naive re-implementation of ``clustering.hdbscan``."""
    D = np.asarray(D, dtype=np.float64)
    n = len(D)
    if n < min_cluster_size:
        return ClusterResult(tuple([-1] * n), {})
    children, dists = naive_merge_tree(mutual_reachability(D, min_samples))
    clusters, point_info = naive_condense(
        n, children, dists, min_cluster_size, selection_epsilon
    )

    def is_ancestor(anc, c):
        while c != -1:
            if c == anc:
                return True
            c = clusters[c][0]
        return False

    def descendants_points(cid):
        return [p for p, (c, _) in point_info.items() if is_ancestor(cid, c)]

    stability = {}
    for cid, (par, birth) in enumerate(clusters):
        s = 0.0
        for p, (c, lam_p) in point_info.items():
            if c == cid:
                s += lam_p - birth
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
    for p, (c, _) in point_info.items():
        while c != -1:
            if c in label_of:
                labels[p] = label_of[c]
                break
            c = clusters[c][0]
    if 0 in selected:
        core = core_distances(D, min_samples)
        med = np.median(core)
        fence = med + 3.0 * np.median(np.abs(core - med))
        for p in range(n):
            if labels[p] == label_of[0] and not core[p] <= fence:
                labels[p] = -1
        if labels.count(label_of[0]) < min_cluster_size:
            labels = [-1 if lbl == label_of[0] else lbl for lbl in labels]
    return canonical_result(labels)
