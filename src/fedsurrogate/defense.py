"""The defenses as round steps: the three-stage FedSurrogate pipeline and
the FedAvg control. Each step takes the round's client updates, the
global model and its score memory, in that order, and returns the new
global model, a ``RoundOutcome`` and the new memory.

Stage 1: per-layer divergence ranking, then density clustering of updates
restricted to the critical layers -> coarse trusted set / suspects.
Stage 2: population-referenced alignment scoring with persistent per-client
memory; IQR screening demotes trusted outliers, an adaptive cutoff rescues
suspects.
Stage 3: flagged clients have their critical layers replaced by those of
their nearest trusted donor, then aggregation applies differential weights.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .clustering import hdbscan, largest_cluster, screened_matrix
from .params import (
    EPS_ZERO,
    ClientUpdate,
    ParameterVector,
    aligned_rows,
    check_key,
    cosine_distance_rows,
    euclidean_bounds,
    euclidean_pairs,
    pairwise_distance_matrix,
    row_dots,
)

# At 20-client scale a coordinated minority can be as small as 3-4
# clients; min_samples must stay below that for the group to register as
# dense, so the coarse stage uses less than the usual literature 5.
COARSE_MIN_SAMPLES = 3

# Distance radius below which the coarse clustering refuses to split a
# cluster, so benign micro-structure cannot fragment the honest mass.
COARSE_SELECTION_EPSILON = 0.5

# the ablations of ``fedsurrogate_round``, in the order ``fedsurrogate ablate``
# runs them, Stage 3's donor metrics and Stage 1's layer-selection modes
VARIANTS = ("stage1", "no_rescue", "exclude", "full")
DONOR_METRICS = ("cosine", "euclidean")
LCA_MODES = ("top_k", "mad_threshold")


@dataclass(frozen=True)
class LcaConfig:
    """Critical-layer selection: top-k by normalised divergence (default),
    or a MAD threshold with sensitivity sigma."""

    top_k: int = 5
    sigma: float = 2.0
    mode: str = "top_k"  # one of LCA_MODES

    def __post_init__(self):
        check_key(self.top_k >= 1, "lca.top_k", ">= 1", self.top_k)
        if self.mode not in LCA_MODES:
            raise ValueError(f"config key 'lca.mode' is {self.mode!r}, "
                             f"not one of {', '.join(LCA_MODES)}")
        check_key(self.mode != "mad_threshold" or self.sigma > 0, "lca.sigma",
                  "> 0 in mad_threshold mode", self.sigma)


@dataclass(frozen=True)
class FilterConfig:
    zeta: float = 0.4
    iqr_multiplier: float = 1.5
    rescue_layers: tuple[str, ...] = ("fc2", "fc3")

    def __post_init__(self):
        check_key(0.0 < self.zeta <= 1.0, "filter.zeta", "in (0, 1]", self.zeta)
        # a negative multiplier moves the fence below Q3
        check_key(self.iqr_multiplier >= 0, "filter.iqr_multiplier", ">= 0",
                  self.iqr_multiplier)
        if not self.rescue_layers:
            raise ValueError("config key 'filter.rescue_layers' must name at least one layer")
        if len(set(self.rescue_layers)) < len(self.rescue_layers):
            raise ValueError(f"config key 'filter.rescue_layers' repeats a layer: {self.rescue_layers}")


@dataclass(frozen=True)
class AggregationWeights:
    trusted: float = 1.0
    rescued: float = 0.7
    surrogate: float = 0.3

    def __post_init__(self):
        check_key(self.surrogate > 0, "weights.surrogate", "> 0", self.surrogate)
        check_key(self.rescued >= self.surrogate, "weights.rescued",
                  f">= weights.surrogate ({self.surrogate})", self.rescued)
        check_key(self.trusted >= self.rescued, "weights.trusted",
                  f">= weights.rescued ({self.rescued})", self.trusted)


@dataclass(frozen=True)
class ScoreMemory:
    """Cumulative per-client anomaly scores (running mean) and counts."""

    cumulative: dict[int, float] = field(default_factory=dict)
    counts: dict[int, int] = field(default_factory=dict)

    def score(self, client_id: int) -> float:
        return self.cumulative[client_id]


@dataclass(frozen=True)
class RoundOutcome:
    """A round's partition of the clients. Stage 2's suspects are
    ``rescued | confirmed_malicious`` and the aggregated ones
    ``coarse_trusted | rescued``."""

    critical_layers: tuple[str, ...]
    coarse_trusted: frozenset[int]      # post-demotion
    demoted: frozenset[int]
    rescued: frozenset[int]
    confirmed_malicious: frozenset[int]
    donors: dict[int, int]
    degenerate: bool = False

    def __post_init__(self):
        parts = [self.coarse_trusted, self.rescued, self.confirmed_malicious]
        union = frozenset().union(*parts)
        if sum(len(p) for p in parts) != len(union):
            raise ValueError("outcome sets overlap")


# ---------------------------------------------------------------------------
# Stage 1
# ---------------------------------------------------------------------------

def layer_divergence(updates: Sequence[ClientUpdate]) -> dict[str, float]:
    """Mean pairwise cosine distance of the clients' deltas, per layer,
    from one weighted row sum s = sum_i u_i over the unit rows u_i: the
    cosines of the pairs i != j sum to |s|^2 - sum_i |u_i|^2."""
    if len(updates) < 2:
        raise ValueError("need at least two updates")
    n = len(updates)
    X = round_matrix(updates)
    out: dict[str, float] = {}
    for name, lo, length in updates[0].delta.schema.layers:
        cols = X[:, lo:lo + length]  # a strided view: BLAS reads it in place
        sq = row_dots(cols, cols)
        norms = np.sqrt(sq)
        # a zero unit vector gives each of its row's pairs cosine 0, which
        # is exactly ZERO_NORM_DISTANCE = 1.0: degenerate rows need no case
        inv = np.divide(1.0, norms, out=np.zeros(n), where=norms >= EPS_ZERO)
        s = inv @ cols
        out[name] = min(2.0, max(0.0, 1.0 - float(s @ s - inv @ (inv * sq)) / (n * (n - 1))))
    return out


def select_critical_layers(
    divergences: Mapping[str, float], cfg: LcaConfig
) -> tuple[tuple[str, ...], bool]:
    """Critical layer set by normalised divergence; second element flags a
    degenerate round (all-zero divergence)."""
    names = list(divergences)
    if not names:
        raise ValueError("no layers")
    d = np.array([divergences[n] for n in names])
    med = float(np.median(d))
    k = min(cfg.top_k, len(names))
    if med <= 0.0:
        return tuple(names[:k]), True
    dn = d / med
    if cfg.mode == "top_k":
        # ties resolved by schema order: stable sort on negated score
        order = np.argsort(-dn, kind="stable")[:k]
        return tuple(names[i] for i in sorted(order)), False
    mad = float(np.median(np.abs(dn - np.median(dn))))
    chosen = [n for n, v in zip(names, dn) if v > 1.0 + cfg.sigma * mad]
    if not chosen:  # threshold above every layer: fall back to the top layer
        chosen = [names[int(np.argmax(dn))]]
    return tuple(chosen), False


def coarse_cluster(
    ids: Sequence[int], features: np.ndarray
) -> tuple[frozenset[int], frozenset[int], bool]:
    """Cluster the clients' critical-layer deltas, row k of ``features``
    (``_critical_features``) being client ``ids[k]``'s; the largest
    cluster is accepted as the coarse trusted set when it carries a
    strict majority.

    Returns (coarse trusted, suspects, degenerate). Distances are
    euclidean rather than cosine: honest updates agree in both direction
    and magnitude, while an attacker must either diverge in direction or
    inflate magnitude to matter, and only euclidean geometry sees both.
    The density clustering itself runs with min_cluster_size =
    min_samples + 1 so genuinely dense subgroups always surface as
    clusters; the majority condition is applied afterwards. Splits at
    distance below COARSE_SELECTION_EPSILON are suppressed, which stops
    local sub-structure inside the honest mass from fragmenting it below
    the majority threshold.

    ``hdbscan`` reads a screened matrix, not the full euclidean one:
    certified bounds from one Gram product (``euclidean_bounds``), with
    the exact distances of ``pairwise_distance_matrix``'s bits
    (``euclidean_pairs``) at every pair the core distances and the
    spanning tree depend on (``screened_matrix``). The labels are those
    of the full matrix.
    """
    n = len(ids)
    ms = min(COARSE_MIN_SAMPLES, n - 1)
    D = screened_matrix(*euclidean_bounds(features), ms,
                        lambda i, j: euclidean_pairs(features, i, j))
    labels = hdbscan(D, min_cluster_size=ms + 1, min_samples=ms,
                     selection_epsilon=COARSE_SELECTION_EPSILON)
    majority = n // 2 + 1
    biggest = largest_cluster(labels)
    if len(biggest) >= majority:
        trusted = frozenset(ids[i] for i in biggest)
        suspects = frozenset(ids) - trusted
        return trusted, suspects, False
    # no majority cluster: degrade to Stage-2-only filtering
    return frozenset(ids), frozenset(), True


def round_matrix(updates: Sequence[ClientUpdate]) -> np.ndarray:
    """The clients' deltas as the rows of one (n, P) array, which the
    caller must not write to. When the deltas are already the rows, in
    order and at one stride, of a read-only buffer that holds these n
    rows and nothing more, as ``harness.run_experiment`` builds each
    round (``params.aligned_rows`` and ``compute_update``'s ``out``),
    their view of that buffer is returned without a copy; otherwise the
    deltas are stacked into a new ``aligned_rows`` array."""
    first, n = updates[0].delta.values, len(updates)
    B = first.base
    if n > 1 and isinstance(B, np.ndarray) and not B.flags.writeable:
        start = first.ctypes.data
        step = updates[1].delta.values.ctypes.data - start
        if (n * step <= B.nbytes < (n + 1) * step
                and all(u.delta.values.base is B and u.delta.values.ctypes.data == start + i * step
                        for i, u in enumerate(updates))):
            return np.ndarray((n, first.size), np.float64, buffer=B,
                              offset=start - B.ctypes.data, strides=(step, first.itemsize))
    return np.stack([u.delta.values for u in updates], out=aligned_rows(n, first.size))


def _layer_rows(
    vectors: Sequence[ParameterVector], names: Sequence[str], out: np.ndarray | None = None
) -> np.ndarray:
    """(n, width) ``aligned_rows`` array, or ``out`` if given, whose row
    k holds the given layers of ``vectors[k]``, in the order given: one
    column block per layer, copied straight from the vectors, so no
    per-client copy is made."""
    spans = [vectors[0].schema.bounds(name) for name in names]
    if out is None:
        out = aligned_rows(len(vectors), sum(hi - lo for lo, hi in spans))
    col = 0
    for lo, hi in spans:
        np.stack([v.values[lo:hi] for v in vectors], out=out[:, col:col + hi - lo])
        col += hi - lo
    return out


def _critical_features(
    updates: Sequence[ClientUpdate], critical_layers: Sequence[str]
) -> np.ndarray:
    """(n, width) array of the clients' critical-layer deltas, in the
    order given. When that is every layer in schema order (the default
    three-layer MLP at top_k = 5) it is the round's delta matrix itself
    (``round_matrix``), read in place; a strict subset is copied."""
    if tuple(critical_layers) == updates[0].delta.schema.names:
        return round_matrix(updates)
    return _layer_rows([u.delta for u in updates], critical_layers)


# ---------------------------------------------------------------------------
# Stage 2
# ---------------------------------------------------------------------------

def alignment_scores(
    updates: Sequence[ClientUpdate],
    global_model: ParameterVector,
    rescue_layers: Sequence[str],
) -> dict[int, float]:
    """Instantaneous alignment of each client's mid-deep weights with the
    population-weighted mean update direction, in [-1, 1]."""
    counts = np.array([u.sample_count for u in updates], dtype=np.float64)
    if counts.sum() <= 0:
        raise ValueError("total sample count must be positive")
    omega = counts / counts.sum()
    models = [u.model for u in updates]
    g_rescue = _layer_rows([global_model], rescue_layers)[0]
    # contiguous, not aligned_rows: over padded rows of the default 596
    # values numpy's broadcast subtracts below take over twice as long
    W = _layer_rows(models, rescue_layers, out=np.empty((len(models), g_rescue.size)))
    w_star = omega @ W
    # the clients' steps W - global, then each client's deviation from
    # w_star, are each written over W (refilled in between), so the
    # stage holds one (n, width) array while Stage 1's features are held
    g_star = omega @ np.subtract(W, g_rescue, out=W)
    g_norm = float(np.linalg.norm(g_star))
    diff = np.subtract(_layer_rows(models, rescue_layers, out=W), w_star, out=W)
    # the dots np.linalg.norm and np.dot take for one client, per row
    d_norms = np.sqrt(row_dots(diff, diff))
    degenerate = (d_norms < EPS_ZERO) | (g_norm < EPS_ZERO)
    scores = np.divide(row_dots(diff, g_star), d_norms * g_norm,
                       out=np.zeros(len(updates)), where=~degenerate)
    return dict(zip((u.client_id for u in updates), scores.tolist()))


def update_memory(mem: ScoreMemory, raw: Mapping[int, float]) -> ScoreMemory:
    """Fold this round's alignment scores into the running per-client mean.

    Raw scores are min-max scaled over the round so that HIGH memory
    means suspicious: attackers train longer and reinforce each other, so
    their deviation from the mean model aligns with (and dominates) the
    population update direction, while benign deviations are
    heterogeneity noise. An all-equal round contributes a neutral 0.5.
    """
    if len(raw) < 2:
        raise ValueError("need at least two scored clients")
    values = np.array(list(raw.values()))
    lo, hi = float(values.min()), float(values.max())
    cumulative = dict(mem.cumulative)
    counts = dict(mem.counts)
    for cid, s in raw.items():
        anomaly = 0.5 if hi - lo < EPS_ZERO else (s - lo) / (hi - lo)
        m = counts.get(cid, 0) + 1
        prev = cumulative.get(cid, 0.0)
        cumulative[cid] = (m - 1) / m * prev + anomaly / m
        counts[cid] = m
    return ScoreMemory(cumulative, counts)


def screen_trusted(
    mem: ScoreMemory, coarse_trusted: frozenset[int], cfg: FilterConfig
) -> frozenset[int]:
    """Demote trusted clients whose memory score exceeds the upper IQR
    fence. Quartiles need at least four scores to mean anything."""
    if len(coarse_trusted) < 4:
        return frozenset()
    members = sorted(coarse_trusted)
    scores = np.array([mem.score(c) for c in members])
    q1, q3 = np.percentile(scores, [25.0, 75.0])  # linear interpolation
    fence = q3 + cfg.iqr_multiplier * (q3 - q1)
    return frozenset(c for c, s in zip(members, scores) if s > fence)


def rescue_suspects(
    mem: ScoreMemory, suspects: frozenset[int], cfg: FilterConfig
) -> tuple[frozenset[int], frozenset[int]]:
    """Split suspects into rescued (score <= adaptive cutoff) and
    confirmed malicious."""
    if not suspects:
        return frozenset(), frozenset()
    scores = {c: mem.score(c) for c in suspects}
    cutoff = min(cfg.zeta, float(np.median(list(scores.values()))))
    rescued = frozenset(c for c, s in scores.items() if s <= cutoff)
    return rescued, suspects - rescued


# ---------------------------------------------------------------------------
# Stage 3
# ---------------------------------------------------------------------------

def select_donor(
    flagged: int,
    trusted: frozenset[int],
    row: np.ndarray,
    index_of: Mapping[int, int],
    metric: str | None = None,
    features: Sequence[np.ndarray] | None = None,
) -> int:
    """Nearest trusted donor for a flagged client by ``row``, its
    distances under the round's donor metric to every client, at the
    positions ``index_of`` maps client ids to; ties by lower id.

    ``flagged``, ``metric`` and ``features`` are not read. They remain
    so that wrappers written for the former per-pair signature, which
    pass all six arguments on, keep working."""
    if not trusted:
        raise ValueError("no trusted clients to donate")
    pool = sorted(trusted)
    return pool[int(np.argmin(row[[index_of[c] for c in pool]]))]


def build_surrogate(
    theta_f: ParameterVector,
    theta_donor: ParameterVector,
    critical_layers: Sequence[str],
) -> ParameterVector:
    """Critical layers from the donor, every other layer from the flagged
    client."""
    if theta_f.schema != theta_donor.schema:
        raise ValueError("schemas differ")
    values = theta_f.values.copy()
    for name in critical_layers:
        lo, hi = theta_f.schema.bounds(name)
        values[lo:hi] = theta_donor.values[lo:hi]
    return ParameterVector(values, theta_f.schema)


def aggregate(
    models: Mapping[int, ParameterVector],
    roles: Mapping[int, str],
    weights: AggregationWeights,
) -> ParameterVector:
    """Weighted mean with per-role weights (trusted / rescued / surrogate)."""
    if not models:
        raise ValueError("nothing to aggregate")
    lam = {"trusted": weights.trusted, "rescued": weights.rescued,
           "surrogate": weights.surrogate}
    first = next(iter(models.values()))
    acc = np.zeros_like(first.values)
    total = 0.0
    for cid in sorted(models):
        w = lam[roles[cid]]
        acc += w * models[cid].values
        total += w
    return ParameterVector(acc / total, first.schema)


# ---------------------------------------------------------------------------
# Round steps
# ---------------------------------------------------------------------------

def fedavg_round(
    updates: Sequence[ClientUpdate],
    global_model: ParameterVector,
    mem: ScoreMemory,
) -> tuple[ParameterVector, RoundOutcome, ScoreMemory]:
    """The undefended control: the sample-size-weighted mean of the
    clients' models. Its outcome trusts every client, and the score
    memory passes through unchanged."""
    if not updates:
        raise ValueError("nothing to aggregate")
    total = float(sum(u.sample_count for u in updates))
    acc = np.zeros_like(global_model.values)
    for u in sorted(updates, key=lambda u: u.client_id):
        acc += (u.sample_count / total) * u.model.values
    outcome = RoundOutcome((), frozenset(u.client_id for u in updates), frozenset(),
                           frozenset(), frozenset(), {})
    return ParameterVector(acc, global_model.schema), outcome, mem


def fedsurrogate_round(
    updates: Sequence[ClientUpdate],
    global_model: ParameterVector,
    mem: ScoreMemory,
    lca_cfg: LcaConfig,
    filter_cfg: FilterConfig,
    weights: AggregationWeights,
    donor_metric: str,
    variant: str,
) -> tuple[ParameterVector, RoundOutcome, ScoreMemory]:
    """One server round of the full pipeline. Returns the new global
    model, the round's set partition, and the updated score memory.

    ``variant`` selects an ablation of the pipeline:
      - ``"full"``: all three stages.
      - ``"stage1"``: coarse clustering only; suspects are excluded and the
        alignment filter never runs (score memory passes through unchanged).
      - ``"no_rescue"``: stages 1+2 but every suspect is confirmed, none
        rescued.
      - ``"exclude"``: all stages, but confirmed clients are dropped from
        aggregation instead of being replaced by surrogates.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if donor_metric not in DONOR_METRICS:
        raise ValueError(f"unknown donor metric {donor_metric!r}")
    if len(updates) < 2:
        raise ValueError("need at least two clients")
    ids = [u.client_id for u in updates]
    index_of = {cid: i for i, cid in enumerate(ids)}
    by_id = {u.client_id: u for u in updates}

    # Stage 1
    divergences = layer_divergence(updates)
    critical, degenerate_lca = select_critical_layers(divergences, lca_cfg)
    features = _critical_features(updates, critical)
    coarse, suspects, degenerate_cluster = coarse_cluster(ids, features)

    # Stage 2 (memory update precedes screening)
    if variant == "stage1":
        demoted, rescued = frozenset(), frozenset()
        flagged = frozenset(suspects)
    else:
        raw = alignment_scores(updates, global_model, filter_cfg.rescue_layers)
        mem = update_memory(mem, raw)
        demoted = screen_trusted(mem, coarse, filter_cfg)
        coarse = coarse - demoted
        suspects = suspects | demoted
        if variant == "no_rescue":
            rescued, flagged = frozenset(), frozenset(suspects)
        else:
            rescued, flagged = rescue_suspects(mem, suspects, filter_cfg)
    trusted = coarse | rescued

    # Stage 3
    donors: dict[int, int] = {}
    models: dict[int, ParameterVector] = {}
    roles: dict[int, str] = {}
    for cid in ids:
        if cid in coarse:
            models[cid], roles[cid] = by_id[cid].model, "trusted"
        elif cid in rescued:
            models[cid], roles[cid] = by_id[cid].model, "rescued"
    # no trusted clients at all: flagged updates are simply excluded
    if flagged and trusted and variant not in ("stage1", "exclude"):
        order = sorted(flagged)
        rows = [index_of[cid] for cid in order]
        # the flagged clients' donor-distance rows over the critical-layer features
        donor_rows = (cosine_distance_rows(features, rows) if donor_metric == "cosine"
                      else pairwise_distance_matrix(features, "euclidean")[rows])
        for cid, row in zip(order, donor_rows):
            donor = select_donor(cid, trusted, row, index_of)
            donors[cid] = donor
            models[cid] = build_surrogate(by_id[cid].model, by_id[donor].model, critical)
            roles[cid] = "surrogate"

    new_global = aggregate(models, roles, weights) if models else global_model
    outcome = RoundOutcome(
        critical_layers=critical,
        coarse_trusted=frozenset(coarse),
        demoted=demoted,
        rescued=rescued,
        confirmed_malicious=flagged,
        donors=donors,
        degenerate=degenerate_lca or degenerate_cluster,
    )
    return new_global, outcome, mem
