"""Correctness checks on fedsurrogate's outputs.

Every check takes plain numpy arrays, sets and numbers, recomputes its
quantity with its own numpy code (never by calling back into the
package) and returns a list of failure messages, empty when the check
holds. Keeping them free of package objects lets the tests feed each
one a deliberately wrong input.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# Aggregation weights of trusted, rescued and surrogate models, as the
# paper gives them; the check does not read them from the package.
TRUSTED_WEIGHT, RESCUED_WEIGHT, SURROGATE_WEIGHT = 1.0, 0.7, 0.3

# A norm below this is degenerate and its cosine distance is 1.0, the
# convention the defense documents for zero updates.
ZERO_NORM = 1e-12
DEGENERATE_DISTANCE = 1.0

DIVERGENCE_TOL = 1e-9   # per-layer divergence, absolute
DISTANCE_TOL = 1e-9     # donor distances: ties within rounding
AGGREGATE_TOL = 1e-9    # new global model, absolute per coordinate
TIE_MARGIN = 1e-9       # logit gap below which either class may win


@dataclass(frozen=True)
class Limits:
    """Thresholds of the properties checked on every timed experiment;
    ``None`` leaves a property unchecked.

    ``GATES`` decide ``correct``. They sit at chance level, where every
    seed surveyed passes, yet a defense that stops filtering (TPR toward
    0) or flags the honest clients wholesale fails them. ``PAPER`` holds
    the paper's claims. A few percent of seeds miss one of them (see
    README), so they are printed as ``claim`` lines, not gated."""

    max_final_asr: float | None = None
    max_fpr: float = 0.50            # strict: FPR < max_fpr
    min_final_mta: float = 0.90
    min_effective_tpr: float = 0.50
    min_fedavg_peak_asr: float | None = None


GATES = Limits()
PAPER = Limits(max_final_asr=0.10, max_fpr=0.10, min_effective_tpr=0.90,
               min_fedavg_peak_asr=0.50)


def cosine_distances(x: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """1 - cos(x, y) for every row y of Y, clipped to [0, 2]."""
    nx = float(np.linalg.norm(x))
    ny = np.linalg.norm(Y, axis=1)
    out = np.full(len(Y), DEGENERATE_DISTANCE)
    ok = ny >= ZERO_NORM
    if nx >= ZERO_NORM and ok.any():
        cos = (Y[ok] / ny[ok, None]) @ (x / nx)
        out[ok] = 1.0 - np.clip(cos, -1.0, 1.0)
    return out


def layer_divergence(layers: Mapping[str, np.ndarray]) -> dict[str, float]:
    """Mean pairwise cosine distance per layer, from the Gram matrix of
    the row-normalised (n, layer size) delta matrix."""
    out: dict[str, float] = {}
    for name, X in layers.items():
        n = len(X)
        norms = np.linalg.norm(X, axis=1)
        ok = norms >= ZERO_NORM
        U = np.zeros_like(X)
        U[ok] = X[ok] / norms[ok, None]
        D = 1.0 - np.clip(U @ U.T, -1.0, 1.0)
        D[~ok, :] = DEGENERATE_DISTANCE
        D[:, ~ok] = DEGENERATE_DISTANCE
        out[name] = float(D[np.triu_indices(n, 1)].mean())
    return out


def check_divergence(expected: Mapping[str, float], reported: Mapping[str, float]) -> list[str]:
    if list(expected) != list(reported):
        return [f"divergence layers {list(reported)} != {list(expected)}"]
    return [
        f"divergence of {name}: reported {reported[name]!r}, recomputed {value!r}"
        for name, value in expected.items()
        if not abs(reported[name] - value) <= DIVERGENCE_TOL
    ]


def check_critical_layers(
    divergence: Mapping[str, float], top_k: int, reported: Sequence[str]
) -> list[str]:
    """The reported set must be k layers of highest divergence, in schema
    order; layers within DIVERGENCE_TOL of each other may swap."""
    names = list(divergence)
    k = min(top_k, len(names))
    if list(reported) != [n for n in names if n in reported] or len(set(reported)) != k:
        return [f"critical layers {tuple(reported)}: not {k} distinct layers in schema order"]
    if float(np.median(list(divergence.values()))) <= 0.0:
        expected = names[:k]   # all-zero divergence: the first k layers
        return [] if list(reported) == expected else [
            f"degenerate round: critical layers {tuple(reported)} != {tuple(expected)}"]
    lowest_chosen = min(divergence[n] for n in reported)
    passed_over = [n for n in names if n not in reported
                   and divergence[n] > lowest_chosen + DIVERGENCE_TOL]
    return [f"layer {n} diverges more than a chosen critical layer" for n in passed_over]


def check_partition(
    ids: Sequence[int],
    coarse: frozenset[int],
    demoted: frozenset[int],
    rescued: frozenset[int],
    confirmed: frozenset[int],
    degenerate: bool,
) -> list[str]:
    """Trusted, rescued and confirmed clients partition the round, and the
    Stage 1 set (trusted plus those Stage 2 demoted) is a strict majority
    unless the round is degenerate."""
    failures = []
    parts = (coarse, rescued, confirmed)
    if sum(map(len, parts)) != len(frozenset().union(*parts)):
        failures.append("trusted, rescued and confirmed sets overlap")
    if frozenset().union(*parts) != frozenset(ids):
        failures.append("trusted, rescued and confirmed sets do not cover the clients")
    if not demoted <= rescued | confirmed:
        failures.append("a demoted client is neither rescued nor confirmed")
    if not degenerate and 2 * len(coarse | demoted) <= len(ids):
        failures.append(f"Stage 1 kept {len(coarse | demoted)} of {len(ids)}: no strict majority")
    return failures


def check_donors(
    features: Mapping[int, np.ndarray],
    trusted: frozenset[int],
    confirmed: frozenset[int],
    donors: Mapping[int, int],
) -> list[str]:
    """Every confirmed client has a donor when anyone is trusted, and each
    donor is a nearest trusted client by cosine distance on the
    critical-layer deltas."""
    expected = confirmed if trusted else frozenset()
    if frozenset(donors) != expected:
        return [f"donors given to {sorted(donors)}, expected {sorted(expected)}"]
    pool = sorted(trusted)
    P = np.stack([features[c] for c in pool]) if pool else None
    failures = []
    for flagged, donor in sorted(donors.items()):
        if donor not in trusted:
            failures.append(f"donor {donor} of client {flagged} is not trusted")
            continue
        d = cosine_distances(features[flagged], P)
        chosen = d[pool.index(donor)]
        if chosen > d.min() + DISTANCE_TOL:
            nearest = pool[int(np.argmin(d))]
            failures.append(f"client {flagged}: donor {donor} at {chosen!r}, "
                            f"client {nearest} nearer at {d.min()!r}")
    return failures


def expected_aggregate(
    models: Mapping[int, np.ndarray],
    coarse: frozenset[int],
    rescued: frozenset[int],
    donors: Mapping[int, int],
    critical_slices: Sequence[slice],
    previous: np.ndarray,
) -> np.ndarray:
    """Weighted mean of trusted, rescued and surrogate models; a surrogate
    is the flagged model with its critical layers taken from its donor."""
    acc = np.zeros_like(previous)
    total = 0.0
    for cid in coarse:
        acc += TRUSTED_WEIGHT * models[cid]
        total += TRUSTED_WEIGHT
    for cid in rescued:
        acc += RESCUED_WEIGHT * models[cid]
        total += RESCUED_WEIGHT
    for cid, donor in donors.items():
        surrogate = models[cid].copy()
        for s in critical_slices:
            surrogate[s] = models[donor][s]
        acc += SURROGATE_WEIGHT * surrogate
        total += SURROGATE_WEIGHT
    return acc / total if total else previous.copy()


def check_aggregate(expected: np.ndarray, reported: np.ndarray) -> list[str]:
    err = float(np.max(np.abs(expected - reported)))
    return [] if err <= AGGREGATE_TOL else [f"new global model off by {err!r}"]


def accuracy(
    dims: Sequence[int], params: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> tuple[float, int]:
    """Top-1 accuracy of the ReLU MLP with layer widths ``dims`` whose
    layers are laid out as row-major weights then bias, plus the number
    of samples whose top two logits lie within TIE_MARGIN."""
    x, offset = features, 0
    for k, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        W = params[offset: offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = params[offset: offset + fan_out]
        offset += fan_out
        x = x @ W + b
        if k < len(dims) - 2:
            x = np.maximum(x, 0.0)
    if offset != len(params):
        raise ValueError(f"{len(params)} parameters for layer widths {tuple(dims)}")
    top2 = np.sort(x, axis=1)[:, -2:]
    near_ties = int(np.sum(top2[:, 1] - top2[:, 0] <= TIE_MARGIN))
    return float(np.mean(x.argmax(axis=1) == labels)), near_ties


def check_mta(recomputed: float, near_ties: int, n_test: int, reported: float) -> list[str]:
    if abs(recomputed - reported) <= near_ties / n_test + 1e-12:
        return []
    return [f"MTA reported {reported!r}, recomputed {recomputed!r}"]


def effective_attackers(clients: Mapping[int, tuple[int, bool]], pdr: float) -> frozenset[int]:
    """Attackers whose shard is big enough to poison at least one sample:
    floor(pdr * shard size) >= 1 (the epsilon guards 0.3 * 10 = 2.999...)."""
    return frozenset(c for c, (size, malicious) in clients.items()
                     if malicious and math.floor(pdr * size + 1e-9) >= 1)


def detection_rates(
    flagged_per_round: Sequence[frozenset[int]], positives: frozenset[int], clients: Sequence[int]
) -> tuple[float, float]:
    """(TPR over ``positives``, FPR over the clients outside them), pooled
    over rounds; an empty denominator gives 0.0."""
    negatives = frozenset(clients) - positives
    tp = sum(len(f & positives) for f in flagged_per_round)
    fp = sum(len(f & negatives) for f in flagged_per_round)
    rounds = len(flagged_per_round)
    tpr = tp / (rounds * len(positives)) if positives and rounds else 0.0
    fpr = fp / (rounds * len(negatives)) if negatives and rounds else 0.0
    return tpr, fpr


def check_report(
    final_asr: float,
    final_mta: float,
    tpr: float,
    fpr: float,
    flagged_per_round: Sequence[frozenset[int]],
    clients: Mapping[int, tuple[int, bool]],
    pdr: float,
    attacked: bool,
    limits: Limits,
) -> list[str]:
    """Properties of one defended experiment. ``clients`` maps each id to
    (shard size, malicious). The report's nominal rates must match those
    recounted from the per-round flagged sets."""
    failures = []
    nominal = frozenset(c for c, (_, malicious) in clients.items() if malicious)
    ntpr, nfpr = detection_rates(flagged_per_round, nominal, list(clients))
    if abs(ntpr - tpr) > 1e-12 or abs(nfpr - fpr) > 1e-12:
        failures.append(f"report TPR/FPR {tpr!r}/{fpr!r} != recounted {ntpr!r}/{nfpr!r}")
    if not fpr < limits.max_fpr:
        failures.append(f"FPR {fpr:.4f} not below {limits.max_fpr}")
    if final_mta < limits.min_final_mta:
        failures.append(f"final MTA {final_mta:.4f} below {limits.min_final_mta}")
    if attacked:
        if limits.max_final_asr is not None and final_asr > limits.max_final_asr:
            failures.append(f"final ASR {final_asr:.4f} above {limits.max_final_asr}")
        effective = effective_attackers(clients, pdr)
        etpr, _ = detection_rates(flagged_per_round, effective, list(clients))
        if effective and etpr < limits.min_effective_tpr:
            failures.append(f"TPR over {len(effective)} effective attackers {etpr:.4f} "
                            f"below {limits.min_effective_tpr}")
    return failures


def check_fedavg_asr(asr_per_round: Sequence[float], limits: Limits) -> list[str]:
    """The undefended control must reach a high ASR at some round, or a
    low defended ASR proves nothing."""
    peak = max(asr_per_round)
    if limits.min_fedavg_peak_asr is None or peak >= limits.min_fedavg_peak_asr:
        return []
    return [f"FedAvg peak ASR {peak:.4f} below {limits.min_fedavg_peak_asr}: attack is vacuous"]


def check_same_bytes(traced: bytes, untraced: bytes) -> list[str]:
    return [] if traced == untraced else ["traced report CSV differs from the untraced one"]
