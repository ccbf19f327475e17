"""Backdoor attack strategies used by malicious clients.

Every trainer runs ``_poisoned_train`` (``malicious_epochs`` on the shard
with floor(poison_rate * n) samples triggered), adds its own part (DBA a
trigger fragment, Neurotoxin a projection, CSA a penalty, CLA a splice
into a benign model) and scales the delta. A new attack is one trainer
here plus one entry in ``harness``'s roster of attack trainers.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Dataset, TriggerSpec, poison_partition
from .model import MlpArchitecture, TrainConfig, local_train
from .params import EPS_ZERO, ParameterVector, check_key, cosine_distance, floor_share


@dataclass(frozen=True)
class AttackConfig:
    poison_rate: float = 0.3
    malicious_epochs: int = 5
    neurotoxin_ratio: float = 0.75
    csa_lambda: float = 1.0
    cla_top_k: int = 2
    boost: float = 5.0

    def __post_init__(self):
        check_key(0.0 < self.poison_rate <= 1.0, "attack.poison_rate", "in (0, 1]",
                  self.poison_rate)
        check_key(self.malicious_epochs >= 1, "attack.malicious_epochs", ">= 1",
                  self.malicious_epochs)
        check_key(0.0 < self.neurotoxin_ratio < 1.0, "attack.neurotoxin_ratio", "in (0, 1)",
                  self.neurotoxin_ratio)
        check_key(self.csa_lambda >= 0, "attack.csa_lambda", ">= 0", self.csa_lambda)
        check_key(self.cla_top_k >= 1, "attack.cla_top_k", ">= 1", self.cla_top_k)
        check_key(self.boost >= 1.0, "attack.boost", ">= 1", self.boost)


def _boost(
    global_model: ParameterVector, trained: ParameterVector, factor: float
) -> ParameterVector:
    """Model-replacement scaling: amplify the local delta so the attack
    survives averaging against a majority of honest updates."""
    if factor == 1.0:
        return trained
    values = global_model.values + factor * (trained.values - global_model.values)
    return ParameterVector(values, trained.schema)


def _poisoned_train(
    arch: MlpArchitecture, global_model: ParameterVector, shard: Dataset,
    trigger: TriggerSpec, cfg: TrainConfig, attack: AttackConfig,
    fragment_index: int | None = None, **hooks: Callable[[np.ndarray], np.ndarray] | None,
) -> ParameterVector:
    """Train for ``malicious_epochs`` on the shard with its samples poisoned
    (by one trigger fragment if given), passing ``local_train``'s hooks on."""
    poisoned = poison_partition(shard, attack.poison_rate, trigger,
                                fragment_index=fragment_index, seed=cfg.seed)
    return local_train(arch, global_model, poisoned,
                       dataclasses.replace(cfg, epochs=attack.malicious_epochs), **hooks)


def cba_train(
    arch: MlpArchitecture,
    global_model: ParameterVector,
    shard: Dataset,
    trigger: TriggerSpec,
    cfg: TrainConfig,
    attack: AttackConfig,
) -> ParameterVector:
    """Centralised backdoor: every attacker poisons with the full trigger."""
    trained = _poisoned_train(arch, global_model, shard, trigger, cfg, attack)
    return _boost(global_model, trained, attack.boost)


def dba_train(
    arch: MlpArchitecture,
    global_model: ParameterVector,
    shard: Dataset,
    trigger: TriggerSpec,
    cfg: TrainConfig,
    attack: AttackConfig,
    attacker_index: int,
) -> ParameterVector:
    """Distributed backdoor: attacker i poisons only its trigger fragment."""
    trained = _poisoned_train(arch, global_model, shard, trigger, cfg, attack,
                              fragment_index=attacker_index % trigger.fragments)
    return _boost(global_model, trained, attack.boost)


def neurotoxin_mask(reference: np.ndarray | None, ratio: float) -> np.ndarray:
    """Boolean mask of the coordinates the attack is allowed to touch: the
    floor(ratio * P) coordinates where the previous global delta was
    smallest in magnitude (ties by lower index). Callers that have no
    reference delta yet allow every coordinate instead."""
    if reference is None:
        raise ValueError("mask needs a size; callers handle the no-reference case")
    p = reference.size
    k = floor_share(ratio, p)
    mask = np.zeros(p, dtype=bool)
    if k == 0:
        return mask
    order = np.argsort(np.abs(reference), kind="stable")
    mask[order[:k]] = True
    return mask


def neurotoxin_train(
    arch: MlpArchitecture,
    global_model: ParameterVector,
    shard: Dataset,
    trigger: TriggerSpec,
    cfg: TrainConfig,
    attack: AttackConfig,
    previous_global_delta: np.ndarray | None,
) -> ParameterVector:
    """Constrained backdoor: after every SGD step the accumulated deviation
    from the round's starting point is projected onto the low-magnitude
    coordinates of the previous global update."""
    if previous_global_delta is None:
        mask = np.ones(global_model.values.size, dtype=bool)
    else:
        mask = neurotoxin_mask(previous_global_delta, attack.neurotoxin_ratio)
    start = global_model.values

    def project(params: np.ndarray) -> np.ndarray:
        delta = params - start
        return start + np.where(mask, delta, 0.0)

    trained = _poisoned_train(arch, global_model, shard, trigger, cfg, attack,
                              post_step=None if mask.all() else project)
    # Scaling the delta keeps its support inside the allowed mask.
    return _boost(global_model, trained, attack.boost)


def csa_train(
    arch: MlpArchitecture,
    global_model: ParameterVector,
    shard: Dataset,
    trigger: TriggerSpec,
    cfg: TrainConfig,
    attack: AttackConfig,
) -> ParameterVector:
    """Critical-similarity adaptive attack: first trains a benign reference
    on the clean shard, then trains on the poisoned shard with a layer-wise
    cosine-similarity penalty pulling each layer towards the reference,
    and finally scales the constrained delta (constrain-and-scale)."""
    reference = local_train(arch, global_model, shard, cfg)
    lam = attack.csa_lambda
    # the reference layers and their norms are fixed for the call; a
    # layer whose reference norm is degenerate gets no penalty
    layers = []
    for _, lo, length in arch.schema().layers:
        r = reference.values[lo:lo + length]
        rn = float(np.linalg.norm(r))
        if rn >= EPS_ZERO:
            layers.append((lo, lo + length, r, rn))

    def penalty_grad(params: np.ndarray) -> np.ndarray:
        grad = np.zeros_like(params)
        for lo, hi, r, rn in layers:
            w = params[lo:hi]
            wn = float(np.linalg.norm(w))
            if wn < EPS_ZERO:
                continue
            cos = float(np.dot(w, r)) / (wn * rn)
            # d/dw of (1 - cos(w, r))
            grad[lo:hi] = lam * (cos * w / wn**2 - r / (wn * rn))
        return grad

    trained = _poisoned_train(arch, global_model, shard, trigger, cfg, attack,
                              extra_grad=penalty_grad)
    return _boost(global_model, trained, attack.boost)


def cla_compose(
    benign_model: ParameterVector,
    backdoored_model: ParameterVector,
    top_k: int,
) -> ParameterVector:
    """Critical-layer adaptive attack: start from the benign model and
    splice in the backdoored parameters only on the top_k layers where the
    two models are MOST similar (highest cosine similarity, i.e. lowest
    cosine distance; ties by schema order)."""
    schema = benign_model.schema
    if schema != backdoored_model.schema:
        raise ValueError("schemas differ")
    dist = sorted(
        (cosine_distance(benign_model.layer(n), backdoored_model.layer(n)), i)
        for i, n in enumerate(schema.names)
    )
    chosen = {schema.names[i] for _, i in dist[:top_k]}
    values = benign_model.values.copy()
    for name in chosen:
        lo, hi = schema.bounds(name)
        values[lo:hi] = backdoored_model.values[lo:hi]
    return ParameterVector(values, schema)


def cla_train(
    arch: MlpArchitecture,
    global_model: ParameterVector,
    shard: Dataset,
    trigger: TriggerSpec,
    cfg: TrainConfig,
    attack: AttackConfig,
) -> ParameterVector:
    """Train the benign and backdoored halves of the CLA attack, compose
    them, then scale the composed delta so it survives averaging."""
    benign = local_train(arch, global_model, shard, cfg)
    backdoored = _poisoned_train(arch, global_model, shard, trigger, cfg, attack)
    composed = cla_compose(benign, backdoored, attack.cla_top_k)
    return _boost(global_model, composed, attack.boost)
