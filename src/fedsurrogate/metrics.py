"""Task metrics (accuracy, attack success) and detection-quality metrics."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .data import Dataset, TriggerSpec, triggered_test_set
from .model import MlpArchitecture, evaluate, predict
from .params import ParameterVector, Role


@dataclass(frozen=True)
class DetectionTally:
    """Confusion counts accumulated over rounds. Positive = flagged as
    malicious."""

    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("counts must be non-negative")


def main_task_accuracy(
    arch: MlpArchitecture, params: ParameterVector, test: Dataset
) -> float:
    return evaluate(arch, params, test)


def asr(
    arch: MlpArchitecture,
    params: ParameterVector,
    test: Dataset,
    trigger: TriggerSpec,
    triggered: Dataset | None = None,
) -> float:
    """Attack success rate: fraction of triggered non-target-class test
    samples classified as the trigger's target label. ``triggered`` is
    ``triggered_test_set(test, trigger)`` when the caller already holds
    it, as a run does from its first round on."""
    if triggered is None:
        triggered = triggered_test_set(test, trigger)
    if not len(triggered):
        raise ValueError("no test samples outside the target class")
    preds = predict(arch, params, triggered.features)
    return float(np.mean(preds == trigger.target_label))


def tally_round(
    tally: DetectionTally,
    flagged: Iterable[int],
    roles: Mapping[int, Role],
) -> DetectionTally:
    """Fold one round's flags into the running confusion counts; every
    client in ``roles`` counts once per round."""
    flagged = frozenset(flagged)
    unknown = flagged - roles.keys()
    if unknown:
        raise ValueError(f"flagged clients without a role: {sorted(unknown)}")
    tp = fp = tn = fn = 0
    for cid, role in roles.items():
        malicious = role == Role.MALICIOUS
        if cid in flagged:
            tp, fp = tp + malicious, fp + (not malicious)
        else:
            fn, tn = fn + malicious, tn + (not malicious)
    return DetectionTally(tally.tp + tp, tally.fp + fp,
                          tally.tn + tn, tally.fn + fn)


def rates(tally: DetectionTally) -> tuple[float, float]:
    """(TPR, FPR); a zero denominator yields 0.0 for that rate."""
    tpr = tally.tp / (tally.tp + tally.fn) if tally.tp + tally.fn else 0.0
    fpr = tally.fp / (tally.fp + tally.tn) if tally.fp + tally.tn else 0.0
    return tpr, fpr


def mcc(tally: DetectionTally) -> float:
    """Matthews correlation coefficient; 0.0 when any marginal is empty."""
    tp, fp, tn, fn = tally.tp, tally.fp, tally.tn, tally.fn
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return float((tp * tn - fp * fn) / np.sqrt(denom))
