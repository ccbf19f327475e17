"""Attack success rate and detection-quality metrics (TPR, FPR, MCC).
Main-task accuracy is ``model.evaluate``."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .data import TARGET_LABEL, Dataset
from .model import MlpArchitecture, predict
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


def asr(arch: MlpArchitecture, params: ParameterVector, triggered: Dataset) -> float:
    """Attack success rate: fraction of the triggered test set
    (``data.triggered_test_set``) classified as ``TARGET_LABEL``."""
    preds = predict(arch, params, triggered.features)
    return float(np.mean(preds == TARGET_LABEL))


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
    return (tp * tn - fp * fn) / math.sqrt(denom)
