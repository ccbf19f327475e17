import numpy as np
import pytest

from fedsurrogate.data import Dataset, corner_patch_trigger, generate_synthetic, triggered_test_set
from fedsurrogate.metrics import (
    DetectionTally,
    asr,
    mcc,
    rates,
    tally_round,
)
from fedsurrogate.model import MlpArchitecture, evaluate
from fedsurrogate.params import ParameterVector, Role


def constant_class_model(arch, cls):
    schema = arch.schema()
    values = np.zeros(schema.total_length)
    lo, hi = schema.bounds(schema.names[-1])
    values[hi - arch.num_classes + cls] = 1.0
    return ParameterVector(values, schema)


class TestAsr:
    def test_always_target_is_one(self):
        arch = MlpArchitecture((64, 4, 4))
        triggered = triggered_test_set(generate_synthetic(4, 64, 10, 0.1, seed=0),
                                       corner_patch_trigger(64))
        assert asr(arch, constant_class_model(arch, 1), triggered) == 1.0

    def test_never_target_is_zero(self):
        arch = MlpArchitecture((64, 4, 4))
        triggered = triggered_test_set(generate_synthetic(4, 64, 10, 0.1, seed=0),
                                       corner_patch_trigger(64))
        assert asr(arch, constant_class_model(arch, 2), triggered) == 0.0

    def test_all_target_class_rejected(self):
        ds = Dataset(np.zeros((5, 64)), np.ones(5, dtype=np.int64), 4)
        with pytest.raises(ValueError):
            triggered_test_set(ds, corner_patch_trigger(64))

    def test_mta_constant_model(self):
        arch = MlpArchitecture((64, 4, 4))
        ds = Dataset(np.zeros((6, 64)), np.full(6, 2, dtype=np.int64), 4)
        assert evaluate(arch, constant_class_model(arch, 2), ds) == 1.0


ROLES = {0: Role.MALICIOUS, 1: Role.MALICIOUS, 2: Role.BENIGN, 3: Role.BENIGN}


class TestTally:
    def test_exact_flagging(self):
        t = tally_round(DetectionTally(), {0, 1}, ROLES)
        assert (t.tp, t.fp, t.tn, t.fn) == (2, 0, 2, 0)

    def test_nothing_flagged(self):
        t = tally_round(DetectionTally(), set(), ROLES)
        assert (t.tp, t.fp, t.tn, t.fn) == (0, 0, 2, 2)

    def test_everyone_flagged(self):
        t = tally_round(DetectionTally(), {0, 1, 2, 3}, ROLES)
        assert (t.tp, t.fp, t.tn, t.fn) == (2, 2, 0, 0)

    def test_accumulates(self):
        t = tally_round(DetectionTally(), {0, 1}, ROLES)
        t = tally_round(t, {0, 2}, ROLES)
        assert (t.tp, t.fp, t.tn, t.fn) == (3, 1, 3, 1)

    def test_unknown_flag_rejected(self):
        with pytest.raises(ValueError):
            tally_round(DetectionTally(), {9}, ROLES)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            DetectionTally(tp=-1)


class TestRates:
    def test_hand_example(self):
        tpr, fpr = rates(DetectionTally(tp=99, fn=1, fp=2, tn=98))
        assert (tpr, fpr) == (0.99, 0.02)

    def test_perfect(self):
        assert rates(DetectionTally(tp=10, tn=10)) == (1.0, 0.0)

    def test_zero_denominators(self):
        assert rates(DetectionTally()) == (0.0, 0.0)


class TestMcc:
    def test_perfect(self):
        assert mcc(DetectionTally(tp=5, tn=5)) == 1.0

    def test_degenerate_zero(self):
        assert mcc(DetectionTally(tp=5, fp=5)) == 0.0

    def test_hand_value(self):
        t = DetectionTally(tp=3, fp=1, tn=4, fn=2)
        expect = (3 * 4 - 1 * 2) / np.sqrt((3 + 1) * (3 + 2) * (4 + 1) * (4 + 2))
        assert mcc(t) == pytest.approx(expect, abs=1e-12)

    def test_tallies_past_int64_marginal_products(self):
        # n = 2000 clients at mcr 0.2 over 100 rounds: the product of the
        # four marginals is 40000^2 * 160000^2, past 2^63 - 1
        assert mcc(DetectionTally(tp=40000, fp=0, tn=160000, fn=0)) == 1.0
        tp, fp, tn, fn = 39000, 1500, 158500, 1000
        expect = (tp * tn - fp * fn) / (
            float(tp + fp) * float(tp + fn) * float(tn + fp) * float(tn + fn)) ** 0.5
        assert mcc(DetectionTally(tp, fp, tn, fn)) == pytest.approx(expect, rel=1e-12)
