import dataclasses
import json

import numpy as np
import pytest

from lungsound import dataset, evaluation, nn
from lungsound.evaluation import (ClassificationReport, confusion, confusion_to_csv,
                                  format_report, report)
from lungsound.errors import DataError, EmptyEvaluation, LengthMismatch, OutOfRangeLabel
from report_fixtures import BASELINE_CM, BASELINE_EXPECTED, SEMI_CM, SEMI_EXPECTED


def fmt2(v):
    return evaluation._fmt2(v)


def test_one_class_count():
    # the report's class names and the network's head outputs are one count
    assert len(dataset.CLASS_NAMES) == nn.N_CLASSES


def test_confusion_perfect_predictions(rng):
    y = rng.integers(0, 6, 50)
    cm = confusion(y, y)
    assert np.array_equal(np.diag(cm), np.bincount(y, minlength=6))
    assert cm.sum() == 50
    assert np.array_equal(cm, np.diag(np.diag(cm)))


def test_confusion_hand_count():
    cm = confusion([2, 2, 4], [2, 4, 4])
    assert cm[2, 2] == 1 and cm[2, 4] == 1 and cm[4, 4] == 1
    assert cm.sum() == 3


def test_confusion_empty_then_empty_evaluation():
    cm = confusion([], [])
    assert np.array_equal(cm, np.zeros((6, 6), dtype=np.int64))
    with pytest.raises(EmptyEvaluation):
        report(cm)


def test_confusion_errors():
    with pytest.raises(LengthMismatch):
        confusion([1, 2], [1])
    with pytest.raises(OutOfRangeLabel):
        confusion([0, 6], [0, 0])
    with pytest.raises(OutOfRangeLabel):
        confusion([0, 0], [-1, 0])


def _check_against(cm, expected):
    rep = report(cm)
    assert [fmt2(v) for v in rep.precision] == expected["precision"]
    assert [fmt2(v) for v in rep.recall] == expected["recall"]
    assert [fmt2(v) for v in rep.f1] == expected["f1"]
    assert rep.support.tolist() == expected["support"]
    assert fmt2(rep.accuracy) == expected["accuracy"]
    assert [fmt2(v) for v in rep.macro_avg] == expected["macro"]
    assert [fmt2(v) for v in rep.weighted_avg] == expected["weighted"]
    assert rep.total == 184


def test_baseline_report_values():
    _check_against(BASELINE_CM, BASELINE_EXPECTED)
    assert report(BASELINE_CM).accuracy == pytest.approx(164 / 184)


def test_semi_report_values():
    _check_against(SEMI_CM, SEMI_EXPECTED)
    assert report(SEMI_CM).accuracy == pytest.approx(171 / 184)


def test_zero_division_convention():
    rep = report(BASELINE_CM)
    # Healthy: zero diagonal and zero predicted column -> all 0.0, not NaN
    assert rep.precision[3] == 0.0
    assert rep.recall[3] == 0.0
    assert rep.f1[3] == 0.0


def test_macro_includes_zero_classes():
    rep = report(BASELINE_CM)
    assert rep.macro_avg[0] == pytest.approx(rep.precision.mean())


def test_format_report_rows():
    text = format_report(report(SEMI_CM))
    lines = [line.split() for line in text.splitlines() if line.strip()]
    copd = next(l for l in lines if l[0] == "COPD")
    assert copd == ["COPD", "0.97", "1.00", "0.98", "159"]
    acc = next(l for l in lines if l[0] == "accuracy")
    assert acc == ["accuracy", "0.93", "184"]  # only f1 column and total
    macro = next(l for l in lines if l[0] == "macro")
    assert macro == ["macro", "avg", "0.58", "0.49", "0.51", "184"]
    weighted = next(l for l in lines if l[0] == "weighted")
    assert weighted == ["weighted", "avg", "0.91", "0.93", "0.92", "184"]


def test_json_round_trip():
    rep = report(SEMI_CM)
    again = ClassificationReport.from_json(rep.to_json())
    for f in dataclasses.fields(ClassificationReport):  # arrays element by element
        assert np.array_equal(getattr(again, f.name), getattr(rep, f.name)), f.name


def test_display_rounding_is_half_up():
    assert fmt2(0.125) == "0.13"
    assert fmt2(0.875) == "0.88"
    assert fmt2(0.005) == "0.01"


def random_cm(rng):
    return rng.integers(0, 30, size=(6, 6)).astype(np.int64)


def test_weighted_recall_equals_accuracy(rng):
    for _ in range(1000):
        cm = random_cm(rng)
        if cm.sum() == 0:
            continue
        rep = report(cm)
        assert rep.weighted_avg[1] == pytest.approx(rep.accuracy, abs=1e-12)


def test_f1_between_min_and_max(rng):
    checked = 0
    for _ in range(1000):
        rep = report(random_cm(rng) + 1)  # +1 avoids empty rows/columns
        for p, r, f in zip(rep.precision, rep.recall, rep.f1):
            assert 0.0 <= f <= 1.0
            if p > 0 and r > 0:
                assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12
                checked += 1
    assert checked > 0


def test_identity_accuracy(rng):
    for _ in range(20):
        y = rng.integers(0, 6, rng.integers(1, 40))
        assert report(confusion(y, y)).accuracy == 1.0


def test_confusion_csv():
    text = confusion_to_csv(SEMI_CM)
    lines = text.strip().splitlines()
    assert lines[0].startswith("true\\predicted,Bronchiectasis")
    assert lines[3] == "COPD,0,0,159,0,0,0"


@pytest.mark.parametrize("damage", [
    lambda d: d.pop("Pneumonia"),
    lambda d: d["COPD"].pop("recall"),
    lambda d: d.pop("accuracy"),
    lambda d: d["macro avg"].update(precision="high"),
    lambda d: d.update(Healthy=[0.5]),
], ids=["missing-class", "missing-metric", "missing-accuracy", "string-metric", "list-row"])
def test_report_json_with_missing_or_ill_typed_keys_is_data_error(damage):
    d = json.loads(evaluation.report(BASELINE_CM).to_json())
    damage(d)
    with pytest.raises(DataError):
        ClassificationReport.from_json(json.dumps(d))


def test_report_text_not_json_is_data_error():
    with pytest.raises(DataError):
        ClassificationReport.from_json("[1, 2")
