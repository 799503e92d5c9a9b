"""Confusion matrices and per-class precision/recall/F1 reports.

Zero-division convention: a precision, recall or F1 whose denominator is zero
is reported as 0.0 (not NaN, not skipped), and such classes still count in
the macro average. Displayed metrics round half-up to two decimals; the JSON
twin keeps full precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .dataset import CLASS_NAMES
from .errors import DataError, EmptyEvaluation, LengthMismatch, OutOfRangeLabel
from .nn import N_CLASSES

_METRIC_KEYS = ("precision", "recall", "f1-score", "support")


def confusion(y_true, y_pred) -> np.ndarray:
    """counts[t][p] = number of items with true class t predicted as p."""
    t = np.asarray(y_true, dtype=np.int64)
    p = np.asarray(y_pred, dtype=np.int64)
    if t.shape != p.shape or t.ndim != 1:
        raise LengthMismatch(f"true {t.shape} vs predicted {p.shape}")
    if t.size and (t.min() < 0 or t.max() >= N_CLASSES or p.min() < 0 or p.max() >= N_CLASSES):
        raise OutOfRangeLabel(f"labels must lie in 0..{N_CLASSES - 1}")
    cm = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(cm, (t, p), 1)
    return cm


@dataclass(eq=False)
class ClassificationReport:
    precision: np.ndarray   # per class
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    accuracy: float
    macro_avg: tuple        # (precision, recall, f1)
    weighted_avg: tuple
    total: int

    def to_json(self) -> str:
        d = {name: {"precision": float(self.precision[i]), "recall": float(self.recall[i]),
                    "f1-score": float(self.f1[i]), "support": int(self.support[i])}
             for i, name in enumerate(CLASS_NAMES)}
        d["accuracy"] = float(self.accuracy)
        for label, avg in (("macro avg", self.macro_avg), ("weighted avg", self.weighted_avg)):
            d[label] = {"precision": float(avg[0]), "recall": float(avg[1]),
                        "f1-score": float(avg[2]), "support": int(self.total)}
        return json.dumps(d, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ClassificationReport":
        """Inverse of to_json; a missing or non-numeric entry raises DataError."""
        try:
            d = json.loads(text)
            rows = [[d[label][k] for k in _METRIC_KEYS]
                    for label in CLASS_NAMES + ("macro avg", "weighted avg")]
            if not all(type(v) in (int, float) for v in [d["accuracy"], *sum(rows, [])]):
                raise TypeError("a metric is not a number")
        except (ValueError, KeyError, TypeError) as exc:
            raise DataError(f"not a classification report ({type(exc).__name__}: {exc})") \
                from None
        precision, recall, f1, support = zip(*rows[:N_CLASSES])
        macro, weighted = rows[N_CLASSES:]
        return cls(precision=np.array(precision), recall=np.array(recall), f1=np.array(f1),
                   support=np.array(support, dtype=np.int64), accuracy=float(d["accuracy"]),
                   macro_avg=tuple(macro[:3]), weighted_avg=tuple(weighted[:3]),
                   total=int(macro[3]))


def _safe_div(num, den):
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def report(cm: np.ndarray) -> ClassificationReport:
    """Per-class precision/recall/F1/support plus accuracy and averages."""
    cm = np.asarray(cm, dtype=np.int64)
    total = int(cm.sum())
    if total == 0:
        raise EmptyEvaluation("confusion matrix is empty")
    diag = np.diag(cm).astype(np.float64)
    support = cm.sum(axis=1)
    precision = _safe_div(diag, cm.sum(axis=0))
    recall = _safe_div(diag, support)
    f1 = _safe_div(2.0 * precision * recall, precision + recall)
    weights = support / total
    return ClassificationReport(
        precision=precision, recall=recall, f1=f1, support=support,
        accuracy=float(diag.sum() / total),
        macro_avg=(float(precision.mean()), float(recall.mean()), float(f1.mean())),
        weighted_avg=(float(precision @ weights), float(recall @ weights), float(f1 @ weights)),
        total=total,
    )


def _fmt2(v: float) -> str:
    return str(Decimal(repr(float(v))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def format_report(rep: ClassificationReport) -> str:
    """Fixed-width text table: class rows, accuracy, macro and weighted averages."""
    width = max(len(n) for n in CLASS_NAMES + ("weighted avg",))
    lines = [f"{'':>{width}}  precision    recall  f1-score   support", ""]
    for i, name in enumerate(CLASS_NAMES):
        lines.append(f"{name:>{width}}  {_fmt2(rep.precision[i]):>9} {_fmt2(rep.recall[i]):>9} "
                     f"{_fmt2(rep.f1[i]):>9} {rep.support[i]:>9}")
    lines.append("")
    lines.append(f"{'accuracy':>{width}}  {'':>9} {'':>9} {_fmt2(rep.accuracy):>9} {rep.total:>9}")
    for label, avg in (("macro avg", rep.macro_avg), ("weighted avg", rep.weighted_avg)):
        lines.append(f"{label:>{width}}  {_fmt2(avg[0]):>9} {_fmt2(avg[1]):>9} "
                     f"{_fmt2(avg[2]):>9} {rep.total:>9}")
    return "\n".join(lines) + "\n"


def confusion_to_csv(cm: np.ndarray) -> str:
    """Confusion matrix as CSV with named header row/column."""
    lines = ["true\\predicted," + ",".join(CLASS_NAMES)]
    for i, name in enumerate(CLASS_NAMES):
        lines.append(name + "," + ",".join(str(int(v)) for v in cm[i]))
    return "\n".join(lines) + "\n"
