"""Per-class average precision, mAP, and top-1 scoring of ranked class scores.

AP uses step-wise precision-recall integration: sort images by score
descending (ties break by input order via a stable sort), then average
the precision measured at each positive's rank.  Classes with no
positive images have undefined AP; ``evaluate`` excludes them from the
mean and lists them in the report.

``evaluate`` checks its (images, classes) matrix once and ranks every
class in one stable sort down the image axis; each class's AP then sums
the precisions at its own positives' ranks, so it has the same bits as
``average_precision`` of that one column.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DataError,
    ParameterError,
    ShapeError,
    UndefinedApError,
    ValidationError,
)
from .tensors import _checked, atomic_write_text, check_class_names, read_text

_REPORT_COMMENT = (
    "# ties break by input order (stable sort); "
    "classes with zero positives are excluded from mAP"
)


@dataclass(frozen=True)
class EvalReport:
    """Per-class APs plus the aggregate ranking metrics."""

    per_class_ap: np.ndarray
    map_score: float
    top1_accuracy: float
    per_class_counts: np.ndarray
    excluded_classes: tuple[int, ...] = ()
    class_names: tuple[str, ...] = ()

    def __post_init__(self):
        (counts,) = _checked(
            np.int64, ("per-class counts", self.per_class_counts, (None,)), flat=True
        )
        (ap,) = _checked(np.float64, ("per-class AP", self.per_class_ap, counts.shape), flat=True)
        check_class_names(self.class_names, ap.size)
        defined = np.setdiff1d(
            np.arange(ap.size), np.asarray(self.excluded_classes, dtype=np.int64)
        )
        if defined.size and not (
            np.all(ap[defined] >= 0.0) and np.all(ap[defined] <= 1.0)
        ):
            raise DataError("per-class AP values must lie in [0, 1]")
        if not 0.0 <= self.top1_accuracy <= 1.0:
            raise DataError(f"top1_accuracy {self.top1_accuracy} outside [0, 1]")
        object.__setattr__(self, "per_class_ap", ap)
        object.__setattr__(self, "per_class_counts", counts)
        object.__setattr__(
            self, "excluded_classes", tuple(self.excluded_classes)
        )
        object.__setattr__(self, "class_names", tuple(self.class_names))

    @property
    def class_count(self) -> int:
        return int(self.per_class_ap.size)


def _average_precisions(scores: np.ndarray, positives: np.ndarray) -> np.ndarray:
    """AP of each column of the checked ``scores`` against the same column
    of the boolean ``positives`` (0 for a column with none), each summing
    its precisions at its positive ranks only, as a one-column ranking does."""
    order = np.argsort(-scores, axis=0, kind="stable")
    ranked = np.take_along_axis(positives, order, axis=0)
    precision = np.cumsum(ranked, axis=0) / np.arange(1, ranked.shape[0] + 1)[:, None]
    counts = ranked.sum(axis=0)
    return np.array(
        [precision[ranked[:, k], k].sum() / max(counts[k], 1) for k in range(ranked.shape[1])]
    )


def average_precision(scores, labels) -> float:
    """Area under the precision-recall curve of one ranked class."""
    y = np.asarray(labels, dtype=bool).reshape(-1)
    (s,) = _checked(np.float64, ("scores", scores, y.shape), flat=True)
    if s.size == 0:
        raise ParameterError("cannot compute AP of an empty ranking")
    if not y.any():
        raise UndefinedApError("AP is undefined with zero positive labels")
    return float(_average_precisions(s[:, None], y[:, None])[0])


def top1_accuracy(score_matrix: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax (lowest index on ties) is the label."""
    predicted = np.argmax(score_matrix, axis=1)
    return float(np.mean(predicted == labels))


def evaluate(score_matrix, labels, class_names=()) -> EvalReport:
    """One-vs-rest AP per class, mAP over defined classes, and top-1."""
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    (scores,) = _checked(np.float64, ("score matrix", score_matrix, (y.shape[0], None)))
    if scores.shape[0] == 0:
        raise ParameterError("cannot evaluate an empty score matrix")
    class_count = scores.shape[1]
    if y.min() < 0 or y.max() >= class_count:
        raise ValidationError(
            f"labels must lie in [0, {class_count}), got "
            f"[{y.min()}, {y.max()}]"
        )
    positives = y[:, None] == np.arange(class_count)
    counts = positives.sum(axis=0)
    ap = _average_precisions(scores, positives)
    return EvalReport(
        per_class_ap=ap,
        map_score=float(ap[counts > 0].mean()),
        top1_accuracy=top1_accuracy(scores, y),
        per_class_counts=counts,
        excluded_classes=tuple(np.flatnonzero(counts == 0).tolist()),
        class_names=tuple(class_names),
    )


def write_scores_csv(
    path: str | Path, image_ids, score_matrix: np.ndarray
) -> None:
    """image_id,score_0,...,score_{C-1} with a header row."""
    scores = np.ascontiguousarray(score_matrix, dtype=np.float64)
    ids = list(image_ids)
    if scores.ndim != 2 or scores.shape[0] != len(ids):
        raise ShapeError(
            f"{len(ids)} image ids for score matrix shape {scores.shape}"
        )
    header = ["image_id"] + [f"score_{k}" for k in range(scores.shape[1])]
    lines = [",".join(header)]
    for image_id, row in zip(ids, scores):
        lines.append(",".join([image_id] + [repr(float(v)) for v in row]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_scores_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Inverse of write_scores_csv; validates the header, that there is a
    score row, the row widths and that no image id repeats."""
    src = Path(path)
    try:
        rows = list(csv.reader(io.StringIO(read_text(src), newline="")))
    except OSError as exc:
        raise DataError(f"cannot read scores file {src}: {exc}") from exc
    except csv.Error as exc:
        raise ValidationError(f"scores file {src} is not valid CSV: {exc}") from None
    if not rows:
        raise ValidationError(f"scores file {src} is empty")
    header = rows[0]
    if not header or header[0] != "image_id":
        raise ValidationError(f"scores file {src} missing image_id header")
    class_count = len(header) - 1
    if class_count < 1:
        raise ValidationError(f"scores file {src} has no score columns")
    expected = [f"score_{k}" for k in range(class_count)]
    if header[1:] != expected:
        raise ValidationError(f"scores file {src} has malformed score columns")
    if len(rows) == 1:
        raise ValidationError(f"scores file {src} has no score rows")
    ids: list[str] = []
    seen: set[str] = set()
    data = np.zeros((len(rows) - 1, class_count))
    for i, row in enumerate(rows[1:]):
        if len(row) != class_count + 1:
            raise ValidationError(
                f"scores file {src} row {i + 2} has {len(row)} fields, "
                f"expected {class_count + 1}"
            )
        if row[0] in seen:
            raise ValidationError(
                f"scores file {src} row {i + 2} repeats image id '{row[0]}'"
            )
        seen.add(row[0])
        ids.append(row[0])
        try:
            data[i] = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise ValidationError(
                f"scores file {src} row {i + 2}: {exc}"
            ) from exc
    return ids, _checked(np.float64, (f"scores file {src}", data, data.shape))[0]


def write_report_csv(path: str | Path, report: EvalReport) -> None:
    """CSV of (class, positives, AP) and a summary line; nothing in fvforge reads it."""
    lines = [_REPORT_COMMENT, "class,positives,ap"]
    excluded = set(report.excluded_classes)
    for k in range(report.class_count):
        name = report.class_names[k] if report.class_names else str(k)
        ap_text = "undefined" if k in excluded else repr(float(report.per_class_ap[k]))
        lines.append(f"{name},{report.per_class_counts[k]},{ap_text}")
    lines.append(f"mAP={report.map_score!r} top1={report.top1_accuracy!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")
