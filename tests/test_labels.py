"""One label rule, ``tensors.check_labels``, for every function that takes
class labels: ``train_ovr``, ``evaluate``, ``top1_accuracy`` and
``average_precision``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvforge.classify import train_ovr
from fvforge.errors import ParameterError, ShapeError, ValidationError
from fvforge.evaluation import average_precision, evaluate, top1_accuracy
from fvforge.tensors import check_labels

LABEL_DTYPES = [
    np.bool_, np.int8, np.uint16, np.int32, np.int64, np.float16, np.float32, np.float64,
]


def _model_and_report(x, scores, labels, classes):
    model = train_ovr(x, labels, classes)
    return model, evaluate(scores, labels)


@settings(max_examples=60, deadline=None)
@given(
    classes=st.integers(2, 4),
    images=st.integers(3, 10),
    dtype=st.sampled_from(LABEL_DTYPES),
    seed=st.integers(0, 2**16),
    fraction=st.sampled_from([0.5, 0.25, -0.75]),
    data=st.data(),
)
def test_whole_labels_of_any_dtype_act_as_int64(classes, images, dtype, seed, fraction, data):
    """In-range labels in a bool, integer or whole float dtype give the
    model and report of the same labels as int64, bit for bit; moving one
    label by a fraction is refused by both before any work."""
    top = 2 if dtype is np.bool_ else classes
    ints = np.asarray(
        data.draw(st.lists(st.integers(0, top - 1), min_size=images, max_size=images))
    )
    rng = np.random.default_rng(seed)
    x, scores = rng.normal(size=(images, 3)), np.round(rng.normal(size=(images, classes)), 1)
    labels = ints.astype(dtype)
    assert check_labels(labels, classes, images).dtype == np.int64
    model, report = _model_and_report(x, scores, labels, classes)
    want_model, want_report = _model_and_report(x, scores, ints.astype(np.int64), classes)
    np.testing.assert_array_equal(model.weights, want_model.weights)
    np.testing.assert_array_equal(model.biases, want_model.biases)
    assert model.degenerate_classes == want_model.degenerate_classes
    np.testing.assert_array_equal(report.per_class_ap, want_report.per_class_ap)
    np.testing.assert_array_equal(report.per_class_counts, want_report.per_class_counts)
    assert (report.map_score, report.top1_accuracy, report.excluded_classes) == (
        want_report.map_score, want_report.top1_accuracy, want_report.excluded_classes,
    )
    moved = ints.astype(np.float64)
    moved[data.draw(st.integers(0, images - 1))] += fraction
    with pytest.raises(ValidationError, match="not a whole number"):
        train_ovr(x, moved, classes)
    with pytest.raises(ValidationError, match="not a whole number"):
        evaluate(scores, moved)


BAD_LABELS = [
    ([0, 0.7, 1, 0], ValidationError),
    ([0, np.nan, 1, 0], ValidationError),
    ([0, np.inf, 1, 0], ValidationError),
    ([0, -np.inf, 1, 0], ValidationError),
    ([0, 2, 1, 0], ValidationError),
    ([0, -1, 1, 0], ValidationError),
    (["0", "1", "1", "0"], ValidationError),
    ([0, 1, 1], ShapeError),
]
BAD_IDS = ["fraction", "nan", "inf", "minus-inf", "above-range", "below-range", "text", "short"]


def _entry_points():
    """Each label-taking function on a 4-image, 2-class problem whose
    labels are [0, 1, 1, 0]; ``average_precision`` reads them as 0/1 flags."""
    x = np.array([[1.0, 0.0], [0.0, 1.0], [0.1, 0.9], [0.9, 0.1]])
    return {
        "train_ovr": lambda y: train_ovr(x, y, 2),
        "evaluate": lambda y: evaluate(x, y),
        "top1_accuracy": lambda y: top1_accuracy(x, y),
        "average_precision": lambda y: average_precision(x[:, 1], y),
    }


@pytest.mark.parametrize("entry", list(_entry_points()))
@pytest.mark.parametrize("labels, error", BAD_LABELS, ids=BAD_IDS)
def test_every_entry_point_refuses_bad_labels_before_any_work(monkeypatch, entry, labels, error):
    """Neither SVM training nor AP ranking starts before the refusal."""
    def no_work(*args, **kwds):
        raise AssertionError("training or ranking ran")

    monkeypatch.setattr("fvforge.classify._train_dual", no_work)
    monkeypatch.setattr("fvforge.evaluation._average_precisions", no_work)
    call = _entry_points()[entry]
    with pytest.raises(error):
        call(np.asarray(labels))


def test_check_labels_rules():
    got = check_labels([[1.0], [0.0]], 2, 2)
    assert got.dtype == np.int64 and got.tolist() == [1, 0]
    assert check_labels([], 3, 0).shape == (0,)
    with pytest.raises(ParameterError):
        check_labels([0], 0, 1)
    with pytest.raises(ValidationError, match="labels must lie in \\[0, 2\\), got \\[0, 3\\]"):
        check_labels([0.0, 3.0], 2, 2)
    with pytest.raises(ValidationError, match="index 1"):
        check_labels([1.0, 1.5, np.nan], 3, 3)
    with pytest.raises(ValidationError):
        check_labels(np.array([0, None]), 2, 2)
