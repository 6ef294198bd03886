"""Ranking metrics against scalar oracles, plus the CSV round trips."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvforge import evaluation
from fvforge.errors import (
    DataError,
    ParameterError,
    ShapeError,
    UndefinedApError,
    ValidationError,
)
from fvforge.evaluation import (
    EvalReport,
    average_precision,
    evaluate,
    read_scores_csv,
    top1_accuracy,
    write_report_csv,
    write_scores_csv,
)
from fvforge.tensors import ManifestEntry

from oracles import (
    average_precision_reference,
    evaluate_reference,
    worst_case_ap,
)


def test_hand_worked_example():
    # Ranked: negative first, then the positive at rank 2 -> AP = 1/2.
    assert average_precision([0.9, 0.8], [False, True]) == pytest.approx(0.5)
    # Positive first -> precision 1 at its rank.
    assert average_precision([0.8, 0.9], [False, True]) == pytest.approx(1.0)


def test_perfect_and_inverted_rankings():
    labels = [True, True, False, False, False]
    scores = [5.0, 4.0, 3.0, 2.0, 1.0]
    assert average_precision(scores, labels) == pytest.approx(1.0)
    worst = average_precision(scores[::-1], labels)
    assert worst == pytest.approx(worst_case_ap(2, 5))


def test_matches_oracle_with_ties(rng):
    for _ in range(25):
        n = int(rng.integers(3, 40))
        scores = rng.integers(0, 5, n).astype(float)  # heavy ties
        labels = rng.random(n) < 0.4
        if not labels.any():
            labels[int(rng.integers(n))] = True
        ours = average_precision(scores, labels)
        ref = average_precision_reference(scores.tolist(), labels.tolist())
        assert ours == pytest.approx(ref, abs=1e-12)


@given(
    labels=st.lists(st.booleans(), min_size=1, max_size=30).filter(any),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_step_ap_property(labels, data):
    scores = data.draw(
        st.lists(
            st.integers(min_value=-3, max_value=3),
            min_size=len(labels),
            max_size=len(labels),
        )
    )
    ours = average_precision([float(s) for s in scores], labels)
    ref = average_precision_reference([float(s) for s in scores], labels)
    assert ours == pytest.approx(ref, abs=1e-12)
    assert worst_case_ap(sum(labels), len(labels)) - 1e-12 <= ours <= 1.0 + 1e-12


def test_invariant_to_monotone_score_transforms(rng):
    scores = rng.normal(size=30)
    labels = rng.random(30) < 0.3
    labels[0] = True
    base = average_precision(scores, labels)
    assert average_precision(3.0 * scores + 7.0, labels) == pytest.approx(base)
    assert average_precision(np.tanh(scores), labels) == pytest.approx(base)


def test_invariant_to_permutation_when_scores_are_distinct(rng):
    scores = rng.permutation(np.linspace(0.0, 1.0, 20))
    labels = rng.random(20) < 0.5
    labels[3] = True
    base = average_precision(scores, labels)
    perm = rng.permutation(20)
    assert average_precision(scores[perm], labels[perm]) == pytest.approx(base)


def test_ties_break_by_input_order():
    # Equal scores: the earlier row ranks first, so AP differs by position.
    assert average_precision([1.0, 1.0], [True, False]) == pytest.approx(1.0)
    assert average_precision([1.0, 1.0], [False, True]) == pytest.approx(0.5)


def test_ap_preconditions():
    with pytest.raises(UndefinedApError):
        average_precision([1.0, 2.0], [False, False])
    with pytest.raises(ParameterError):
        average_precision([], [])
    with pytest.raises(DataError):
        average_precision([np.nan, 1.0], [True, False])
    with pytest.raises(ShapeError):
        average_precision([1.0, 2.0], [True])


def test_evaluate_matches_composed_oracle(rng):
    matrix = rng.normal(size=(40, 4))
    labels = rng.integers(0, 4, 40)
    report = evaluate(matrix, labels)
    ref_ap, ref_map, ref_top1 = evaluate_reference(matrix.tolist(), labels.tolist())
    for k, ap in ref_ap.items():
        assert report.per_class_ap[k] == pytest.approx(ap, abs=1e-12)
    assert report.map_score == pytest.approx(ref_map, abs=1e-12)
    assert report.top1_accuracy == pytest.approx(ref_top1)
    assert report.excluded_classes == ()
    np.testing.assert_array_equal(report.per_class_counts, np.bincount(labels, minlength=4))


def test_evaluate_excludes_positive_free_classes(rng):
    matrix = rng.normal(size=(12, 3))
    labels = rng.integers(0, 2, 12)  # class 2 never appears
    report = evaluate(matrix, labels)
    assert report.excluded_classes == (2,)
    assert report.per_class_counts[2] == 0
    defined = [report.per_class_ap[0], report.per_class_ap[1]]
    assert report.map_score == pytest.approx(float(np.mean(defined)))


def _evaluate_counting_checks(matrix, labels):
    """``evaluate``'s report and how many arrays it sent through ``_checked``."""
    with mock.patch.object(evaluation, "_checked", wraps=evaluation._checked) as checked:
        report = evaluate(matrix, labels)
    return report, checked.call_count


@settings(max_examples=150, deadline=None)
@given(images=st.integers(1, 25), classes=st.integers(1, 8), data=st.data())
def test_evaluate_ranks_every_class_in_one_pass(images, classes, data):
    values = data.draw(
        st.lists(st.floats(-2.0, 2.0), min_size=images * classes, max_size=images * classes)
    )
    scores = np.round(np.reshape(values, (images, classes)), 1)  # rounding makes ties
    labels = np.asarray(
        data.draw(st.lists(st.integers(0, classes - 1), min_size=images, max_size=images))
    )
    report, checks = _evaluate_counting_checks(scores, labels)
    assert checks == _evaluate_counting_checks([[0.0]], [0])[1]
    for k in range(classes):
        if k in report.excluded_classes:
            assert not np.any(labels == k)
            continue
        ap = average_precision(scores[:, k], labels == k)
        assert report.per_class_ap[k] == ap
        ref = average_precision_reference(scores[:, k].tolist(), (labels == k).tolist())
        assert ap == pytest.approx(ref, abs=1e-12)


def test_top1_ties_pick_the_lowest_index():
    matrix = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert top1_accuracy(matrix, np.array([0, 0])) == 1.0
    assert top1_accuracy(matrix, np.array([1, 1])) == 0.0


def test_evaluate_preconditions(rng):
    with pytest.raises(ValidationError):
        evaluate(rng.normal(size=(4, 2)), [0, 1, 2, 0])
    with pytest.raises(ShapeError):
        evaluate(rng.normal(size=(4, 2)), [0, 1])
    with pytest.raises(ParameterError):
        evaluate(np.zeros((0, 3)), [])
    with pytest.raises(DataError):
        evaluate(np.array([[np.inf, 0.0]]), [0])


def test_evaluate_refuses_class_names_a_report_row_would_break(rng):
    matrix = rng.normal(size=(2, 2))
    with pytest.raises(ValidationError):
        evaluate(matrix, [0, 1], ("a,b", "c"))
    with pytest.raises(ShapeError):
        evaluate(matrix, [0, 1], ("a",))
    with pytest.raises(ValidationError):
        EvalReport(
            per_class_ap=np.array([0.5, 0.5]),
            map_score=0.5,
            top1_accuracy=0.5,
            per_class_counts=np.array([1, 1]),
            class_names=("a", "a"),
        )


def test_report_container_validation():
    with pytest.raises(DataError):
        EvalReport(
            per_class_ap=np.array([1.5, 0.2]),
            map_score=0.85,
            top1_accuracy=0.5,
            per_class_counts=np.array([3, 3]),
        )
    with pytest.raises(DataError):
        EvalReport(
            per_class_ap=np.array([0.5]),
            map_score=0.5,
            top1_accuracy=1.5,
            per_class_counts=np.array([3]),
        )
    with pytest.raises(ShapeError):
        EvalReport(
            per_class_ap=np.array([0.5]),
            map_score=0.5,
            top1_accuracy=0.5,
            per_class_counts=np.array([3, 3]),
        )


def test_scores_csv_round_trip(rng, tmp_path):
    ids = [f"im{i:03d}" for i in range(7)]
    matrix = rng.normal(size=(7, 3))
    path = tmp_path / "scores.csv"
    write_scores_csv(path, ids, matrix)
    got_ids, got = read_scores_csv(path)
    assert got_ids == ids
    np.testing.assert_array_equal(got, matrix)  # repr round-trips floats exactly


def _accepted(image_id: str) -> bool:
    try:
        ManifestEntry(image_id, None, ())
    except ValidationError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(ids=st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=5, unique=True))
def test_every_id_a_manifest_entry_accepts_survives_the_scores_csv(tmp_path_factory, ids):
    """The CSV is written unquoted, so it is safe only because an id holds
    no ``,``, ``"``, NUL or line break."""
    ids = [i for i in ids if _accepted(i)]
    if not ids:
        return
    path = tmp_path_factory.mktemp("scores") / "scores.csv"
    matrix = np.arange(2.0 * len(ids)).reshape(len(ids), 2)
    write_scores_csv(path, ids, matrix)
    got_ids, got = read_scores_csv(path)
    assert got_ids == ids
    np.testing.assert_array_equal(got, matrix)


@settings(max_examples=200, deadline=None)
@given(
    ids=st.lists(st.text(alphabet=st.sampled_from('ab /,"\t\x00\n\r\x85'), max_size=3),
                 min_size=1, max_size=4),
    data=st.data(),
)
def test_scores_csv_writes_exactly_the_ids_it_can_read_back(tmp_path_factory, ids, data):
    """Ids that ``check_image_id`` accepts round-trip with their scores;
    any other id, or a repeated one, is refused before a file appears."""
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=2 * len(ids), max_size=2 * len(ids)))
    matrix = np.reshape(values, (len(ids), 2))
    path = tmp_path_factory.mktemp("scores") / "scores.csv"
    if all(map(_accepted, ids)) and len(set(ids)) == len(ids):
        write_scores_csv(path, ids, matrix)
        got_ids, got = read_scores_csv(path)
        assert got_ids == ids
        np.testing.assert_array_equal(got, matrix)
    else:
        with pytest.raises(ValidationError):
            write_scores_csv(path, ids, matrix)
        assert list(path.parent.iterdir()) == []


def test_scores_csv_refuses_what_its_reader_would(tmp_path):
    path = tmp_path / "scores.csv"
    with pytest.raises(ValidationError):
        write_scores_csv(path, ['"ab"', "c"], np.eye(2))
    with pytest.raises(ValidationError):
        write_scores_csv(path, ["a", "a"], np.eye(2))
    with pytest.raises(ShapeError):
        write_scores_csv(path, ["a", "b"], np.zeros((2, 0)))
    with pytest.raises(DataError):
        write_scores_csv(path, ["a", "b"], np.array([[0.0], [np.nan]]))
    assert not path.exists()


def test_scores_csv_rejects_malformed_input(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("image_id,score_0\n")
    with pytest.raises(ValidationError, match="no score rows"):
        read_scores_csv(path)

    path.write_text("wrong,score_0\nim0,1.0\n")
    with pytest.raises(ValidationError):
        read_scores_csv(path)
    path.write_text("image_id,score_0,score_2\nim0,1.0,2.0\n")
    with pytest.raises(ValidationError):
        read_scores_csv(path)
    path.write_text("image_id,score_0\nim0,1.0,2.0\n")
    with pytest.raises(ValidationError):
        read_scores_csv(path)
    path.write_text("image_id,score_0\nim0,abc\n")
    with pytest.raises(ValidationError):
        read_scores_csv(path)
    path.write_text("image_id,score_0\nim0,1.0\nim1,2.0\nim0,3.0\n")
    with pytest.raises(ValidationError, match="'im0'"):
        read_scores_csv(path)
    path.write_text("image_id,score_0\nim0,nan\n")
    with pytest.raises(DataError):
        read_scores_csv(path)
    with pytest.raises(DataError):
        read_scores_csv(tmp_path / "missing.csv")


def test_report_csv_contents(rng, tmp_path):
    matrix = rng.normal(size=(10, 3))
    labels = rng.integers(0, 2, 10)
    report = evaluate(matrix, labels, class_names=("cat", "dog", "owl"))
    path = tmp_path / "report.csv"
    write_report_csv(path, report)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "class,positives,ap"
    assert lines[2].startswith("cat,") and lines[4].startswith("owl,")
    assert lines[4].endswith("undefined")
    assert lines[-1] == f"mAP={report.map_score!r} top1={report.top1_accuracy!r}"
