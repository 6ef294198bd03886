"""One-vs-rest linear classifier: optimality, determinism, persistence."""

from __future__ import annotations

import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fvforge.classify import (
    LinearModel,
    _train_binary,
    load_svm,
    predict_matrix,
    save_svm,
    train_ovr,
)
from fvforge.cli import main
from fvforge.errors import DataError, ParameterError, ShapeError, ValidationError
from fvforge.tensors import FINITE_CHECK_ROWS, write_rows

from conftest import arrays_at_blas_threads, make_blobs
from oracles import (
    predict_scores,
    primal_objective,
    svm_dcd_reference,
    svm_ovr_accuracy_reference,
    train_dual_full_einsum,
)


def test_separable_toy_is_classified_perfectly(rng):
    # Two tight clusters on either side of the origin along axis 0.
    x = np.vstack([rng.normal(-3.0, 0.3, (20, 2)), rng.normal(3.0, 0.3, (20, 2))])
    x[:, 1] = rng.normal(0.0, 0.3, 40)
    y = np.array([0] * 20 + [1] * 20)
    model = train_ovr(x, y, class_count=2)
    assert (np.argmax(predict_matrix(model, x), axis=1) == y).all()
    # The two-class decision boundary w.x + b = 0 crosses axis 0 near zero.
    w = model.weights[1] - model.weights[0]
    b = model.biases[1] - model.biases[0]
    crossing = -b / w[0]
    assert abs(crossing) < 1.0


def test_hinge_losses_vanish_with_wide_margins(rng):
    x, y = make_blobs(rng, classes=3, per_class=15, dim=4, spread=0.2, separation=8.0)
    model = train_ovr(x, y, class_count=3, max_epochs=4000, tol=1e-8)
    margins = predict_matrix(model, x)
    for k in range(3):
        yk = np.where(y == k, 1.0, -1.0)
        hinge = np.maximum(0.0, 1.0 - yk * margins[:, k])
        assert hinge.max() < 1e-3


def test_dual_variables_stay_in_the_box(rng):
    x, y01 = make_blobs(rng, classes=2, per_class=15, dim=3, spread=2.0, separation=3.0)
    y = np.where(y01 == 0, -1.0, 1.0)
    aug = np.hstack([x, np.ones((x.shape[0], 1))])
    C = 0.75
    w, alpha = _train_binary(aug, y, C, np.random.default_rng(7), 1000, 1e-8)
    assert np.all(alpha >= 0.0) and np.all(alpha <= C)
    # The primal vector is exactly the dual combination of the data.
    np.testing.assert_allclose(w, aug.T @ (alpha * y), atol=1e-8)


def test_training_is_deterministic_for_a_fixed_seed(rng):
    x, y = make_blobs(rng, classes=3, per_class=12, dim=5)
    a = train_ovr(x, y, class_count=3, seed=7)
    b = train_ovr(x, y, class_count=3, seed=7)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.biases, b.biases)


@pytest.mark.parametrize("max_epochs", [500, 4])
def test_lock_step_solver_matches_per_sample_reference(rng, max_epochs):
    """Every class equals the one-class-at-a-time loop, whether it converges
    or stops at the epoch cap; class 3 has no positives."""
    x, y = make_blobs(rng, classes=3, per_class=12, dim=4, spread=1.5, separation=2.5)
    model = train_ovr(x, y, class_count=4, seed=7, max_epochs=max_epochs, tol=1e-6)
    aug = np.hstack([x, np.ones((x.shape[0], 1))]).tolist()
    epochs = []
    for k in range(3):
        yk = [1.0 if label == k else -1.0 for label in y]
        w, _, run = svm_dcd_reference(
            aug, yk, 1.0, np.random.default_rng([7, k]), max_epochs, 1e-6
        )
        np.testing.assert_allclose(model.weights[k], w[:-1], rtol=0.0, atol=1e-12)
        assert abs(model.biases[k] - w[-1]) <= 1e-12
        epochs.append(run)
    if max_epochs == 500:
        assert len(set(epochs)) > 1 and max(epochs) < max_epochs
    else:
        assert max(epochs) == max_epochs
    assert model.degenerate_classes == (3,)
    assert not model.weights[3].any() and model.biases[3] == 0.0


def _near_unit_rows(rng, n, dim):
    """Rows of expected unit norm; not normalized, so at width 1 they are
    not all +-1 and every product rounds."""
    return rng.normal(size=(n, dim)) / np.sqrt(dim)


@pytest.mark.parametrize(
    "n, dim",
    [(n, dim) for n in (1, 15, 16, 17, 250) for dim in (1, 2, 31, 4096)] + [(3, 131072)],
)
def test_tiled_training_is_bitwise_the_full_einsum_solver(n, dim):
    """Weights, biases and duals equal the solver over one augmented matrix
    with one einsum each for Q and w; n straddles the 16-row tile and
    width 1 is where the unaugmented weight einsum would round differently."""
    rng = np.random.default_rng([n, dim])
    x = _near_unit_rows(rng, n, dim)
    y = np.arange(n) % 3
    model = train_ovr(x, y, class_count=3, seed=7, max_epochs=50, tol=1e-6)
    aug = np.hstack([x, np.ones((n, 1))])
    trained = np.unique(y)
    w, _, _ = train_dual_full_einsum(
        aug, np.where(y == trained[:, None], 1.0, -1.0), 1.0,
        [np.random.default_rng([7, k]) for k in trained], 50, 1e-6,
    )
    assert np.array_equal(model.weights[trained], w[:, :-1])
    assert np.array_equal(model.biases[trained], w[:, -1])

    signs = np.where(y == 0, 1.0, -1.0)
    w_bin, alpha_bin = _train_binary(aug, signs, 1.0, np.random.default_rng(3), 50, 1e-6)
    w_ref, alpha_ref, _ = train_dual_full_einsum(
        aug, signs[None, :], 1.0, [np.random.default_rng(3)], 50, 1e-6
    )
    assert np.array_equal(w_bin, w_ref[0])
    assert np.array_equal(alpha_bin, alpha_ref[0])


def test_training_holds_no_copy_of_the_features():
    """train_ovr on 250 x 4096 float64 peaks below 0.75x the matrix: no
    bias-augmented copy, no whole-matrix temporaries."""
    rng = np.random.default_rng(4)
    x = _near_unit_rows(rng, 250, 4096)
    y = np.arange(250) % 25
    tracemalloc.start()
    try:
        train_ovr(x, y, class_count=25, max_epochs=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * x.nbytes


def test_thread_count_does_not_change_the_model(rng, tmp_path):
    """`train-svm` writes the same model bytes at --threads 1 and 3."""
    x, y = make_blobs(rng, classes=4, per_class=10, dim=4)
    features = tmp_path / "train.fvt"
    write_rows(features, len(x), x)
    lines = ["classes: a,b,c,d"]
    for i, label in enumerate(y):
        lines.append(f"img{i}\t{label}\tobject:fc7=img{i}.fvt\ttrain")
    manifest = tmp_path / "data.manifest"
    manifest.write_text("\n".join(lines) + "\n")
    for threads in ("1", "3"):
        assert main(
            ["--threads", threads, "train-svm", "--manifest", str(manifest),
             "--features", str(features), "--out", str(tmp_path / f"svm_{threads}")]
        ) == 0
    parts = sorted(p.name for p in (tmp_path / "svm_1").iterdir())
    assert parts == sorted(p.name for p in (tmp_path / "svm_3").iterdir())
    for name in parts:
        assert (tmp_path / "svm_1" / name).read_bytes() == (tmp_path / "svm_3" / name).read_bytes()


_TRAIN = """
import sys
import numpy as np
from fvforge.classify import train_ovr

rng = np.random.default_rng(11)
x = rng.normal(size=(300, 3000))
x /= np.linalg.norm(x, axis=1, keepdims=True)
model = train_ovr(x, np.arange(300) % 12, class_count=12)
np.savez(sys.argv[1], weights=model.weights, biases=model.biases)
"""


def test_weights_do_not_depend_on_blas_threads(tmp_path):
    """Weights and biases are bitwise equal at 1 and 2 BLAS threads."""
    results = arrays_at_blas_threads(_TRAIN, tmp_path)
    for key in ("weights", "biases"):
        np.testing.assert_array_equal(results[0][key], results[1][key])


def test_classes_stopped_by_the_epoch_cap_warn(rng, caplog):
    x, y = make_blobs(rng, classes=3, per_class=10, dim=4, spread=1.5, separation=2.0)
    with caplog.at_level(logging.WARNING, logger="fvforge.classify"):
        train_ovr(x, y, class_count=4, max_epochs=1)
    warnings = [r.message for r in caplog.records if "not-converged" in r.message]
    assert len(warnings) == 1
    assert "classes=0,1,2 " in warnings[0] and "max_violation=" in warnings[0]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="fvforge.classify"):
        train_ovr(x, y, class_count=3, max_epochs=4000, tol=1e-4)
    assert not any("not-converged" in r.message for r in caplog.records)


def test_seed_choice_barely_moves_the_solution(rng):
    x, y = make_blobs(rng, classes=3, per_class=20, dim=6)
    base = train_ovr(x, y, class_count=3, seed=7, max_epochs=4000, tol=1e-8)
    other = train_ovr(x, y, class_count=3, seed=99, max_epochs=4000, tol=1e-8)
    ref = primal_objective(base, x, y)
    assert abs(primal_objective(other, x, y) - ref) / ref < 5e-3


def test_objective_beats_the_zero_model(rng):
    x, y = make_blobs(rng, classes=3, per_class=10, dim=4, spread=2.5, separation=2.0)
    model = train_ovr(x, y, class_count=3, C=1.0)
    # w = 0 scores a hinge of 1 per (sample, class): objective C * N * K.
    assert primal_objective(model, x, y) < 1.0 * x.shape[0] * 3


def test_accuracy_matches_subgradient_reference(rng):
    x_tr, y_tr = make_blobs(rng, classes=3, per_class=25, dim=4, spread=1.5, separation=4.0)
    # Evaluation set drawn from the same blobs: perturb the train points.
    x_te = x_tr + 1.5 * rng.standard_normal(x_tr.shape)
    y_te = y_tr.copy()
    model = train_ovr(x_tr, y_tr, class_count=3)
    ours = float(np.mean(np.argmax(predict_matrix(model, x_te), axis=1) == y_te))
    theirs = svm_ovr_accuracy_reference(
        x_tr.tolist(), y_tr.tolist(), x_te.tolist(), y_te.tolist(), 3, 1.0
    )
    assert abs(ours - theirs) <= 0.02


def test_predict_matches_scalar_reference(rng):
    model = LinearModel(
        class_count=3,
        feature_dim=5,
        weights=rng.normal(size=(3, 5)),
        biases=rng.normal(size=3),
    )
    feature = rng.normal(size=5)
    ref = predict_scores(model, feature.tolist())
    np.testing.assert_allclose(predict_matrix(model, feature[None, :])[0], ref, atol=1e-9)


def test_zero_feature_scores_the_biases(rng):
    model = LinearModel(
        class_count=4, feature_dim=3, weights=rng.normal(size=(4, 3)), biases=rng.normal(size=4)
    )
    np.testing.assert_allclose(predict_matrix(model, np.zeros((1, 3)))[0], model.biases)


def test_class_without_positives_is_flagged_degenerate(rng, caplog):
    x, y = make_blobs(rng, classes=2, per_class=10, dim=3)
    with caplog.at_level(logging.WARNING, logger="fvforge.classify"):
        model = train_ovr(x, y, class_count=3)
    assert model.degenerate_classes == (2,)
    assert not model.weights[2].any() and model.biases[2] == 0.0
    assert any("degenerate" in rec.message for rec in caplog.records)


def test_far_from_unit_norm_features_warn(rng, caplog):
    x, y = make_blobs(rng, classes=2, per_class=8, dim=3, separation=50.0)
    with caplog.at_level(logging.WARNING, logger="fvforge.classify"):
        train_ovr(x, y, class_count=2, max_epochs=5)
    assert any("norm-check" in rec.message for rec in caplog.records)


def test_unit_norm_features_train_quietly(rng, caplog):
    x, y = make_blobs(rng, classes=2, per_class=8, dim=3)
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    with caplog.at_level(logging.WARNING, logger="fvforge.classify"):
        train_ovr(x, y, class_count=2, max_epochs=5)
    assert not any("norm-check" in rec.message for rec in caplog.records)


def test_training_preconditions(rng):
    x, y = make_blobs(rng, classes=2, per_class=5, dim=3)
    with pytest.raises(ValidationError):
        train_ovr(x, y + 5, class_count=2)
    with pytest.raises(ShapeError):
        train_ovr(x, y[:-1], class_count=2)
    with pytest.raises(ParameterError):
        train_ovr(x, y, class_count=2, C=0.0)
    with pytest.raises(ParameterError):
        train_ovr(x, y, class_count=0)
    with pytest.raises(DataError):
        bad = x.copy()
        bad[0, 0] = np.nan
        train_ovr(bad, y, class_count=2)


def test_nan_tol_and_negative_seed_are_rejected(rng):
    """A NaN tol would stop after one epoch with no not-converged warning."""
    x, y = make_blobs(rng, classes=2, per_class=5, dim=3)
    with pytest.raises(ParameterError, match="tol"):
        train_ovr(x, y, class_count=2, tol=float("nan"))
    with pytest.raises(ParameterError, match="seed"):
        train_ovr(x, y, class_count=2, seed=-1)


def test_model_container_validation(rng):
    with pytest.raises(ShapeError):
        LinearModel(class_count=2, feature_dim=3, weights=np.zeros((2, 4)), biases=np.zeros(2))
    with pytest.raises(DataError):
        LinearModel(
            class_count=1, feature_dim=2, weights=np.array([[np.inf, 0.0]]), biases=np.zeros(1)
        )
    with pytest.raises(ParameterError):
        LinearModel(
            class_count=1, feature_dim=2, weights=np.zeros((1, 2)), biases=np.zeros(1), C=-1.0
        )


@pytest.mark.parametrize(
    "kwargs, error",
    [
        ({"class_names": ("a,b", "c")}, ValidationError),
        ({"class_names": ("a", "b", "c")}, ShapeError),
        ({"C": float("inf")}, ParameterError),
    ],
    ids=["comma-in-name", "three-names-for-two-classes", "infinite-c"],
)
def test_train_ovr_refuses_what_the_model_would_before_training(rng, monkeypatch, kwargs, error):
    """Names and C that ``LinearModel`` refuses are refused before any
    training work starts."""
    x, y = make_blobs(rng, classes=2, per_class=5, dim=3)

    def no_training(*args, **kwds):
        raise AssertionError("_train_dual ran")

    monkeypatch.setattr("fvforge.classify._train_dual", no_training)
    with pytest.raises(error):
        train_ovr(x, y, class_count=2, **kwargs)


def test_predict_matrix_scans_without_a_whole_boolean_copy():
    """A non-finite value in the last row is found by scanning 16 blocks
    of rows, never a boolean copy of the whole matrix (0.125x)."""
    x = np.ones((16 * FINITE_CHECK_ROWS, 8))
    x[-1, -1] = np.nan
    model = LinearModel(class_count=2, feature_dim=8, weights=np.zeros((2, 8)), biases=np.zeros(2))
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="non-finite"):
            predict_matrix(model, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * x.nbytes


def test_save_load_round_trip(rng, tmp_path):
    x, y = make_blobs(rng, classes=3, per_class=10, dim=4)
    model = train_ovr(x, y, class_count=3, class_names=("a", "b", "c"))
    save_svm(model, tmp_path / "svm")
    loaded = load_svm(tmp_path / "svm")
    assert loaded.class_count == 3 and loaded.feature_dim == 4
    assert loaded.class_names == ("a", "b", "c")
    assert loaded.C == model.C
    # Parameters persist at file precision.
    np.testing.assert_array_equal(loaded.weights, model.weights.astype(np.float32))
    np.testing.assert_array_equal(loaded.biases, model.biases.astype(np.float32))
    ours = predict_matrix(loaded, x)
    np.testing.assert_allclose(ours, predict_matrix(model, x), rtol=1e-5, atol=1e-4)


def test_one_feature_weights_load_as_a_column(rng, tmp_path):
    model = LinearModel(
        class_count=3, feature_dim=1, weights=rng.normal(size=(3, 1)), biases=rng.normal(size=3)
    )
    save_svm(model, tmp_path / "svm")
    loaded = load_svm(tmp_path / "svm")
    assert loaded.weights.shape == (3, 1)
    np.testing.assert_array_equal(loaded.weights, model.weights.astype(np.float32))


@settings(max_examples=150, deadline=None)
@given(
    names=st.lists(
        st.text(alphabet="ab=#", min_size=1, max_size=3)
        | st.text(alphabet='ab ,=#"\t\n\r\x00\x85\u2028', max_size=3),
        max_size=3,
        unique=True,
    )
)
@example(names=[" a", "b"])
@example(names=["a,b", "c"])
@example(names=["a\nb", "c"])
def test_class_names_of_every_model_survive_the_header(tmp_path_factory, names):
    """The header splits the names at ``,`` and strips its lines, so a
    model holds only names that read back as written."""
    k = max(1, len(names))
    try:
        model = LinearModel(k, 1, np.zeros((k, 1)), np.zeros(k), class_names=tuple(names))
    except ValidationError:
        return
    out = tmp_path_factory.mktemp("svm")
    save_svm(model, out)
    assert load_svm(out).class_names == model.class_names


def test_degenerate_flag_survives_the_files(rng, tmp_path):
    x, y = make_blobs(rng, classes=2, per_class=6, dim=3)
    model = train_ovr(x, y, class_count=3)
    save_svm(model, tmp_path / "svm")
    assert load_svm(tmp_path / "svm").degenerate_classes == (2,)
