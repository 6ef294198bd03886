"""Two-stream combination: weighted score sums and weighted feature stacking."""

from __future__ import annotations

import numpy as np
import pytest

from fvforge.errors import DataError, ParameterError, ShapeError
from fvforge.fusion import FusionWeights, concat_features, fuse_scores, weighted_sum
from fvforge.tensors import ScoreVector


def test_score_fusion_hand_example():
    a = ScoreVector(3, np.array([0.2, 0.5, 0.3]))
    b = ScoreVector(3, np.array([0.1, 0.1, 0.8]))
    fused = fuse_scores(a, b, FusionWeights(0.8, 1.2))
    np.testing.assert_allclose(
        fused.scores, [0.8 * 0.2 + 1.2 * 0.1, 0.8 * 0.5 + 1.2 * 0.1, 0.8 * 0.3 + 1.2 * 0.8]
    )


def test_score_fusion_defaults_to_plain_sum(rng):
    a = ScoreVector(4, rng.normal(size=4))
    b = ScoreVector(4, rng.normal(size=4))
    np.testing.assert_allclose(fuse_scores(a, b).scores, a.scores + b.scores)


def test_one_zero_weights_project_a_single_stream(rng):
    a = ScoreVector(5, rng.normal(size=5))
    b = ScoreVector(5, rng.normal(size=5))
    np.testing.assert_allclose(fuse_scores(a, b, FusionWeights(1.0, 0.0)).scores, a.scores)
    np.testing.assert_allclose(fuse_scores(a, b, FusionWeights(0.0, 1.0)).scores, b.scores)


def test_argmax_invariant_to_scaling_both_weights(rng):
    a = ScoreVector(6, rng.normal(size=6))
    b = ScoreVector(6, rng.normal(size=6))
    base = fuse_scores(a, b, FusionWeights(0.7, 1.3))
    scaled = fuse_scores(a, b, FusionWeights(0.7 * 5.0, 1.3 * 5.0))
    assert np.argmax(base.scores) == np.argmax(scaled.scores)
    np.testing.assert_allclose(scaled.scores, 5.0 * base.scores, atol=1e-12)


def test_score_fusion_rejects_mismatched_class_counts(rng):
    with pytest.raises(ShapeError):
        fuse_scores(ScoreVector(3, np.zeros(3)), ScoreVector(4, np.zeros(4)))


def test_weighted_sum_widens_float32_scores_before_weighting(rng):
    a, b = rng.normal(size=(2, 7)).astype(np.float32)
    w = FusionWeights(1.3, 0.7)
    fused = weighted_sum(a, b, w)
    assert fused.dtype == np.float64
    np.testing.assert_array_equal(
        fused, fuse_scores(ScoreVector(7, a), ScoreVector(7, b), w).scores
    )


def test_weighted_sum_of_matrices_fuses_each_row(rng):
    a, b = rng.normal(size=(2, 5, 3))
    w = FusionWeights(0.6, 1.4)
    rows = [fuse_scores(ScoreVector(3, x), ScoreVector(3, y), w).scores for x, y in zip(a, b)]
    np.testing.assert_array_equal(weighted_sum(a, b, w), np.stack(rows))
    with pytest.raises(ShapeError):
        weighted_sum(a, b[:4], w)
    b[4, 2] = np.nan
    with pytest.raises(DataError):
        weighted_sum(a, b, w)


def test_feature_concat_layout_and_weighting(rng):
    fused = concat_features(
        np.array([1.0, 2.0, 3.0]), np.array([5.0, 7.0]), FusionWeights(2.0, 0.5)
    )
    np.testing.assert_allclose(fused.data, [2.0, 4.0, 6.0, 2.5, 3.5])


def test_feature_concat_rejects_non_finite_streams():
    with pytest.raises(DataError):
        concat_features(np.array([1.0, np.inf]), np.zeros(2))
    with pytest.raises(DataError):
        concat_features(np.zeros(2), np.array([np.nan]))


def test_feature_concat_dot_product_decomposes(rng):
    # <concat(o1,s1), concat(o2,s2)> must equal w_o^2 <o1,o2> + w_s^2 <s1,s2>.
    w = FusionWeights(0.9, 1.4)
    o1, o2 = (rng.normal(size=8) for _ in range(2))
    s1, s2 = (rng.normal(size=6) for _ in range(2))
    lhs = float(np.dot(concat_features(o1, s1, w).data, concat_features(o2, s2, w).data))
    rhs = 0.9**2 * float(np.dot(o1, o2)) + 1.4**2 * float(np.dot(s1, s2))
    assert abs(lhs - rhs) < 1e-9


def test_fusion_weight_validation():
    with pytest.raises(ParameterError):
        FusionWeights(-1.0, 1.0)
    with pytest.raises(ParameterError):
        FusionWeights(0.0, 0.0)
    with pytest.raises(ParameterError):
        FusionWeights(np.nan, 1.0)
