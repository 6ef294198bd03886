"""Two-stream combination rules: weighted score sums and feature concatenation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .tensors import ScoreVector, _checked


@dataclass(frozen=True)
class FusionWeights:
    object_weight: float = 1.0
    scene_weight: float = 1.0

    def __post_init__(self):
        ow, sw = float(self.object_weight), float(self.scene_weight)
        if not (np.isfinite(ow) and np.isfinite(sw)):
            raise ParameterError("fusion weights must be finite")
        if ow < 0.0 or sw < 0.0:
            raise ParameterError("fusion weights must be nonnegative")
        if ow == 0.0 and sw == 0.0:
            raise ParameterError("fusion weights cannot both be zero")
        object.__setattr__(self, "object_weight", ow)
        object.__setattr__(self, "scene_weight", sw)


@dataclass(frozen=True)
class FusedFeature:
    """Concatenated two-stream feature, object block first."""

    data: np.ndarray


def weighted_sum(object_scores, scene_scores, w: FusionWeights) -> np.ndarray:
    """``w_o * object_scores + w_s * scene_scores`` of two class-score
    vectors or two (images, classes) matrices of one shape, both widened
    to float64 first (NumPy 2 keeps ``1.3 * float32_array`` float32)."""
    shape = np.shape(object_scores)
    a, b = _checked(
        np.float64,
        ("object stream scores", object_scores, shape),
        ("scene stream scores", scene_scores, shape),
    )
    return w.object_weight * a + w.scene_weight * b


def fuse_scores(
    object_scores: ScoreVector,
    scene_scores: ScoreVector,
    w: FusionWeights | None = None,
) -> ScoreVector:
    """Weighted elementwise sum of the two streams' class scores; class
    counts that differ raise ShapeError."""
    fused = weighted_sum(object_scores.scores, scene_scores.scores, w or FusionWeights())
    return ScoreVector(class_count=object_scores.class_count, scores=fused)


def concat_features(
    object_feat: np.ndarray,
    scene_feat: np.ndarray,
    w: FusionWeights | None = None,
) -> FusedFeature:
    """[w_o * object_feat, w_s * scene_feat] as one float64 vector."""
    w = w or FusionWeights()
    o, s = _checked(
        np.float64,
        ("object stream features", object_feat, (None,)),
        ("scene stream features", scene_feat, (None,)),
        flat=True,
    )
    fused = np.concatenate([w.object_weight * o, w.scene_weight * s])
    return FusedFeature(data=fused)
